"""The domgraph benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload subset_oracle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/domgraph; nothing needs to
be installed or built.  With --trace 0 the last line of standard output
carries every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric.  Details (rounds, sample counts, the tail percentile,
the measured times of the program and of the control, the environment) go
to standard error.  perfbench/README.md describes the workloads, the
control and the metrics.
"""

import sys

sys.dont_write_bytecode = True  # before the local imports below

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-up is timed in at least this many fresh processes a side, median reported
MIN_ROUNDS = 2  # at least this many timed rounds a side, each in a fresh process
TRACED_ROUNDS = 2  # with --trace 1: this many untraced and this many traced rounds
RUN_TIMEOUT_S = 170  # workers still running this long after the start are killed
TAIL_BEYOND = 10  # the tail percentile is the highest with this many calls beyond it
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# nominal seconds of one round worker (start, set-up and the timed calls)
# at the commit that defined the benchmark; a run makes
# max(MIN_ROUNDS, round(--seconds / (2 * ROUND_S))) rounds of the program
# and as many of the control, the same number on every commit, so that
# every commit has as many chances at a quiet moment
ROUND_S = {"subset_oracle": 1.15, "reconfig_space": 1.3, "sparse_enum": 1.6, "verify_report": 2.0}
# no round pair is started once a run has taken this many times --seconds,
# so that a run on a host much slower than the nominal one still ends in time
LATE_FACTOR = 1.3
# the control's median figures over ten seeds, measured with --seconds 22
# on the 2-core shared host where the benchmark was defined, at the commit
# that defined it (where the program and the control are the same code):
# each timing metric is the program's figure over the control's in the
# same run, times this
REFERENCE = {
    "subset_oracle": {"wall_s": 0.892, "op_p50_ms": 4.11, "op_tail_ms": 21.1, "setup_s": 0.264},
    "reconfig_space": {"wall_s": 1.28, "op_p50_ms": 3.71, "op_tail_ms": 26.4, "setup_s": 0.250},
    "sparse_enum": {"wall_s": 1.34, "op_p50_ms": 34.6, "op_tail_ms": 66.4, "setup_s": 0.250},
    "verify_report": {"wall_s": 1.83, "op_p50_ms": 21.3, "op_tail_ms": 35.7, "setup_s": 0.243},
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env(control: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE / "baseline" if control else ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.update({cap: "1" for cap in THREAD_CAPS})
    return env


def spawn(mode: str, args, check: bool = False, control: bool = False) -> tuple[float, dict | None]:
    """Start a worker, on the program or on the control, and wait for it;
    returns (set-up seconds, its result)."""
    cmd = [sys.executable, "-B", str(HERE / "worker.py"), "--mode", mode, "--seed", str(args.seed)]
    if mode != "probes":
        cmd += ["--workload", args.workload]
    if check:
        cmd.append("--check")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(control), cwd=ROOT, text=True)
    timer = threading.Timer(max(0.0, args.deadline - start), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {mode} exited with code {code}")
    return setup_s, json.loads(rest) if rest.strip() else None


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  Unlike a
    single order statistic it does not jump when two calls of different
    cost trade ranks."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


def latency_metrics(rounds: list[list[float]]) -> dict:
    """wall_s, op_p50_ms and op_tail_ms from rounds of per-call latencies.
    A call's latency is its best over the rounds: the i-th call of every
    round has the same input in a fresh process, and interference from other
    tenants of a shared host only ever adds time.  The host's slow spells
    are broken by quiet moments, so with many short rounds most calls have
    one round in a quiet moment."""
    calls = [min(column) for column in zip(*rounds)]
    tail_p = 1 - TAIL_BEYOND / len(calls)
    return {"wall_s": sum(calls),
            "op_p50_ms": 1000 * harrell_davis(calls, 0.5),
            "op_tail_ms": 1000 * harrell_davis(calls, tail_p),
            "calls": len(calls), "op_tail_percentile": round(100 * tail_p, 2)}


def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, names of failed calls) over all workers.  The
    worker that ran with --check checked its answers; every other round's
    answers must have the same digests as that worker's."""
    checked = next((r for r in results if r.get("checked")), None)
    attempted = failed = 0
    names = []
    for r in results:
        attempted += r["attempted"]
        failed += r["failed"]
        names += r["failed_calls"]
        if checked is not None and r is not checked and "digests" in r:
            want, got = checked["digests"], r["digests"]
            bad = sum(1 for a, b in zip(want, got) if a is None or a != b)
            bad += abs(len(want) - len(got))
            failed += bad
            names += ["differs from the checked round"] * bool(bad)
    return attempted, failed, names


def end_to_end(args, detail: dict) -> tuple[dict, list[dict]]:
    """Rounds of the program and of the control (perfbench/baseline, the
    program as it was when the benchmark was defined), alternately, each in
    a fresh process.  A slow spell of the host that lasts for minutes slows
    both alike, so the program's figures over the control's stay put where
    the figures themselves move by half."""
    pairs = max(MIN_ROUNDS, round(args.seconds / (2 * ROUND_S[args.workload])))
    start = time.perf_counter()
    setups = {False: [], True: []}
    rounds = {False: [], True: []}
    for i in range(pairs):
        if i >= MIN_ROUNDS and time.perf_counter() - start > LATE_FACTOR * args.seconds:
            break
        # the side that goes first alternates, so that neither always follows the other
        for control in (False, True) if i % 2 == 0 else (True, False):
            setup_s, result = spawn("round", args, check=i == 0 and not control, control=control)
            setups[control].append(setup_s)
            rounds[control].append(result)
    for control in (False, True):
        while len(setups[control]) < SETUP_SAMPLES:
            setups[control].append(spawn("setup", args, control=control)[0])
    results = rounds[False]
    program = latency_metrics([r["latency"] for r in results])
    control = latency_metrics([r["latency"] for r in rounds[True]])
    program["setup_s"] = statistics.median(setups[False])
    control["setup_s"] = statistics.median(setups[True])
    reference = REFERENCE[args.workload]
    metrics = {name: reference[name] * program[name] / control[name] for name in reference}
    detail.update(rounds=len(results), calls_per_round=program["calls"],
                  op_tail_percentile=program["op_tail_percentile"],
                  program={name: program[name] for name in reference},
                  control={name: control[name] for name in reference},
                  round_walls_s=[round(sum(r["latency"]), 4) for r in results],
                  control_round_walls_s=[round(sum(r["latency"]), 4) for r in rounds[True]],
                  setup_samples_s=[round(s, 4) for s in setups[False]], env=results[0]["env"])
    attempted, failed, _ = tally(results)
    metrics.update(peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in results),
                   pass_ratio=(attempted - failed) / attempted)
    return metrics, results


def per_layer(args, detail: dict) -> tuple[dict, list[dict]]:
    untraced, traced = [], []
    for i in range(TRACED_ROUNDS):
        untraced.append(spawn("round", args, check=i == 0)[1])
        traced.append(spawn("traced", args)[1])
    _, probes = spawn("probes", args)
    layers = [spans.layer_metrics(r.pop("spans")) for r in traced]
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    untraced_s = statistics.median(sum(r["latency"]) for r in untraced)
    traced_s = statistics.median(sum(r["latency"]) for r in traced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics.update(probes["metrics"])
    detail.update(rounds=TRACED_ROUNDS, untraced_wall_s=untraced_s, traced_wall_s=traced_s,
                  env=untraced[0]["env"],
                  layer_self_s={k: round(v, 4) for k, v in metrics.items() if k.endswith(".self_s")})
    return metrics, untraced + traced + [probes]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + RUN_TIMEOUT_S

    try:
        if not (ROOT / "src" / "domgraph" / "__init__.py").is_file():
            raise BenchError(f"no domgraph sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "nproc": os.cpu_count(), "thread_caps": {cap: "1" for cap in THREAD_CAPS}}
        if args.trace:
            values, results = per_layer(args, detail)
            wanted = spec["per_layer"]
        else:
            values, results = end_to_end(args, detail)
            wanted = spec["end_to_end"]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted, failed, names = tally(results)
    detail["fail_ratio"] = failed / attempted
    detail["failed_calls"] = sorted(set(names))
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
