"""One benchmark process.  run.py starts several per run, each a fresh
interpreter, so no answer or cache of one timed round can reach another.

    python3 -B perfbench/worker.py --mode M --workload W --seed N [--check]

It imports domgraph and sets the workload up, prints the line "ready" (the
parent times set-up up to that line), and in mode "setup" exits there.

Mode "round" then times one round of the workload, one call at a time,
and records its peak RSS.  Only after that does it look at the answers:
it reports a digest of each, and with --check it also checks every answer
independently.  Mode "traced" installs the span recorder before set-up,
does the same, and then runs the scan route on the inputs the prune route
saw.  Mode "probes" times the fixed baseline probes instead of a workload.
Every mode but "setup" prints one JSON line for run.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
from time import perf_counter

import numpy as np

import domgraph
from domgraph import cli, counting, domination, graphs, reconfig

import spans
import workloads


class Loop:
    """A closed-loop caller: times one call, then issues the next."""

    def __init__(self):
        self.latency: list[float] = []
        self.answers: list[tuple] = []  # (name, check, answer or exception)

    def call(self, check, fn, *args, summary=None, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed call is counted, not fatal
            self.latency.append(perf_counter() - start)
            self.answers.append((fn.__name__, check, exc))
            return None
        self.latency.append(perf_counter() - start)
        try:
            answer = summary(result) if summary else result
        except Exception as exc:  # an answer the summary cannot read fails
            answer = exc
        self.answers.append((fn.__name__, check, answer))
        return result

    def digests(self) -> list[str | None]:
        """One digest per answer, None for a call that raised; run.py
        compares them with those of the process that checked its answers."""
        return [None if isinstance(answer, Exception)
                else hashlib.sha256(repr(answer).encode()).hexdigest()[:16]
                for _, _, answer in self.answers]

    def failures(self) -> list[str]:
        """Names of the calls that raised or failed their check."""
        failed = []
        for name, check, answer in self.answers:
            try:
                ok = not isinstance(answer, Exception) and bool(check(answer))
            except Exception:  # a malformed answer the check cannot read
                ok = False
            if not ok:
                failed.append(name)
        return failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_round(workload, check: bool, recorder=None) -> dict:
    loop = Loop()
    # the benchmark's own objects (inputs, references) are moved out of the
    # collector's reach, so its pauses are the program's own
    gc.collect()
    gc.freeze()
    if recorder is not None:
        recorder.run = "round"
    workload.run_round(loop)
    rss = peak_rss_mb()
    out = {"latency": loop.latency, "peak_rss_mb": rss,
           "digests": loop.digests()}
    if recorder is not None:
        # the scan route on the inputs the prune route saw (where the scan
        # cap allows), so domination.enum_scan_s and prune_s compare routes
        recorder.run = "scan"
        for args, kwargs in recorder.pruned:
            if args[0].n <= domination.ENUMERATION_CAP:
                domination.enumerate_dominating(*args, **{**kwargs, "method": "scan"})
        out["spans"] = recorder.spans
    # answers are checked only now, so the checks' own memory and time stay
    # out of the measurement
    failed = (loop.failures() if check else []) + ([] if workload.inputs_ok() else ["setup"])
    out.update(attempted=len(loop.answers) + 1, failed=len(failed), failed_calls=failed,
               checked=check)
    return out


def run_probes() -> dict:
    """The ROADMAP baseline probes, each timed once in this fresh process."""
    metrics, loop = {}, Loop()

    def probe(name, check, fn, *args, **kwargs):
        loop.call(check, fn, *args, **kwargs)
        metrics[name] = loop.latency[-1]

    p24 = graphs.make_family("path", 24)
    # first, so that the process's peak RSS is this call's
    probe("probe.p24_upper_domination_s", lambda a: a == 12, domination.upper_domination_number, p24)
    metrics["probe.p24_upper_domination_rss_mb"] = peak_rss_mb()
    for name, g, order, size in (("p18", graphs.make_family("path", 18), 46499, 311970),
                                 ("p20", graphs.make_family("path", 20), 157305, 1175436),
                                 ("k16", graphs.make_family("complete", 16), 65535, 524272)):
        probe(f"probe.build_{name}_s", lambda a, want=(order, size): a == want,
              reconfig.build, g, summary=lambda r: (r.order, r.size))
    p40_row = counting.path_triangle(40).row(40)
    probe("probe.p40_enum_prune_k14_s", lambda a: a == sum(p40_row[:15]),
          domination.enumerate_dominating, graphs.make_family("path", 40), 14, cap=63,
          method="prune", summary=lambda fam: len(fam.sets))
    row = counting.path_triangle(24).row(24)
    for k in (9, 12):
        found = {}
        for method in ("prune", "scan"):
            probe(f"probe.p24_enum_{method}_k{k}_s",
                  lambda a, k=k, found=found: a == found["prune"] and len(a) == sum(row[: k + 1]),
                  domination.enumerate_dominating, p24, k, method=method,
                  summary=lambda fam, m=method: found.setdefault(m, [s.bits for s in fam.sets]))
    with workloads.Scratch() as scratch:
        out = scratch.path("verify.json")
        probe("probe.verify_max_n_12_s",
              lambda a: a == (0, workloads.VERIFY_COUNTS["all"]),
              cli.main, ["verify", "--suite", "all", "--max-n", "12", "--format", "json", "--output", out],
              summary=lambda code: (code, workloads.verify_counts(workloads.take_text(out))))
    failed = loop.failures()
    return {"metrics": metrics, "attempted": len(loop.answers), "failed": len(failed),
            "failed_calls": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("setup", "round", "traced", "probes"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true", help="check every answer")
    args = parser.parse_args(argv)

    if args.mode == "probes":
        print("ready", flush=True)
        result = run_probes()
    else:
        recorder = None
        if args.mode == "traced":
            recorder = spans.Recorder()
            recorder.install()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        try:
            workload.setup()
            print("ready", flush=True)
            if args.mode == "setup":
                return 0
            result = run_round(workload, args.check, recorder)
        finally:
            workload.close()
            if recorder is not None:
                recorder.uninstall()
    result["env"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                     "domgraph": domgraph.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
