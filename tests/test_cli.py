import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domgraph import closed_form_order, reconfig
from domgraph.cli import _FAMILIES, main
from domgraph.graphs import join, ladder, make_family, to_json_obj
from domgraph.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "--family", "path", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "edges": [[1, 2], [2, 3]]}


def test_family_table(capsys):
    code, out, _ = run(capsys, "family", "--family", "cycle", "--n", "4")
    assert code == 0
    assert "vertices" in out and "4" in out


def test_family_dot(capsys):
    code, out, _ = run(capsys, "family", "--family", "path", "--n", "2", "--format", "dot")
    assert code == 0
    assert "v1 -- v2;" in out


def test_self_loop_in_graph_json_is_named_by_its_labels(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text('{"n": 3, "edges": [[2, 2]]}')
    code, out, err = run(capsys, "family", "--input", str(path))
    assert code == 1 and out == "" and "[2, 2]" in err


def test_family_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "family", "--family", "cycle", "--n", "2")
    assert code == 1
    assert "error" in err


def test_missing_spec_exit_2(capsys):
    code, _, err = run(capsys, "family")
    assert code == 2
    code, _, err = run(capsys, "family", "--family", "path")
    assert (code, err) == (2, "usage error: --family needs --n\n")


def test_conflicting_spec_exit_2(capsys):
    code, _, err = run(
        capsys, "family", "--family", "path", "--n", "3", "--product", "join:path:2,path:2"
    )
    assert code == 2


def test_unknown_flag_exit_2(capsys):
    assert main(["family", "--bogus"]) == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_product_expression(capsys):
    code, out, _ = run(
        capsys, "family", "--product", "join:complete:2,complete:2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4 and len(obj["edges"]) == 6


def test_bad_product_expression(capsys):
    code, _, err = run(capsys, "family", "--product", "meet:path:2,path:2")
    assert code == 2
    for expr, message in [("join:path:3", "product 'join:path:3' needs exactly two factors"),
                          ("join:path,path:2", "bad factor 'path'; expected family:n"),
                          ("join:path:x,path:2", "bad factor size 'x'")]:
        code, out, err = run(capsys, "family", "--product", expr)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")


def test_ladder_family(capsys):
    code, out, _ = run(capsys, "family", "--family", "ladder", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["n"] == 6


def test_ladder_product_factor(capsys):
    code, out, _ = run(capsys, "family", "--product", "join:ladder:2,path:2", "--format", "json")
    assert code == 0
    assert out == json.dumps(to_json_obj(join(ladder(2), make_family("path", 2)))) + "\n"


@pytest.mark.parametrize("argv", [("--family", "ladder", "--n", "0"),
                                  ("--product", "cartesian:ladder:0,path:2")])
def test_ladder_without_rungs_exit_1(capsys, argv):
    code, out, err = run(capsys, "family", *argv)
    assert (code, out) == (1, "")
    assert "ladder L_n needs n >= 1" in err and "path" not in err


def test_unknown_product_factor_exit_2(capsys):
    code, _, err = run(capsys, "family", "--product", "join:lad:2,path:2")
    assert code == 2
    assert "unknown family 'lad'" in err
    assert all(repr(kind) in err for kind in ("path", "cycle", "complete", "empty", "ladder"))


def test_dominating_json(capsys):
    code, out, _ = run(capsys, "dominating", "--family", "path", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [[2], [1, 2], [1, 3], [2, 3], [1, 2, 3]]


def test_dominating_csv(capsys):
    code, out, _ = run(capsys, "dominating", "--family", "path", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == "n,j,count\n4,2,4\n4,3,4\n4,4,1\n"


def test_dominating_too_large_exit_1(capsys):
    code, out, err = run(capsys, "dominating", "--family", "path", "--n", "30")
    assert (code, out) == (1, "")
    assert "cap" in err and "--cap" in err


def test_reconfig_stats(capsys):
    code, out, _ = run(capsys, "reconfig", "--family", "complete", "--n", "3", "--stats")
    assert code == 0
    lines = dict(
        (line.split(None, 1)[0], line.split()[-1]) for line in out.strip().splitlines()
    )
    assert lines["order"] == "7"
    assert lines["size"] == "9"
    assert lines["parts"] == "4/3"
    assert lines["components"] == "1"
    assert "min degree  2" in out and "max degree  3" in out


def test_reconfig_empty_warning(capsys):
    code, out, _ = run(capsys, "reconfig", "--family", "path", "--n", "9", "--k", "2")
    assert code == 0
    assert "warning" in out


def test_count_sums_table(capsys):
    code, out, _ = run(capsys, "count", "--family", "path", "--n-max", "6", "--sums")
    assert code == 0
    assert out.strip() == "1,3,5,9,17,31"


def test_count_sums_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "cycle", "--n-max", "4", "--sums", "--format", "csv"
    )
    assert code == 0
    assert out == "family,n,order\ncycle,1,1\ncycle,2,3\ncycle,3,7\ncycle,4,11\n"


def test_count_sums_prints_every_digit(tmp_path, capsys):
    # the last order has 4314 digits, past Python's default int-to-str limit of 4300
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (3.10)
    target = tmp_path / "sums.csv"
    code, _, err = run(
        capsys, "count", "--family", "path", "--n-max", "16300", "--sums", "--format", "csv",
        "--output", str(target),
    )
    assert code == 0 and err == ""
    last = target.read_text().rsplit(",", 1)[1].strip()
    assert len(last) == 4314
    if limit:
        assert sys.get_int_max_str_digits() == limit  # main restores the limit
        sys.set_int_max_str_digits(0)
    try:
        assert int(last) == closed_form_order("path", 16300)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_count_sums_error_leaves_the_output_file_untouched(tmp_path, capsys):
    target = tmp_path / "sums.csv"
    target.write_bytes(b"kept\n")
    code, out, err = run(capsys, "count", "--family", "path", "--n-max", "0", "--sums",
                         "--output", str(target))
    assert code == 1 and out == "" and "n_max must be >= 1" in err
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize("family, n_max, message", [
    ("path", "0", "n_max must be >= 1"), ("cycle", "2", "n_max must be >= 3 for cycles")])
def test_count_triangle_error_leaves_the_output_file_untouched(tmp_path, capsys, family, n_max,
                                                               message):
    target = tmp_path / "triangle.csv"
    target.write_bytes(b"kept\n")
    code, out, err = run(capsys, "count", "--family", family, "--n-max", n_max,
                         "--output", str(target))
    assert code == 1 and out == "" and err == f"error: {message}\n"
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize("argv, status, message", [
    (["dominating", "--family", "path", "--n", "30"], 1, "exceeds the enumeration cap 24"),
    (["reconfig", "--family", "path", "--n", "3", "--k", "0"], 1, "k=0 must satisfy"),
    (["family", "--product", "join:path:3"], 2, "needs exactly two factors"),
    (["verify", "--max-n", "2"], 1, "outside the valid range 3..24"),
])
def test_error_leaves_the_output_file_untouched(tmp_path, capsys, argv, status, message):
    # a handler raises before main opens --output
    target = tmp_path / "out.txt"
    target.write_bytes(b"kept\n")
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == status and out == "" and message in err
    assert target.read_bytes() == b"kept\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_count_streams_with_flat_memory(tmp_path, fmt):
    # the triangle is written row by row with three rows kept, the orders one by one
    target = tmp_path / f"count.{fmt}"
    for sums in ([], ["--sums"]):
        tracemalloc.start()
        try:
            code = main(["count", "--family", "path", "--n-max", "300", "--format", fmt,
                         *sums, "--output", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 1 << 20


def test_reconfig_export_streams_in_blocks(tmp_path, monkeypatch):
    # D_20(P_20): 157,305 nodes, 27 MB of JSON and 33 MB of DOT, written a block of
    # node ids at a time; export's own peak is what it allocates past the built graph
    built, held = reconfig.build, []

    def build(*args, **kwargs):
        r = built(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return r

    monkeypatch.setattr(reconfig, "build", build)
    for fmt in ("json", "dot"):
        target = tmp_path / f"reconfig.{fmt}"
        tracemalloc.start()
        try:
            code = main(["reconfig", "--family", "path", "--n", "20", "--format", fmt,
                         "--output", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak - held.pop() < 8 << 20 < target.stat().st_size // 3


def test_count_triangle_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "path", "--n-max", "3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "family,n,j,count"
    assert "path,3,2,3" in out


def test_count_sums_with_n_max_below_1_is_a_clean_error(capsys):
    for family in ("path", "cycle"):
        code, out, err = run(capsys, "count", "--family", family, "--n-max", "-1", "--sums")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "n_max" in err


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "cycles", "--max-n", "6", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["fail"] == 0
    assert report["counts"]["erratum"] >= 1
    checks = {r["check"] for r in report["records"]}
    assert "cycle/order-seed-erratum" in checks


def test_verify_table(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "complete", "--max-n", "5")
    assert code == 0
    assert "PASS" in out and "0 fail" in out


def test_export_graph_to_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _, _ = run(
        capsys, "export", "--family", "path", "--n", "3", "--format", "dot",
        "--output", str(target),
    )
    assert code == 0
    assert "v1 -- v2;" in target.read_text()


def test_export_reconfig_json(tmp_path, capsys):
    target = tmp_path / "d.json"
    code, _, _ = run(
        capsys, "export", "--family", "path", "--n", "3", "--k", "3",
        "--output", str(target),
    )
    assert code == 0
    obj = json.loads(target.read_text())
    assert len(obj["nodes"]) == 5 and obj["k"] == 3


def test_input_graph_file(tmp_path, capsys):
    source = tmp_path / "g.json"
    source.write_text('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    code, out, _ = run(capsys, "dominating", "--input", str(source), "--format", "json")
    assert code == 0
    assert json.loads(out)[0] == [2]


def test_repeat_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "parity", "--max-n", "4",
                      "--seed", "7", "--format", "json")
    _, second, _ = run(capsys, "verify", "--suite", "parity", "--max-n", "4",
                       "--seed", "7", "--format", "json")
    assert first == second
    _, a, _ = run(capsys, "count", "--family", "path", "--n-max", "9", "--format", "csv")
    _, b, _ = run(capsys, "count", "--family", "path", "--n-max", "9", "--format", "csv")
    assert a == b


def test_verify_max_n_below_3_is_a_clean_error(capsys):
    for max_n in ("0", "1", "2"):
        code, out, err = run(capsys, "verify", "--max-n", max_n)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "3..24" in err


def test_input_graph_with_string_n_is_a_clean_error(tmp_path, capsys):
    source = tmp_path / "g.json"
    source.write_text('{"n": "3", "edges": [[1, 2]]}')
    code, out, err = run(capsys, "family", "--input", str(source))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "integer n" in err


def test_input_graph_with_boolean_n_is_a_clean_error(tmp_path, capsys):
    source = tmp_path / "g.json"
    source.write_text('{"n": true, "edges": []}')
    code, out, err = run(capsys, "family", "--input", str(source))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "integer n" in err


def test_input_graph_with_malformed_edges_is_a_clean_error(tmp_path, capsys):
    source = tmp_path / "g.json"
    for edges in ('[[1, "2"]]', "[[1, true]]", "[[1, 2, 3]]", "[[0, 1]]", "[[1, 4]]", "[1]", '"12"'):
        source.write_text('{"n": 3, "edges": %s}' % edges)
        code, out, err = run(capsys, "family", "--input", str(source))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "edge" in err


def test_main_builds_the_parser_once(monkeypatch, capsys):
    add_argument = argparse.ArgumentParser.add_argument
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    argv = ["family", "--family", "path", "--n", "3"]
    assert run(capsys, *argv)[0] == 0
    calls.clear()
    assert run(capsys, *argv)[0] == 0
    assert calls == []


def test_shared_parser_survives_errors_and_help(capsys):
    assert run(capsys, "family", "--bogus")[0] == 2
    code, out, _ = run(capsys, "family", "--help")
    assert code == 0 and "--family" in out
    assert run(capsys, "family", "--family", "cycle", "--n", "2")[0] == 1
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "4", "--format", "json")
    golden = Path(__file__).parent / "golden" / "verify_all_max_n4.json"
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_closed_stdout_pipe_exits_quietly():
    # the reader takes one line and closes the pipe while count is still writing
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "domgraph.cli", "count", "--family", "path", "--n-max", "2000",
         "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"family,n,j,count\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b""


class _ClosingStdout(io.StringIO):
    """A stdout whose reader goes away once `limit` characters have been written."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit
        self.broke = False

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            self.broke = True
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)


# --input texts: well-formed, malformed, and nested deeper than the recursion limit
FUZZ_INPUTS = (
    '{"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}', "[" * 100_000, "not json",
    '{"n": 3, "edges": [[1, 1]]}', '{"n": 3, "edges": ' + "[" * 100_000, '{"n": 64, "edges": []}',
    '{"n": 2.5, "edges": []}', None,  # None: a missing file
)
# sizes of at most 8 vertices, the refused 0 and 64, and text argparse refuses
FUZZ_SIZES = ("1", "2", "3", "4", "8", "0", "64", "x")
FUZZ_FORMATS = {"family": ("table", "json", "dot"), "dominating": ("table", "json", "csv"),
                "reconfig": ("table", "json", "dot"), "export": ("json", "dot"),
                "count": ("table", "json", "csv"), "verify": ("table", "json")}


@st.composite
def cli_calls(draw):
    """An argument list over the CLI grammar, the --input text it reads, and
    whether it writes to --output.  Most draws are well-formed; the graphs
    that get past --cap have at most 8 vertices, so each call is quick."""
    command = draw(st.sampled_from(list(FUZZ_FORMATS)))
    argv, text = [command], None
    if command == "count":
        argv += ["--family", draw(st.sampled_from(["path", "cycle", "ladder"])),
                 "--n-max", draw(st.sampled_from(["1", "2", "3", "40", "0", "x"]))]
        argv += ["--sums"] if draw(st.booleans()) else []
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from([*SUITES, "all"])),
                 "--max-n", draw(st.sampled_from(["3", "4", "5", "2"])),
                 "--seed", draw(st.sampled_from(["0", "3"]))]
    else:
        source = draw(st.sampled_from(["family", "input", "product", "family input", ""]))
        if "family" in source:
            argv += ["--family", draw(st.sampled_from([*_FAMILIES, "wheel"]))]
            size = draw(st.sampled_from((*FUZZ_SIZES, None)))
            argv += [] if size is None else ["--n", size]
        if "input" in source:
            text = draw(st.sampled_from(FUZZ_INPUTS))
            argv += ["--input", "<input>"]
        if "product" in source:
            factors = [f"{draw(st.sampled_from([*_FAMILIES, 'wheel']))}:"
                       f"{draw(st.sampled_from(FUZZ_SIZES))}" for _ in range(2)]
            op = draw(st.sampled_from(["join", "corona", "cartesian", "meet"]))
            argv += ["--product", draw(st.sampled_from(
                [f"{op}:{factors[0]},{factors[1]}", f"{op}:{factors[0]}"]))]
        if command != "family":
            k = draw(st.sampled_from([None, "2", "4", "9", "0", "-1"]))
            argv += [] if k is None else ["--k", k]
        argv += ["--cap", draw(st.sampled_from(["8", "4", "0", "-1"]))]
    fmt = draw(st.sampled_from([None, *FUZZ_FORMATS[command], "xml"]))
    argv += [] if fmt is None else ["--format", fmt]
    return argv, text, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_calls(), st.one_of(st.none(), st.integers(0, 300)), st.booleans())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, call, stdout_limit, output_exists):
    argv, text, to_output = call
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    source, target = work / "g.json", work / "out.txt"
    source.unlink(missing_ok=True)
    target.unlink(missing_ok=True)
    if text is not None:
        source.write_text(text, encoding="utf-8")
    argv = [str(source) if arg == "<input>" else arg for arg in argv]
    if to_output:
        argv += ["--output", str(target)]
        if output_exists:
            target.write_bytes(b"kept\n")
    stdout = io.StringIO() if stdout_limit is None else _ClosingStdout(stdout_limit)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert out == "" and err
        if to_output:
            assert target.read_bytes() == b"kept\n" if output_exists else not target.exists()
    else:
        assert err == ""
    if getattr(stdout, "broke", False):
        assert code == 0 and err == ""
