import argparse
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from domgraph import closed_form_order
from domgraph.cli import main
from domgraph.graphs import join, ladder, make_family, to_json_obj


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
