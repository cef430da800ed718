"""Byte-for-byte outputs of the CLI surfaces, kept in tests/golden/."""

import runpy
from pathlib import Path

import pytest

from domgraph.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"
SUMS = ["--n-max", "60", "--sums", "--format", "csv"]
FAMILIES = {"path6": ("path", "6"), "cycle5": ("cycle", "5"), "complete4": ("complete", "4"),
            "ladder3": ("ladder", "3")}
P6 = ["--family", "path", "--n", "6"]

# golden file name -> CLI arguments, or the demo script whose stdout it holds
INVOCATIONS = {
    "verify_paths.json": ["verify", "--suite", "paths", "--format", "json"],
    "verify_paths.txt": ["verify", "--suite", "paths"],
    "verify_cycles.json": ["verify", "--suite", "cycles", "--format", "json"],
    "verify_cycles.txt": ["verify", "--suite", "cycles"],
    # max_n 4 leaves some ranges empty, e.g. "even n, 6<=n<=4"
    "verify_all_max_n4.json": ["verify", "--suite", "all", "--max-n", "4", "--format", "json"],
    "count_path_sums.csv": ["count", "--family", "path", *SUMS],
    "count_cycle_sums.csv": ["count", "--family", "cycle", *SUMS],
    "demo_04_counting_formulas.txt": DEMOS / "04_counting_formulas.py",
    "dominating_path6.json": ["dominating", *P6, "--format", "json"],
    # n = 40 is above the subset table: the prune route with a raised cap
    "dominating_path40_k14.csv": ["dominating", "--family", "path", "--n", "40", "--k", "14",
                                  "--cap", "63", "--format", "csv"],
    "export_ladder5_k4.json": ["export", "--family", "ladder", "--n", "5", "--k", "4"],
    # k = 1 is below gamma(P_6) = 2: the empty D_k(G)
    "reconfig_path6_k1.json": ["reconfig", *P6, "--k", "1", "--format", "json"],
    "reconfig_path6_k1.dot": ["reconfig", *P6, "--k", "1", "--format", "dot"],
    "reconfig_path6_k1_stats.txt": ["reconfig", *P6, "--k", "1", "--stats"],
    # gamma < k < n: the components of layers k - 1 and k, 7 of them on P_6 and 2 on P_7
    "reconfig_path6_k3_stats.txt": ["reconfig", *P6, "--k", "3", "--stats"],
    "reconfig_path7_k4_stats.txt": ["reconfig", "--family", "path", "--n", "7", "--k", "4",
                                    "--stats"],
    "family_join_k2_k2.json": ["family", "--product", "join:complete:2,complete:2",
                               "--format", "json"],
}
# the family command in each format, and dominating's table and csv
for fmt, ext in (("table", "txt"), ("json", "json"), ("dot", "dot")):
    INVOCATIONS[f"family_cycle5.{ext}"] = ["family", "--family", "cycle", "--n", "5",
                                           "--format", fmt]
for fmt, ext in (("table", "txt"), ("csv", "csv")):
    INVOCATIONS[f"dominating_path4.{ext}"] = ["dominating", "--family", "path", "--n", "4",
                                              "--format", fmt]
# n = 200: orders of about 53 digits, past Decimal's default 28-digit precision
for family in ("path", "cycle"):
    for fmt, ext in (("json", "json"), ("table", "txt")):
        INVOCATIONS[f"count_{family}_sums_200.{ext}"] = [
            "count", "--family", family, "--n-max", "200", "--sums", "--format", fmt]
# the triangles, which no other golden file pins
for family in ("path", "cycle"):
    for fmt, ext in (("table", "txt"), ("csv", "csv"), ("json", "json")):
        INVOCATIONS[f"count_{family}_60.{ext}"] = [
            "count", "--family", family, "--n-max", "60", "--format", fmt]
for suite in ("complete", "products", "parity"):
    INVOCATIONS[f"verify_{suite}.json"] = ["verify", "--suite", suite, "--format", "json"]
    INVOCATIONS[f"verify_{suite}.txt"] = ["verify", "--suite", suite]
for tag, (family, n) in FAMILIES.items():
    spec = ["reconfig", "--family", family, "--n", n]
    INVOCATIONS[f"reconfig_{tag}.json"] = [*spec, "--format", "json"]
    INVOCATIONS[f"reconfig_{tag}.dot"] = [*spec, "--format", "dot"]
    INVOCATIONS[f"reconfig_{tag}_stats.txt"] = [*spec, "--stats"]
# D_10(P_10): 355 nodes and 1,298 edges, so ids of three digits and the label 10
for fmt in ("json", "dot"):
    INVOCATIONS[f"reconfig_path10.{fmt}"] = ["reconfig", "--family", "path", "--n", "10",
                                             "--format", fmt]


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_output_matches_golden(name, capsys):
    invocation = INVOCATIONS[name]
    if isinstance(invocation, Path):
        runpy.run_path(str(invocation), run_name="__main__")
    else:
        assert main(invocation) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(
    name for name, invocation in INVOCATIONS.items() if isinstance(invocation, list)))
def test_output_file_matches_golden(name, tmp_path, capsys):
    # main writes the same bytes to --output as to stdout, and nothing to stdout
    target = tmp_path / name
    assert main([*INVOCATIONS[name], "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


def test_golden_files_are_exactly_the_invocations():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(INVOCATIONS)
