"""Byte-for-byte outputs of the counting and verify surfaces, kept in tests/golden/."""

import runpy
from pathlib import Path

import pytest

from domgraph.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"
SUMS = ["--n-max", "60", "--sums", "--format", "csv"]

# golden file name -> CLI arguments, or the demo script whose stdout it holds
INVOCATIONS = {
    "verify_paths.json": ["verify", "--suite", "paths", "--format", "json"],
    "verify_paths.txt": ["verify", "--suite", "paths"],
    "verify_cycles.json": ["verify", "--suite", "cycles", "--format", "json"],
    "verify_cycles.txt": ["verify", "--suite", "cycles"],
    "count_path_sums.csv": ["count", "--family", "path", *SUMS],
    "count_cycle_sums.csv": ["count", "--family", "cycle", *SUMS],
    "demo_04_counting_formulas.txt": DEMOS / "04_counting_formulas.py",
}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_output_matches_golden(name, capsys):
    invocation = INVOCATIONS[name]
    if isinstance(invocation, Path):
        runpy.run_path(str(invocation), run_name="__main__")
    else:
        assert main(invocation) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
