"""Byte-for-byte regression of sweep and scan outputs against tests/golden/.

Each golden file is the output of the command beside it.  A refactor must
leave every file unchanged, down to the last printed float digit; a
deliberate output change regenerates them with the same commands
(``gpmoments <args> --out tests/golden/<name>``) and says so.
"""

import os

import pytest

from gpmoments.cli import EXIT_OK, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

GOLDEN = {
    "sweep_fixed_k4_to4000.csv":
        ["sweep", "--mode", "fixed_k", "--value", "4", "--to", "4000"],
    "sweep_fixed_k3_to2000.json":
        ["sweep", "--mode", "fixed_k", "--value", "3", "--to", "2000",
         "--format", "json"],
    "sweep_fixed_d3_to1500.json":
        ["sweep", "--mode", "fixed_d", "--value", "3", "--to", "1500",
         "--format", "json"],
    "sweep_fixed_d4_to3000.csv":
        ["sweep", "--mode", "fixed_d", "--value", "4", "--to", "3000"],
    "circular_k12_to3000.csv": ["circular", "--k", "12", "--to", "3000"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out)]) == EXIT_OK
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert out.read_bytes() == fh.read()
