"""Byte-for-byte regression of sweep and scan outputs against tests/golden/.

Each golden file is the output of the command beside it.  A refactor must
leave every file unchanged, down to the last printed float digit; a
deliberate output change regenerates them with the same commands
(``gpmoments <args> --out tests/golden/<name>``) and says so.  A mismatch
names the first row that differs: the CSV line, or the JSON array element
with its p and the keys that differ.

The `verify` reports (``gpmoments <args> > tests/golden/<name>``) are
compared line by line with every ``max_err=`` value masked: those are BLAS
residuals, which differ between builds.

eta_sha256.txt pins the bits of the periods themselves, and so their
summation order: each line is p, d and the SHA-256 of
``compute_periods(build_context(p, d)).tobytes()``.
"""

import hashlib
import json
import os
import re

import pytest

from gpmoments import build_context, compute_periods
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
    "figure_d5_to5000.csv": ["figure", "--id", "d5", "--to", "5000"],
}

# odd k = 253 at (1013, d4) takes the eigvals path of the spectrum
VERIFY_GOLDEN = {
    "verify_p1009_d3.txt": ["verify", "--p", "1009", "--d", "3"],
    "verify_p1013_d4.txt": ["verify", "--p", "1013", "--d", "4"],
    "verify_p1021_d5.txt": ["verify", "--p", "1021", "--d", "5"],
    "verify_p13_k3.txt": ["verify", "--p", "13", "--k", "3"],
    "verify_p31_k3.txt": ["verify", "--p", "31", "--k", "3"],
}


def _differing_keys(got: dict, want: dict, prefix: str = "") -> list[str]:
    """The keys whose values differ, nested dicts entered as key.subkey."""
    out = []
    for key in sorted(got.keys() | want.keys()):
        a, b = got.get(key), want.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            out += _differing_keys(a, b, f"{prefix}{key}.")
        elif a != b:
            out.append(prefix + key)
    return out


def first_difference(name: str, got: bytes, want: bytes) -> str:
    """Where the output got of golden file name first differs from want."""
    if name.endswith(".json"):
        rows, golden = json.loads(got), json.loads(want)
        for i, (a, b) in enumerate(zip(rows, golden)):
            if a != b:
                return (f"{name}: element {i} (p={b.get('p')}) differs in "
                        + ", ".join(_differing_keys(a, b)))
        if len(rows) != len(golden):
            return f"{name}: {len(rows)} elements, golden has {len(golden)}"
        return f"{name}: equal elements, different bytes"
    lines, golden = got.decode().splitlines(), want.decode().splitlines()
    for i, (a, b) in enumerate(zip(lines, golden), 1):
        if a != b:
            return f"{name}: line {i} differs\n  got:    {a}\n  golden: {b}"
    if len(lines) != len(golden):
        return f"{name}: {len(lines)} lines, golden has {len(golden)}"
    return f"{name}: equal lines, different bytes"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(GOLDEN[name] + ["--out", str(out)]) == EXIT_OK
    got = out.read_bytes()
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        want = fh.read()
    if got != want:
        pytest.fail(first_difference(name, got, want), pytrace=False)


def _mask_residuals(text: str) -> list[str]:
    return re.sub(r"max_err=\S+", "max_err=*", text).splitlines()


@pytest.mark.parametrize("name", sorted(VERIFY_GOLDEN))
def test_verify_report_matches_golden(name, capsys):
    assert main(VERIFY_GOLDEN[name]) == EXIT_OK
    got = _mask_residuals(capsys.readouterr().out)
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        want = _mask_residuals(fh.read())
    for i, (a, b) in enumerate(zip(got, want), 1):
        assert a == b, f"{name}: line {i} differs"
    assert len(got) == len(want), name


def _eta_digests() -> list[tuple[int, int, str]]:
    with open(os.path.join(GOLDEN_DIR, "eta_sha256.txt")) as fh:
        lines = [line.split() for line in fh if not line.startswith("#")]
    return [(int(p), int(d), digest) for p, d, digest in lines]


# even k near 1e6 (d = 3, 4) and odd k (d = 12); fixed k = 4 and 3 near 1e4;
# odd k = 253 (1013, 4); k = 9 (73, 8); d = 1; k = 2 and k = 1
@pytest.mark.parametrize("p,d,digest", _eta_digests())
def test_periods_match_golden_bits(p, d, digest):
    eta = compute_periods(build_context(p, d))
    assert hashlib.sha256(eta.tobytes()).hexdigest() == digest


def test_a_mismatch_names_the_first_differing_row(tmp_path):
    # a deliberately altered copy of two goldens, one JSON and one CSV
    name = "sweep_fixed_d3_to1500.json"
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        want = fh.read()
    rows = json.loads(want)
    rows[5]["verdicts"]["v2"] = not rows[5]["verdicts"]["v2"]
    rows[5]["v4_exact"][0] += 1
    altered = tmp_path / name
    altered.write_text(json.dumps(rows, sort_keys=True))
    assert first_difference(name, altered.read_bytes(), want) == (
        f"{name}: element 5 (p={rows[5]['p']}) differs in v4_exact, "
        "verdicts.v2")
    assert first_difference(name, want.replace(b",", b", "), want) == (
        f"{name}: equal elements, different bytes")

    name = "sweep_fixed_d4_to3000.csv"
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        want = fh.read()
    lines = want.decode().splitlines()
    lines[3] = lines[3][:-1] + "0"
    altered = tmp_path / name
    altered.write_text("\n".join(lines) + "\n")
    assert first_difference(name, altered.read_bytes(), want) == (
        f"{name}: line 4 differs\n  got:    {lines[3]}\n"
        f"  golden: {want.decode().splitlines()[3]}")
