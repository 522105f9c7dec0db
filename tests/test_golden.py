"""Report bytes against the canonical outputs committed under tests/golden/.

Each case runs one command into its own output directory and every file
it writes must equal the golden copy byte for byte; a mismatch names the
first differing field of each file.  A golden file changes only with a
change to the reports that CHANGES.md declares.  Regenerate them all with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from itertools import zip_longest
from pathlib import Path

from diqkd.cli import main

GOLDEN = Path(__file__).parent / "golden"
PAPER_CFG = str(GOLDEN / "paper11km.cfg")  # the README's 11 km config

CASES = {
    "pipeline-analytic": ["--config", PAPER_CFG, "pipeline"],
    "pipeline-seed7": ["--seed", "7", "pipeline"],
    "pipeline-near-classical": ["--config", str(GOLDEN / "near-classical.cfg"), "pipeline"],
    "sweep-n": ["--config", PAPER_CFG, "sweep-n", "--n-grid", "5e5,1e7"],
    "distance": ["distance"],
    "contour": ["contour"],
    "pvalues": ["pvalues"],
    "budget": ["budget"],
}


def run_cases(root: Path) -> None:
    """Run every case into root/<case>/."""
    for name, argv in CASES.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["--out", str(root / name), *argv])
        if code != 0:
            raise RuntimeError(f"case {name} exited {code}")


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else key)
    else:
        yield prefix, obj


def first_difference(name: str, want: bytes, got: bytes) -> str:
    """The first field in which two report files differ, in words."""
    if name.endswith(".json"):
        w, g = dict(_flatten(json.loads(want))), dict(_flatten(json.loads(got)))
        for key in [*w, *(k for k in g if k not in w)]:
            a, b = repr(w.get(key, "<absent>")), repr(g.get(key, "<absent>"))
            if a != b:
                return f"{name}: field {key}: golden {a}, got {b}"
    else:
        wl, gl = want.decode().splitlines(), got.decode().splitlines()
        cols = wl[1].split(",") if len(wl) > 1 else []
        for i, (a, b) in enumerate(zip_longest(wl, gl, fillvalue="<absent>")):
            if a == b:
                continue
            if i < 2:
                return f"{name}: {'config hash' if i == 0 else 'header'}: golden {a!r}, got {b!r}"
            row = a.split(",")
            for col, x, y in zip_longest(cols, row, b.split(","), fillvalue="<absent>"):
                if x != y:
                    return f"{name}: row {i - 1} ({cols[0]} = {row[0]}), column {col}: golden {x}, got {y}"
    offset = next(i for i, (x, y) in enumerate(zip_longest(want, got)) if x != y)
    return f"{name}: same fields, first differing byte at offset {offset}"


def test_reports_match_golden_bytes(tmp_path):
    run_cases(tmp_path)
    expected = sorted(p.relative_to(GOLDEN) for p in GOLDEN.glob("*/*"))
    produced = sorted(p.relative_to(tmp_path) for p in tmp_path.glob("*/*"))
    assert produced == expected
    mismatches = []
    for rel in expected:
        want, got = (GOLDEN / rel).read_bytes(), (tmp_path / rel).read_bytes()
        if want != got:
            mismatches.append(first_difference(str(rel), want, got))
    assert not mismatches, "\n".join(mismatches)


def test_golden_reports_are_strict_json():
    # RFC 8259 has no NaN or Infinity; Python's json writes and reads them unless told not to
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    reports = sorted(GOLDEN.glob("*/report.json"))
    assert reports
    for path in reports:
        json.loads(path.read_text(), parse_constant=reject)


if __name__ == "__main__":
    run_cases(GOLDEN)
