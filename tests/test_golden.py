"""Byte-for-byte golden outputs of the command line.

Each case runs one ``wigreg`` command on a spec under ``tests/golden/specs``
and compares what it writes with the pinned file ``tests/golden/NAME.out``.
Certify reports carry a ``generated_at`` stamp, which is replaced by
``PINNED`` on both sides before the comparison; every other byte must match,
including the sampled floats of the evidence certificates.

When a change is meant to alter the output, regenerate the pinned files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest

from wigreg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = GOLDEN / "specs"

_STAMP = re.compile(rb'"generated_at": "[^"]*"')

# case -> argv with {spec}, {out} and {specs} placeholders; {spec} is the
# spec file named by the part of the case name after its first "_"
CERTIFY = ["certify", "{spec}", "--quiet", "--report", "{out}"]
SYMBOL = ["symbol", "{spec}", "--emit", "a,b,atilde,wick", "--json"]
CASES = {
    **{f"certify_{name}": CERTIFY for name in (
        "EQ44", "C11", "QUARTIC", "SEXTIC", "FIRST_PLUS", "FIRST_MINUS",
        "dense4_p1o2", "dense5_p1o3", "dense6_p3o7", "wick6_p1o3",
        "x6d6", "qh2_4", "qh6_2")},
    "symbol_EQ44": SYMBOL,
    "symbol_QUARTIC": SYMBOL,
    "generate_positive": ["generate", "--positive-symbol", "{specs}/positive_target.json",
                          "--p", "2/5", "--out", "{out}"],
    "generate_quasi": ["generate", "--quasi-homogeneous", "3/2,-5/3,1,2", "--out", "{out}"],
}


def _spec_name(case: str) -> str:
    return case.split("_", 1)[1]


def run_case(case: str, out: Path) -> bytes:
    """Run one case, writing to ``out``; return the pinned-form bytes."""
    argv = [a.format(spec=SPECS / f"{_spec_name(case)}.json", out=out, specs=SPECS)
            for a in CASES[case]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(argv)
    data = out.read_bytes() if "{out}" in CASES[case] else stdout.getvalue().encode()
    return _STAMP.sub(b'"generated_at": "PINNED"', data)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden_bytes(case, tmp_path):
    assert run_case(case, tmp_path / "out") == (GOLDEN / f"{case}.out").read_bytes()


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as work:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.out").write_bytes(run_case(case, Path(work) / "out"))


if __name__ == "__main__":
    regenerate()
