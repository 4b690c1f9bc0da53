"""Golden outputs: ``carleman`` and ``simulate`` at ``configs/default.yaml``
reproduce the committed CSVs in ``out/``.

``out/`` was written on another machine, with other floating-point
libraries, so numeric fields are compared to 1e-12 relative; every other
field (names, the inequality column, literals printed from a log beyond the
double range) must be equal.
"""

import math
from pathlib import Path

import pytest

from ksctl.cli import main

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-12


def _same_field(got: str, want: str) -> bool:
    try:
        x, y = float(got), float(want)
    except ValueError:
        return got == want
    if not (math.isfinite(x) and math.isfinite(y)):
        return got == want
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


@pytest.mark.parametrize("command", ["carleman", "simulate"])
def test_default_config_reproduces_out(tmp_path, command):
    golden = ROOT / "out" / f"{command}-bbaf91c89b14.csv"
    assert main([command, "--config", str(ROOT / "configs" / "default.yaml"),
                 f"--io.outdir={tmp_path}", "--io.format=csv"]) == 0
    got = (tmp_path / golden.name).read_text().splitlines()
    want = golden.read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for line_no, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
        g_fields, w_fields = g.split(","), w.split(",")
        assert len(g_fields) == len(w_fields), line_no
        bad = [(h, a, b) for h, a, b in zip(want[0].split(","), g_fields, w_fields)
               if not _same_field(a, b)]
        assert not bad, (line_no, bad)
