"""Golden outputs: ``carleman``, ``simulate``, ``control-linear``,
``control-nonlinear`` and ``eps-sweep`` at ``configs/default.yaml`` reproduce
the committed CSVs in ``out/``.

``out/`` was written on another machine, with other floating-point
libraries, so numeric fields of ``carleman`` and ``simulate`` are compared
to 1e-12 relative; every other field (names, the inequality column, literals
printed from a log beyond the double range) must be equal.

The control commands write the same CSV at every BLAS thread count (see
``test_thread_invariance.py``), so they run in this process as they are.
Their counts, flags and ``eps`` must be equal; ``g_l2h1`` must match to
1e-9 relative, the Picard residuals to 1e-12 absolute (1e-6 of the Picard
tolerance ``solver.tol``), the weighted log norms to 1e-12 relative, the
terminal sizes of the linear control, which are roundoff-level differences
of order tau, to 1e-6 relative, and its free forward march to 1e-12
relative like ``simulate``.  ``crossval_rel`` is a bound, not a value: it
must stay at most 1e-8, the extraction tolerance.
"""

import math
from pathlib import Path

import pytest

from ksctl.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "configs" / "default.yaml")
REL_TOL = 1e-12
# column -> (relative, absolute) tolerance of the control commands
CONTROL_TOL = {
    "g_l2h1": (1e-9, 0.0),
    "terminal_residual": (0.0, 1e-12),
    "forward_residual": (0.0, 1e-12),
    "update_norm": (0.0, 1e-12),
    "terminal_u": (1e-6, 0.0),
    "terminal_v": (1e-6, 0.0),
    "terminal_ratio": (1e-6, 0.0),
    "free_terminal_u": (REL_TOL, 0.0),
    "log_weighted_u": (1e-12, 0.0),
    "log_weighted_v": (1e-12, 0.0),
    "log_weighted_g": (1e-12, 0.0),
}
CROSSVAL_MAX = 1e-8


def _same_field(got: str, want: str) -> bool:
    try:
        x, y = float(got), float(want)
    except ValueError:
        return got == want
    if not (math.isfinite(x) and math.isfinite(y)):
        return got == want
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def _same_control_field(column: str, got: str, want: str) -> bool:
    if column == "crossval_rel":
        return float(got) <= CROSSVAL_MAX
    if column not in CONTROL_TOL:
        return got == want
    rel, tol = CONTROL_TOL[column]
    x, y = float(got), float(want)
    return abs(x - y) <= max(tol, rel * max(abs(x), abs(y)))


def _assert_reproduces_out(outdir: Path, command: str, same) -> None:
    golden = ROOT / "out" / f"{command}-bbaf91c89b14.csv"
    got = (outdir / golden.name).read_text().splitlines()
    want = golden.read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    for line_no, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
        g_fields, w_fields = g.split(","), w.split(",")
        assert len(g_fields) == len(w_fields), line_no
        bad = [(h, a, b) for h, a, b in zip(header, g_fields, w_fields)
               if not same(h, a, b)]
        assert not bad, (line_no, bad)


@pytest.mark.parametrize("command", ["carleman", "simulate"])
def test_default_config_reproduces_out(tmp_path, command):
    assert main([command, "--config", CONFIG,
                 f"--io.outdir={tmp_path}", "--io.format=csv"]) == 0
    _assert_reproduces_out(tmp_path, command, lambda h, a, b: _same_field(a, b))


@pytest.mark.parametrize("command", ["control-linear", "control-nonlinear", "eps-sweep"])
def test_control_command_reproduces_out(tmp_path, command):
    assert main([command, "--config", CONFIG,
                 f"--io.outdir={tmp_path}", "--io.format=csv"]) == 0
    _assert_reproduces_out(tmp_path, command, _same_control_field)
