"""Every command writes the same CSV bytes at one and at two BLAS threads:
``control-linear`` and ``simulate`` at the 1D defaults and at a 2D config
(32x32 nodes, m=40, every default control box repeated on both axes),
``simulate`` also at 111x111 nodes (m=16), ``control-nonlinear``,
``eps-sweep`` and ``carleman`` at the 1D defaults.  ``control-linear`` and
the two Picard commands also write the same JSON ``summary`` (the weighted
log norms, the lagged residual and the E-norm of ``control-nonlinear``
among it).

Every weighted node sum (``grid.inner``, and through it ``mass``,
``l2_sq``, ``l2_norm`` and ``h1_seminorm_sq``) is a fixed-order ``einsum``,
and the CG's reductions are fixed-order numpy sums: BLAS ``ddot`` and
``gemv`` split a long sum across their threads, so their bits follow the
thread count.  With ``cg_tol`` near the roundoff floor, that order alone
moved the 1D CG iteration count from 17 to 20; at 111x111 nodes it moved
33 of ``simulate``'s 153 cells.  The grid sums themselves are compared bit
for bit at 1 and 2 threads on a (3, 12,321) stack."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "configs" / "default.yaml")
TWO_D = [
    "--grid.dim=2", "--grid.L=[1.0,1.0]", "--grid.n=[32,32]", "--grid.m=40",
    "--weights.omega0=[[0.30,0.40],[0.30,0.40]]",
    "--weights.omega_prime=[[0.25,0.45],[0.25,0.45]]",
    "--weights.omega=[[0.20,0.50],[0.20,0.50]]",
]

# 111 x 111 = 12,321 nodes: above the length at which BLAS splits a dot product
TWO_D_111 = [*TWO_D[:2], "--grid.n=[110,110]", "--grid.m=16", *TWO_D[4:]]
GRID_SUMS = """
import numpy as np
from ksctl.grid import build_grid, h1_seminorm_sq, inner, l2_norm, l2_sq, mass
g = build_grid(2, (1.0, 1.0), (110, 110), 1.0, 16)
f, h = np.random.default_rng(5).standard_normal((2, 3, g.num_nodes))
for x in (mass(f, g), inner(f, h, g), l2_norm(f, g), l2_sq(f, g), h1_seminorm_sq(f, g)):
    print(x.tobytes().hex())
"""


def _env(threads: int) -> dict:
    return {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
            "OMP_NUM_THREADS": str(threads),
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


def _csv(outdir: Path, command: str, threads: int, overrides=(), fmt="csv") -> bytes:
    subprocess.run([sys.executable, "-m", "ksctl.cli", command, "--config", CONFIG,
                    f"--io.outdir={outdir}", f"--io.format={fmt}", *overrides],
                   env=_env(threads), check=True)
    (csv,) = outdir.glob(f"{command}-*.csv")
    return csv.read_bytes()


def _assert_same_csv_and_summary(tmp_path, command, overrides=()):
    one, two = tmp_path / "one", tmp_path / "two"
    assert (_csv(one, command, 1, overrides, fmt="both")
            == _csv(two, command, 2, overrides, fmt="both"))
    (rec_one,), (rec_two,) = one.glob("*.json"), two.glob("*.json")
    assert (json.loads(rec_one.read_text())["summary"]
            == json.loads(rec_two.read_text())["summary"])


@pytest.mark.parametrize("overrides", [[], TWO_D], ids=["1d-defaults", "2d-32x32"])
def test_control_linear_csv_independent_of_blas_threads(tmp_path, overrides):
    _assert_same_csv_and_summary(tmp_path, "control-linear", overrides)


@pytest.mark.parametrize("command", ["control-nonlinear", "eps-sweep"])
def test_picard_csvs_independent_of_blas_threads(tmp_path, command):
    _assert_same_csv_and_summary(tmp_path, command)


@pytest.mark.parametrize("command, overrides", [
    ("carleman", []), ("simulate", []), ("simulate", TWO_D), ("simulate", TWO_D_111),
], ids=["carleman-1d-defaults", "simulate-1d-defaults", "simulate-2d-32x32",
        "simulate-2d-111x111"])
def test_audit_and_simulate_csvs_independent_of_blas_threads(tmp_path, command, overrides):
    one = _csv(tmp_path / "one", command, 1, overrides)
    two = _csv(tmp_path / "two", command, 2, overrides)
    assert one == two


def test_grid_sums_independent_of_blas_threads():
    one, two = (subprocess.run([sys.executable, "-c", GRID_SUMS], env=_env(threads), check=True,
                               capture_output=True, text=True).stdout for threads in (1, 2))
    assert one.count("\n") == 5 and one == two
