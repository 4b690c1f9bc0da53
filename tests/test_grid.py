import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksctl
from ksctl.grid import (
    ConfigError,
    build_grid,
    chemotaxis_divergence,
    h1_seminorm_sq,
    inner,
    l2_norm,
    l2_sq,
    mass,
    neumann_laplacian,
)
from oracles import face_flux_laplacian


def test_build_grid_1d_spacing():
    g = build_grid(1, 1.0, 100, 1.0, 200)
    assert g.h == (0.01,)
    assert g.dt == 0.005
    assert g.num_nodes == 101


def test_build_grid_2d_node_count():
    g = build_grid(2, (1, 1), (32, 32), 0.5, 64)
    assert g.shape == (33, 33)
    assert g.num_nodes == 33 * 33


@pytest.mark.parametrize(
    "args",
    [
        (1, 1.0, 4, 1.0, 200),     # n below minimum
        (1, 1.0, 100, 1.0, 8),     # m below minimum
        (3, 1.0, 100, 1.0, 200),   # dim outside {1,2}
        (1, -1.0, 100, 1.0, 200),  # negative length
        (1, 1.0, 100, -1.0, 200),  # negative final time
        (1, 1.0, 50.7, 2.4, 100),  # non-integer n
        (1, 1.0, 50, 2.4, 100.5),  # non-integer m
        (2, 1.0, (20, 20.5), 2.4, 100),   # one non-integer axis
    ],
)
def test_build_grid_rejects(args):
    with pytest.raises(ValueError):
        build_grid(*args)


@pytest.mark.parametrize("n, m, violations", [
    (50.7, 100.5, ["n must be an integer per axis", "m must be an integer"]),
    (50.0, 100.0, []),   # an integral float is its integer
    (math.nan, 100, ["n must be at least 8 intervals per axis"]),
    (50, math.nan, ["m must be at least 16 time steps"]),
])
def test_build_grid_names_a_non_integer_size(n, m, violations):
    # a fractional n or m is named, never truncated to a smaller grid
    if violations:
        with pytest.raises(ConfigError) as err:
            build_grid(1, 1.0, n, 2.4, m)
        assert err.value.violations == violations
    else:
        grid = build_grid(1, 1.0, n, 2.4, m)
        assert (grid.n, grid.m) == ((50,), 100)


@pytest.mark.parametrize("name", ["axes", "times", "node_coords", "quad_weights", "faces"])
def test_geometry_is_built_once_and_read_only(name):
    g = build_grid(2, (1.0, 0.8), (12, 9), 1.0, 20)
    first = getattr(g, name)
    assert getattr(g, name) is first
    if name == "faces":
        first = [a for f in first for a in (f.left, f.right, f.cw)]
    for a in (first if name in ("axes", "faces") else (first,)):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_import_ignores_backend_variable():
    # there is one array backend; a stale selector must not break the import
    src = str(Path(ksctl.__file__).resolve().parents[1])
    env = dict(os.environ, KSCTL_BACKEND="bogus",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", "import ksctl"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_laplacian_annihilates_constants():
    g = build_grid(1, 1.0, 50, 1.0, 20)
    out = neumann_laplacian(np.full(g.num_nodes, 3.7), g)
    assert np.all(out == 0.0)


def test_laplacian_second_order_1d():
    errs = []
    for n in (100, 200):
        g = build_grid(1, 1.0, n, 1.0, 20)
        x = g.axes[0]
        f = np.cos(np.pi * x)
        errs.append(np.abs(neumann_laplacian(f, g) + np.pi**2 * f).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_laplacian_second_order_2d():
    errs = []
    for n in (16, 32):
        g = build_grid(2, (1.0, 1.0), (n, n), 1.0, 20)
        pts = g.node_coords
        f = np.cos(np.pi * pts[:, 0]) * np.cos(2 * np.pi * pts[:, 1])
        errs.append(np.abs(neumann_laplacian(f, g) + 5 * np.pi**2 * f).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_self_adjoint(dim):
    g = build_grid(dim, 1.0 if dim == 1 else (1.0, 0.8), 24, 1.0, 20)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.num_nodes)
    h = rng.standard_normal(g.num_nodes)
    gap = abs(inner(neumann_laplacian(f, g), h, g) - inner(f, neumann_laplacian(h, g), g))
    assert gap < 1e-12 * max(1.0, abs(inner(f, h, g)))


def test_laplacian_matrix_matches_kernel():
    # the matrix apply against the face table's flux divergence
    g = build_grid(2, (1.0, 1.0), (10, 14), 1.0, 20)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.num_nodes)
    assert np.abs(neumann_laplacian(f, g) - face_flux_laplacian(f, g)).max() < 1e-12


def test_chemotaxis_zero_for_constant_v():
    g = build_grid(1, 1.0, 40, 1.0, 20)
    u = np.random.default_rng(0).standard_normal(g.num_nodes)
    out = chemotaxis_divergence(u, np.full(g.num_nodes, 2.0), g)
    assert np.all(out == 0.0)


def test_chemotaxis_constant_u_reduces_to_laplacian():
    g = build_grid(1, 1.0, 200, 1.0, 20)
    x = g.axes[0]
    v = np.cos(np.pi * x)
    u = np.full(g.num_nodes, 2.0)
    out = chemotaxis_divergence(u, v, g)
    # exactly 2 * the face-flux Laplacian, hence within O(h^2) of the analytic one
    assert np.abs(out - 2.0 * face_flux_laplacian(v, g)).max() < 1e-11
    assert np.abs(out + 2.0 * np.pi**2 * v).max() < 2e-3


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_chemotaxis_mass_free_property(seed):
    g = build_grid(1, 1.0, 32, 1.0, 20)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(g.num_nodes)
    v = rng.standard_normal(g.num_nodes)
    assert abs(mass(chemotaxis_divergence(u, v, g), g)) < 1e-13 * (
        1.0 + np.abs(u).max() * np.abs(v).max()
    )


def test_chemotaxis_mass_free_2d():
    g = build_grid(2, (1.0, 1.0), (11, 13), 1.0, 20)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(g.num_nodes)
    v = rng.standard_normal(g.num_nodes)
    assert abs(mass(chemotaxis_divergence(u, v, g), g)) < 1e-13


def test_stacked_weighted_sums_equal_single_slice_calls_at_12321_nodes():
    # 111 x 111 nodes: BLAS ddot and the two-operand einsum round a row of a
    # stack differently above 8,192 entries; grid.inner's three operands do not
    g = build_grid(2, (1.0, 1.0), (110, 110), 1.0, 16)
    f, h = np.random.default_rng(3).standard_normal((2, 3, 4, g.num_nodes))
    rows = [(i, k) for i in range(3) for k in range(4)]
    assert np.array_equal(mass(f, g).ravel(), [mass(f[r], g) for r in rows])
    assert np.array_equal(inner(f, h, g).ravel(), [inner(f[r], h[r], g) for r in rows])
    for op in (l2_sq, l2_norm, h1_seminorm_sq):   # on strided rows
        assert np.array_equal(op(f[:, 1], g), [op(f[i, 1], g) for i in range(3)])


def test_mass_examples():
    g = build_grid(1, 1.0, 64, 1.0, 20)
    assert mass(np.full(g.num_nodes, 2.0), g) == pytest.approx(2.0, abs=1e-14)
    assert mass(g.axes[0], g) == pytest.approx(0.5, abs=1e-12)
    assert mass(np.zeros(g.num_nodes), g) == 0.0


def test_chemotaxis_second_order_vs_analytic():
    errs = []
    for n in (100, 200):
        g = build_grid(1, 1.0, n, 1.0, 20)
        x = g.axes[0]
        u = 1.0 + 0.3 * np.cos(np.pi * x)
        v = np.cos(2 * np.pi * x)
        analytic = u * (-4 * np.pi**2 * np.cos(2 * np.pi * x)) + (
            -0.3 * np.pi * np.sin(np.pi * x)) * (-2 * np.pi * np.sin(2 * np.pi * x))
        errs.append(np.abs(chemotaxis_divergence(u, v, g) - analytic).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)
