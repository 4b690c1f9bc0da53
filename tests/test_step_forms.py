"""Every form of a step operator agrees with its hand-written reference.

The linearized step C = P0 I + P1 A and its adjoint C* = P0^T I + P1^T A
take their coefficients from ``ks_model.linearized_step``.  The sparse
matrices the block marches factor equal the hand-written ``bmat`` of
``oracles.block_step_oracle`` bit for bit; the 2x2 blocks per cosine mode,
applied through the cosine basis, and ``apply_L``'s residual agree with its
product to a few ulps, and the dual CG's modal inverses invert those blocks.

The per-axis second difference ``neumann_laplacian(f, grid, axis)`` agrees
with the ghost-rule stencil of ``oracles.axis_second_oracle``, and its sum
over the axes with the Laplacian's one apply.
"""

import numpy as np
import pytest

from ksctl import grid as grid_mod
from ksctl.grid import build_grid, neumann_laplacian
from ksctl.hum_control import ControlProblem, _DualSystem, apply_L
from ksctl.ks_model import KSParams, block_step_factor, linearized_step, smooth_cutoff
from ksctl.weights import build_eta0, refined_weights, weight_params
from oracles import axis_second_oracle, block_step_oracle, cosine_modes_of

ULP = np.finfo(float).eps
BOXES = ((0.30, 0.40), (0.25, 0.45), (0.20, 0.50))
GRIDS = {
    "1d": (1, 1.0, 50, 2.4, 100),
    "2d": (2, (1.0, 1.0), (12, 10), 2.4, 20),
    "2d-anisotropic": (2, (1.0, 2.0), (8, 12), 2.4, 16),
}
AXIS_GRIDS = {
    "1d": (1, 1.0, 50, 2.4, 16),
    "2d-32": (2, (1.0, 1.0), (32, 32), 2.4, 16),
    "2d-anisotropic": (2, (1.0, 2.0), (8, 12), 2.4, 16),
}


def _params(eps):
    return KSParams(a=10.0, b=1.0, eps=eps, M1=1.0, M2=10.0)


def _dual_system(grid, p):
    # the default control boxes, scaled to each axis's length
    boxes = [[(lo * L, hi * L) for L in grid.L] for lo, hi in BOXES]
    eta = build_eta0(grid, *boxes)
    return _DualSystem(ControlProblem(
        params=p, grid=grid, weights=refined_weights(eta, weight_params(grid.T, 1.5, sigma0=0.05)),
        chi=smooth_cutoff(grid, boxes[1], boxes[2]), z0=np.zeros(grid.num_nodes),
        w0=np.zeros(grid.num_nodes)))


@pytest.mark.parametrize("adjoint", [False, True], ids=["C", "C*"])
@pytest.mark.parametrize("eps", [1.0, 1e-3])
@pytest.mark.parametrize("args", GRIDS.values(), ids=GRIDS.keys())
def test_step_forms_agree_with_the_hand_written_block_matrix(args, eps, adjoint, monkeypatch):
    grid, p = build_grid(*args), _params(eps)
    nn, ref = grid.num_nodes, block_step_oracle(p, grid, adjoint)
    # the sparse form: the matrix the factor cache would factor, bit for bit
    monkeypatch.setattr(grid_mod.Grid, "factor", lambda self, key, build: build())
    got = block_step_factor(p, grid, adjoint)
    assert got.format == "csc" and got.shape == ref.shape
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(ref, part)), part
    # the modal form: one 2x2 block per eigenvalue, through the cosine basis
    D, P0, P1 = linearized_step(p, grid.dt)
    P0, P1 = (P0.T, P1.T) if adjoint else (P0, P1)
    c = P0[..., None] + P1[..., None] * grid.cosine_basis.lam
    X = np.random.default_rng(3).standard_normal((2, nn))
    want = (ref @ X.ravel()).reshape(2, nn)
    modes = np.einsum("ijn,jn->in", c, cosine_modes_of(grid, X))
    modal = grid.cosine_basis.apply(modes, np.empty_like(modes))
    assert np.abs(modal - want).max() <= 16 * ULP * np.abs(want).max()
    # the dual CG's inverse of those blocks (C*^-1, transposed for C)
    inv = _dual_system(grid, p).inv
    inv = inv if adjoint else inv.transpose(1, 0, 2)
    eye = np.einsum("ijn,jkn->ikn", inv, c)
    bound = 8 * ULP * np.abs(inv).max(axis=(0, 1)) * np.abs(c).max(axis=(0, 1))
    assert np.all(np.abs(eye - np.eye(2)[..., None]) <= bound)
    if not adjoint:   # the matrix-free residual: dt L + D X^{k-1} = C X^k
        prev = np.random.default_rng(4).standard_normal((2, nn))
        L1, L2 = apply_L(*np.stack([prev, X], axis=1), p, grid)
        residual = grid.dt * np.concatenate([L1, L2]) + D[:, None] * prev
        assert np.abs(residual - want).max() <= 8 * ULP * np.abs(want).max()


@pytest.mark.parametrize("args", AXIS_GRIDS.values(), ids=AXIS_GRIDS.keys())
def test_axis_second_differences_are_the_grid_laplacian_per_axis(args):
    grid = build_grid(*args)
    f = np.random.default_rng(5).standard_normal((3, grid.num_nodes))
    per_axis = [neumann_laplacian(f, grid, ax) for ax in range(grid.dim)]
    for ax, got in enumerate(per_axis):
        scale = np.abs(f).max() / grid.h[ax] ** 2
        assert np.abs(got - axis_second_oracle(f, grid, ax)).max() <= 8 * ULP * scale
    # summed over the axes: the Laplacian's one apply, exactly in 1D (one term)
    total, full = sum(per_axis[1:], per_axis[0]), neumann_laplacian(f, grid)
    if grid.dim == 1:
        assert np.array_equal(total, full)
    else:
        scale = np.abs(f).max() * sum(h ** -2 for h in grid.h)
        assert np.abs(total - full).max() <= 8 * ULP * scale
