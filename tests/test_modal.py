"""The cosine eigenbasis of the Neumann Laplacian and the dual CG's marches
in it: the basis reproduces the sparse Laplacian, the CG's modal
coordinates are orthonormal, ``march_T`` is the Euclidean transpose of
``march`` on modal arrays, both agree with the sparse-LU marches they
replaced, their chunked time scan agrees with the step-by-step loop it
replaced, the CG loop transforms only w's source slices, and
``solve_dual`` builds and uses no sparse factor."""

import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksctl.grid import _CosineBasis, build_grid
from ksctl.hum_control import ControlProblem, _DualSystem, _dot, solve_dual
from ksctl.ks_model import KSParams, block_step_factor, smooth_cutoff
from ksctl.weights import build_eta0, refined_weights, weight_params
from oracles import (cosine_modes_of, modal_sweep_oracle, source_terminal_march_oracle,
                     source_terminal_march_T_oracle)

BOXES = ((0.30, 0.40), (0.25, 0.45), (0.20, 0.50))


def _grid(dim, n, m):
    return build_grid(dim, 1.0 if dim == 1 else (1.0, 0.8), n, 2.4, m)


def _problem(grid, p):
    boxes = [[b] * grid.dim for b in BOXES]
    eta = build_eta0(grid, *boxes)
    x = grid.node_coords[:, 0]
    return ControlProblem(
        params=p, grid=grid,
        weights=refined_weights(eta, weight_params(grid.T, 1.5, sigma0=0.05)),
        chi=smooth_cutoff(grid, boxes[1], boxes[2]),
        z0=0.01 * np.cos(np.pi * x / grid.L[0]), w0=np.zeros(grid.num_nodes))


def _system(grid, eps):
    prob = _problem(grid, KSParams(a=10.0, b=1.0, eps=eps, M1=1.0, M2=10.0))
    return _DualSystem(prob)


def _random_pair(sys_, seed):
    """A random yhat and V, both modal arrays laid out as Z."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, 2, sys_.m + 1, sys_.nn))


@pytest.mark.parametrize("dim, n", [(1, 50), (2, (12, 10))])
def test_basis_diagonalises_laplacian(dim, n):
    grid = _grid(dim, n, 16)
    basis = grid.cosine_basis
    eye = np.eye(grid.num_nodes)
    # row i of `rebuilt` is Q diag(lam) Q^-1 e_i, column i of the Laplacian
    modes = cosine_modes_of(grid, eye)
    rebuilt = basis.apply(basis.lam * modes, np.empty_like(eye))
    A = grid.laplacian_matrix.toarray()
    assert np.abs(rebuilt - A.T).max() <= 1e-12 * np.abs(A).max()
    assert np.abs(basis.apply(modes, np.empty_like(eye)) - eye).max() <= 1e-13


def _to_modal(grid, y):
    """yhat = U y per slice, U = diag(sqrt(c/L)) Q W^1/2."""
    basis = grid.cosine_basis
    return np.sqrt(basis.inv_norm_sq) * basis.apply(np.sqrt(grid.quad_weights) * y,
                                                    np.empty_like(y))


@pytest.mark.parametrize("dim, n", [(1, 50), (2, (12, 10))])
def test_modal_coordinates_are_orthonormal(dim, n):
    grid = _grid(dim, n, 16)
    U = _to_modal(grid, np.eye(grid.num_nodes)).T   # row i of U^T is U e_i
    eye = np.eye(grid.num_nodes)
    assert np.abs(U @ U.T - eye).max() <= 1e-14
    assert np.abs(U.T @ U - eye).max() <= 1e-14
    # U's mode-0 row is sqrt(W / |domain|): the zero-mean constraint is mode 0
    assert np.allclose(U[0], np.sqrt(grid.quad_weights / grid.volume), rtol=1e-14, atol=0)


@pytest.mark.parametrize("dim, n", [(1, 50), (2, (12, 10))])
def test_dot_is_invariant_under_modal_coordinates(dim, n):
    grid = _grid(dim, n, 16)
    y = np.random.default_rng(3).standard_normal((2, grid.m + 1, grid.num_nodes))
    yhat = _to_modal(grid, y)
    assert abs(_dot(yhat, yhat) - _dot(y, y)) <= 1e-14 * _dot(y, y)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), n=st.integers(8, 16), m=st.integers(16, 24),
       eps=st.floats(1e-3, 1.0), seed=st.integers(0, 2**16))
def test_march_T_is_transpose_of_march(dim, n, m, eps, seed):
    sys_ = _system(_grid(dim, n, m), eps)
    y, V = _random_pair(sys_, seed)
    Z, yT = sys_.march(y), sys_.march_T(V)
    scale = max(np.linalg.norm(Z) * np.linalg.norm(V), np.linalg.norm(y) * np.linalg.norm(yT))
    assert abs(np.sum(Z * V) - np.sum(y * yT)) <= 1e-13 * scale


def _chunk(sys_):
    return sys_.scan[True][1].shape[2]


@settings(max_examples=25, deadline=None)
@example(dim=2, n=16, m=16, eps=0.5, seed=0)   # 289 nodes: B = 1
@example(dim=1, n=8, m=40, eps=1e-3, seed=1)   # B = 12: 4 steps, then 3 chunks
@example(dim=1, n=16, m=40, eps=1.0, seed=2)   # B = 8: 8 steps, then 4 chunks
@given(dim=st.sampled_from([1, 2]), n=st.integers(8, 16), m=st.integers(16, 40),
       eps=st.floats(1e-3, 1.0), seed=st.integers(0, 2**16))
def test_chunked_scan_matches_step_by_step_oracle(dim, n, m, eps, seed):
    sys_ = _system(_grid(dim, n, m), eps)
    y, V = _random_pair(sys_, seed)
    got = sys_.march(y), sys_.march_T(V)
    sys_._sweep = functools.partial(modal_sweep_oracle, sys_)
    want = sys_.march(y), sys_.march_T(V)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()
        if _chunk(sys_) == 1:   # the scan is then the loop, operation for operation
            assert np.array_equal(g, w)


@pytest.mark.parametrize("dim, n, m, chunk", [(1, 50, 100, 7), (2, (32, 32), 40, 1)],
                         ids=["1d-defaults", "2d-32x32"])
def test_chunk_length_rule(dim, n, m, chunk):
    assert _chunk(_system(_grid(dim, n, m), 1.0)) == chunk


@pytest.mark.parametrize("eps", [1.0, 1e-3])
@pytest.mark.parametrize("dim, n, m", [(1, 50, 100), (2, (12, 10), 20)])
def test_marches_match_sparse_lu_oracle(dim, n, m, eps):
    sys_ = _system(_grid(dim, n, m), eps)
    y, V = _random_pair(sys_, 7)
    Z, ref = sys_.march(y), source_terminal_march_oracle(sys_, y)
    assert np.abs(Z - ref).max() <= 1e-12 * np.abs(ref).max()
    yT, refT = sys_.march_T(V), source_terminal_march_T_oracle(sys_, V)
    assert np.abs(yT - refT).max() <= 1e-12 * np.abs(refT).max()


def test_singular_mode_raises():
    # M1 chosen so that det C*_k = (1 - dt l)(eps + dt b - dt l) + dt^2 a M1 l
    # is exactly zero in mode 1 of an 8-interval axis
    grid = _grid(1, 8, 16)
    dt, lam = grid.dt, grid.cosine_basis.lam[1]
    M1 = -(1.0 - dt * lam) * (1.0 + dt - dt * lam) / (dt * dt * lam)
    prob = _problem(grid, KSParams(a=1.0, b=1.0, eps=1.0, M1=M1, M2=M1))
    with pytest.raises(RuntimeError, match="singular"):
        solve_dual(prob)


def test_cg_loop_transforms_only_w_source_slices(monkeypatch):
    # the right-hand side transforms the whole (2, m+1, nodes) array once and
    # the map back to Z and L* twice; inside the CG loop every transform acts
    # on w's (m, nodes) source block, two per iteration
    grid = _grid(2, (12, 10), 20)
    prob = _problem(grid, KSParams(a=10.0, b=1.0, eps=0.5, M1=1.0, M2=10.0))
    shapes = []

    def spy(self, x, out, _apply=_CosineBasis.apply):
        shapes.append(x.shape)
        return _apply(self, x, out)

    monkeypatch.setattr(_CosineBasis, "apply", spy)
    dual = solve_dual(prob)
    assert dual.converged and dual.iterations > 0
    whole, block = (2, grid.m + 1, grid.num_nodes), (grid.m, grid.num_nodes)
    assert shapes == [whole] + [block] * (2 * dual.iterations) + [whole] * 2


def test_solve_dual_makes_no_sparse_solve(monkeypatch):
    calls = {"splu": 0, "solve": 0}

    class CountedLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, *args, **kwargs):
            calls["solve"] += 1
            return self.lu.solve(*args, **kwargs)

    def counted_splu(*args, _f=spla.splu, **kwargs):
        calls["splu"] += 1
        return CountedLU(_f(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", counted_splu)
    grid = _grid(1, 24, 40)
    prob = _problem(grid, KSParams(a=10.0, b=1.0, eps=1.0, M1=1.0, M2=10.0))
    block_step_factor(prob.params, grid, True)   # a cached factor is there to be used
    calls.update(splu=0, solve=0)
    dual = solve_dual(prob)
    assert dual.converged and dual.iterations > 0
    assert calls == {"splu": 0, "solve": 0}
