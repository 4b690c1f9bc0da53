"""Properties of the sparse marches over dim 1 and 2, 8-16 intervals per
axis, 16-32 time steps and eps in [1e-3, 1]:

* ``solve_linearized`` and ``solve_adjoint`` satisfy the discrete
  transposition identity to 1e-10 of the size of its terms;
* one C* solve is W_b^-1 C^-T W_b, W_b = diag(W, W), to 1e-12 relative;
* the lagged and implicit couplings and the parabolic-elliptic limit
  conserve the density's mass to 1e-12 relative;
* the constant state (M1, M2) stays fixed under all three, and its
  fluctuation (zero) under the linearized march;
* every factor on the density pattern, laid out once per grid in its
  column order, solves bit for bit, block by block, as a plain ``splu`` in
  grid order: M(v) for v of amplitude 1e-3 to 1e3 (large enough to force
  off-diagonal pivots), the v step of a stack of three eps and the elliptic
  b I - A; and that order is SuperLU's own for each;
* the dual solve's extracted terminal density is tau times its terminal
  z slice, and that slice has zero weighted mean, both to roundoff;
* the extracted state, under its control and a mean-free source, satisfies
  the transposition identity with an independent adjoint march to 1e-10 of
  the size of its terms: an expected failure, since the extracted state
  meets the forward march only to the CG's stopping residual.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksctl.adjoint import solve_adjoint
from ksctl.grid import build_grid, mass
from ksctl.hum_control import ControlProblem, extract_control, solve_dual
from ksctl.ks_model import (Control, KSParams, StateTrajectory, _density_factor,
                            _density_pattern, _DensityPattern, block_step_factor, smooth_cutoff,
                            solve_forward_pe, solve_forward_pp, solve_linearized)
from ksctl.weights import build_eta0, refined_weights, weight_params

from conftest import lowfreq_field, lowfreq_space_time
from oracles import duality_terms

CASES = {"dim": st.sampled_from([1, 2]), "n": st.integers(8, 16),
         "m": st.integers(16, 32), "eps": st.floats(1e-3, 1.0)}
SEED = st.integers(0, 2**16)
PROPERTY = settings(max_examples=25, deadline=None)


def _setup(dim, n, m, eps):
    grid = build_grid(dim, 1.0 if dim == 1 else (1.0, 0.8), n, 1.0, m)
    p = KSParams(a=10.0, b=1.0, eps=eps, M1=1.0, M2=10.0)
    chi = smooth_cutoff(grid, [[0.25, 0.45]] * dim, [[0.20, 0.50]] * dim)
    return grid, p, chi


def _unit(f):
    return f / np.abs(f).max()


def _nonlinear_marches(p, u0, v0, c, grid):
    return (solve_forward_pp(p, u0, v0, c, grid),
            solve_forward_pp(p, u0, v0, c, grid, coupling="implicit"),
            solve_forward_pe(p, u0, c, grid))


@PROPERTY
@given(**CASES, seed=SEED)
def test_linearized_and_adjoint_marches_are_transposes(dim, n, m, eps, seed):
    grid, p, chi = _setup(dim, n, m, eps)
    rng = np.random.default_rng(seed)
    h1 = lowfreq_space_time(grid, rng, zero_mean=True)
    h2 = lowfreq_space_time(grid, rng)
    c = Control(g=lowfreq_space_time(grid, rng), chi=chi)
    primal = solve_linearized(p, lowfreq_field(grid, rng, zero_mean=True),
                              lowfreq_field(grid, rng), c, h1, h2, grid)
    phiT, xiT = lowfreq_field(grid, rng, zero_mean=True), lowfreq_field(grid, rng)
    f1, f2 = lowfreq_space_time(grid, rng), lowfreq_space_time(grid, rng)
    adj = solve_adjoint(p, phiT, xiT, f1, f2, grid)
    lhs, rhs, scale = duality_terms(primal, adj, c, h1, h2, f1, f2)
    assert abs(lhs - rhs) <= 1e-10 * scale


@PROPERTY
@given(**CASES, seed=SEED)
def test_adjoint_step_is_the_weighted_transpose(dim, n, m, eps, seed):
    grid, p, _ = _setup(dim, n, m, eps)
    r = np.random.default_rng(seed).standard_normal(2 * grid.num_nodes)
    Wb = np.tile(grid.quad_weights, 2)
    got = block_step_factor(p, grid, True).solve(r)
    want = block_step_factor(p, grid, False).solve(Wb * r, trans="T") / Wb
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@PROPERTY
@given(**CASES, seed=SEED)
def test_density_mass_is_conserved(dim, n, m, eps, seed):
    grid, p, chi = _setup(dim, n, m, eps)
    rng = np.random.default_rng(seed)
    u0 = p.M1 + 0.05 * _unit(lowfreq_field(grid, rng))
    v0 = p.M2 + 0.5 * _unit(lowfreq_field(grid, rng))
    c = Control(g=0.1 * _unit(lowfreq_space_time(grid, rng)), chi=chi)
    m0 = mass(u0, grid)
    for traj in _nonlinear_marches(p, u0, v0, c, grid):
        assert max(abs(mass(u, grid) - m0) for u in traj.u) <= 1e-12 * m0


@PROPERTY
@given(**CASES)
def test_constant_state_stays_fixed(dim, n, m, eps):
    grid, p, chi = _setup(dim, n, m, eps)
    c = Control.zero(grid, chi)
    u0, v0 = np.full(grid.num_nodes, p.M1), np.full(grid.num_nodes, p.M2)
    for traj in _nonlinear_marches(p, u0, v0, c, grid):
        assert np.abs(traj.u - p.M1).max() <= 1e-12 * p.M1
        assert np.abs(traj.v - p.M2).max() <= 1e-12 * p.M2
    zero = np.zeros(grid.num_nodes)
    lin = solve_linearized(p, zero, zero, c, None, None, grid)
    assert not lin.u.any() and not lin.v.any()


class _Factored(Exception):
    """Carries a pattern factor out of the march that made it."""


def _chemical_factor(march):
    """The first factor ``march()`` makes on the density pattern: its chemical
    solve's, made once before the first step."""
    factor = _DensityPattern.factor

    def first(pat, data):
        raise _Factored(factor(pat, data))

    with mock.patch.object(_DensityPattern, "factor", first), pytest.raises(_Factored) as made:
        march()
    return made.value.args[0]


@PROPERTY
@given(dim=CASES["dim"], n=CASES["n"], m=CASES["m"], log_amp=st.floats(-3.0, 3.0),
       seed=SEED)
def test_density_factor_on_the_grid_order_is_plain_splu(dim, n, m, log_amp, seed):
    grid, p, chi = _setup(dim, n, m, 1.0)
    nn, dt, A = grid.num_nodes, grid.dt, grid.laplacian_matrix
    I = sp.identity(nn, format="csr")
    rng = np.random.default_rng(seed)
    v = 10.0 ** log_amp * rng.standard_normal(nn)
    pat = _density_pattern(grid)   # M(v) back in grid order
    ps = [dataclasses.replace(p, eps=eps) for eps in (1.0, 0.1, 1e-3)]
    u0, v0, c = np.full(nn, p.M1), np.full(nn, p.M2), Control.zero(grid, chi)
    # each pattern factor against a plain splu of each of its blocks in grid order
    for got, blocks in [
            (_density_factor(v, grid),
             [sp.csc_matrix((pat.eye - dt * (pat.lap - pat.chem_data(v)), pat.indices,
                            pat.indptr))[:, pat.perm_c]]),
            (_chemical_factor(lambda: solve_forward_pp(ps, u0, v0, [c] * 3, grid)),
             [q.eps * I - dt * A + dt * q.b * I for q in ps]),   # the v step of a stack
            (_chemical_factor(lambda: solve_forward_pe(p, u0, c, grid)), [p.b * I - A])]:
        b = rng.standard_normal(len(blocks) * nn)
        assert np.array_equal(got.lu.perm_c, np.arange(b.size))
        x, perm = (a.reshape(len(blocks), nn) for a in (got.solve(b), got.perm_c))
        for e, block in enumerate(blocks):
            plain = spla.splu(block.tocsc())
            assert np.array_equal(x[e], plain.solve(b[e * nn:(e + 1) * nn]))
            assert np.array_equal(perm[e] - e * nn, plain.perm_c)


def _control_problem(dim, n, m, eps, rng, source=0.0):
    # T = 2.4 keeps the weight families within the dual solve's working range
    grid = build_grid(dim, 1.0 if dim == 1 else (1.0, 0.8), n, 2.4, m)
    boxes = [[b] * dim for b in ((0.30, 0.40), (0.25, 0.45), (0.20, 0.50))]
    return ControlProblem(
        params=KSParams(a=10.0, b=1.0, eps=eps, M1=1.0, M2=10.0), grid=grid,
        weights=refined_weights(build_eta0(grid, *boxes),
                                weight_params(grid.T, 1.5, sigma0=0.05)),
        chi=smooth_cutoff(grid, boxes[1], boxes[2]),
        z0=0.01 * _unit(lowfreq_field(grid, rng, zero_mean=True)),
        w0=0.01 * _unit(lowfreq_field(grid, rng)),
        h1=source * lowfreq_space_time(grid, rng, zero_mean=True) if source else None)


@PROPERTY
@given(**CASES, seed=SEED)
def test_dual_terminal_slice_is_tau_times_zhat(dim, n, m, eps, seed):
    prob = _control_problem(dim, n, m, eps, np.random.default_rng(seed))
    grid = prob.grid
    dual = solve_dual(prob)
    res = extract_control(dual, prob)
    zT = dual.zhat[-1]
    # uhat[-1] is of order tau, so roundoff is measured on the trajectory's scale
    gap = np.abs(res.uhat[-1] - prob.settings.tau * zT).max()
    assert gap <= 1e-14 * np.abs(res.uhat).max()
    assert abs(zT @ grid.quad_weights) <= 1e-14 * grid.volume * np.abs(zT).max()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the extracted state rho F solves the forward march only to the dual CG's "
    "stopping residual: at cg_tol = 1e-12 its gap reaches 7.8e-10 of the scale "
    "(14 of 216 scanned cases above 1e-10), the marched state's 1.5e-14"))
@PROPERTY
@example(dim=1, n=8, m=16, eps=1e-3, seed=1)
@given(**CASES, seed=SEED)
def test_extracted_control_satisfies_the_transposition_identity(dim, n, m, eps, seed):
    # the extracted state, driven by its control and a mean-free source of the
    # size of the Picard remainders, paired with an independent adjoint march
    rng = np.random.default_rng(seed)
    prob = _control_problem(dim, n, m, eps, rng, source=1e-3)
    grid = prob.grid
    res = extract_control(solve_dual(prob), prob)
    primal = StateTrajectory(u=res.uhat, v=res.vhat, params=prob.params, grid=grid)
    phiT, xiT = lowfreq_field(grid, rng, zero_mean=True), lowfreq_field(grid, rng)
    f1, f2 = lowfreq_space_time(grid, rng), lowfreq_space_time(grid, rng)
    adj = solve_adjoint(prob.params, phiT, xiT, f1, f2, grid)
    lhs, rhs, scale = duality_terms(primal, adj, res.control, prob.h1, None, f1, f2)
    assert abs(lhs - rhs) <= 1e-10 * scale
