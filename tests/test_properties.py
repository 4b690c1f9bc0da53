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
  meets the forward march only to the CG's stopping residual;
* a list of 1-5 runs, each lagged, implicit or elliptic with its own eps
  and smooth control, marched in stacks of a drawn number of runs
  (``STACK_NNZ``) on a 1D grid of 4-60 intervals and length 0.5-1 or a 2D
  grid of 3-14 intervals per axis, gives each run its own single march's
  bits;
* the Carleman audit's reports, at any ``STACK_BYTES`` and over an s-scan
  of 1-4 entries, equal the reports made one sample and one s at a time,
  bit for bit; and an s whose profile has an extra -inf step gets its own
  kept entries in the scan, and equals its own single-profile integral.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksctl import carleman_check, ks_model
from ksctl.adjoint import solve_adjoint
from ksctl.carleman_check import (_scan, adjoint_reports, lemmaA1_report,
                                  log_space_time_integral, sample_space_time, weight_families)
from ksctl.grid import Grid, build_grid, mass
from ksctl.hum_control import ControlProblem, extract_control, solve_dual
from ksctl.ks_model import (Control, KSParams, StateTrajectory, _density_factor,
                            _density_pattern, _DensityPattern, block_step_factor, heat_factor,
                            smooth_cutoff, solve_forward_pp, solve_linearized)
from ksctl.weights import build_eta0, log_weight_profile, refined_weights, weight_params

from conftest import lowfreq_field, lowfreq_space_time
from oracles import duality_terms, elliptic_march_oracle, single_march_oracle

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
            solve_forward_pp(p, u0, v0, c, grid, coupling="elliptic"))


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


@PROPERTY
@given(data=st.data(), m=st.integers(16, 24), seed=SEED,
       runs=st.lists(st.tuples(st.sampled_from(["lagged", "implicit", "elliptic"]),
                               st.floats(1e-3, 1.0)), min_size=1, max_size=5))
def test_density_stacks_equal_their_runs_one_at_a_time(data, m, seed, runs):
    # the marches take grids coarser than build_grid's 8 intervals per axis;
    # with L <= 1 every nonzero Laplacian eigenvalue l of these grids has
    # a M1 <= b + l, so (M1, M2) grows no mode and no run fails on its own
    if data.draw(st.sampled_from([1, 2]), label="dim") == 1:
        grid = Grid(1, (data.draw(st.floats(0.5, 1.0), label="L"),),
                    (data.draw(st.integers(4, 60), label="n"),), 1.0, m)
    else:
        grid = Grid(2, (1.0, 0.8), data.draw(st.tuples(*[st.integers(3, 14)] * 2),
                                             label="n"), 1.0, m)
    p = KSParams(a=10.0, b=1.0, eps=1.0, M1=1.0, M2=10.0)
    chi = smooth_cutoff(grid, [[0.25, 0.45]] * grid.dim, [[0.20, 0.50]] * grid.dim)
    rng = np.random.default_rng(seed)
    u0 = p.M1 + 0.05 * _unit(lowfreq_field(grid, rng))
    v0 = p.M2 + 0.5 * _unit(lowfreq_field(grid, rng))
    kinds = [kind for kind, _ in runs]
    ps = [dataclasses.replace(p, eps=eps) for _, eps in runs]
    cs = [Control(g=0.1 * _unit(lowfreq_space_time(grid, rng)), chi=chi) for _ in runs]
    per_stack = data.draw(st.integers(1, len(runs)), label="runs per stack")
    with mock.patch.object(ks_model, "STACK_NNZ", per_stack * heat_factor(grid).nnz):
        got = solve_forward_pp(ps, u0, v0, cs, grid, kinds)
    for t, kind, q, c in zip(got, kinds, ps, cs):
        want = (elliptic_march_oracle(q, u0, c, grid) if kind == "elliptic"
                else single_march_oracle(q, u0, v0, c, grid, kind == "implicit"))
        assert t.params is q
        assert np.array_equal(t.u, want.u) and np.array_equal(t.v, want.v)


@PROPERTY
@given(data=st.data(), m=st.integers(16, 24), seed=SEED,
       runs=st.lists(st.tuples(st.sampled_from(["lagged", "implicit"]), st.floats(1e-3, 1.0),
                               st.floats(0.0, 3.0)), min_size=1, max_size=4),
       maxit=st.one_of(st.just(ks_model.INNER_MAXIT), st.integers(2, 12)))
def test_a_stack_raises_the_failure_its_runs_predict(data, m, seed, runs, maxit):
    # BLOWUP_CAP drawn just below one of the runs' own step peaks, and
    # INNER_MAXIT drawn low or left: each run fails on its own or not.  On
    # domains up to twice as long as the other properties', modes grow, so
    # the peaks rise over the steps.  Marched in stacks of a drawn number of
    # runs, the first stack that holds a failure raises the error that its
    # lowest-index run among those failing at its earliest failing step
    # raised on its own: same class, step and message
    L = data.draw(st.floats(1.0, 2.0), label="L")
    if data.draw(st.sampled_from([1, 2]), label="dim") == 1:
        grid = Grid(1, (L,), (data.draw(st.integers(8, 40), label="n"),), 1.0, m)
    else:
        grid = Grid(2, (L, 0.8 * L), data.draw(st.tuples(*[st.integers(6, 10)] * 2),
                                               label="n"), 1.0, m)
    p = KSParams(a=10.0, b=1.0, eps=1.0, M1=1.0, M2=10.0)
    chi = smooth_cutoff(grid, [[0.25 * L, 0.45 * L]] * grid.dim, [[0.20 * L, 0.50 * L]] * grid.dim)
    rng = np.random.default_rng(seed)
    u0 = p.M1 + 0.05 * _unit(lowfreq_field(grid, rng))
    v0 = p.M2 + 0.5 * _unit(lowfreq_field(grid, rng))
    ps = [dataclasses.replace(p, eps=eps) for _, eps, _ in runs]
    cs = [Control(g=amp * rng.standard_normal((m + 1, grid.num_nodes)), chi=chi)
          for _, _, amp in runs]
    kinds = [kind for kind, _, _ in runs]
    failures = (ks_model.InnerIterationError, ks_model.BlowUpError)

    def alone(q, c, kind):
        return single_march_oracle(q, u0, v0, c, grid, kind == "implicit")

    peaks = []   # the step peaks of the runs that stay below 2, where none overflows
    with mock.patch.object(ks_model, "BLOWUP_CAP", 2.0):
        for q, c, kind in zip(ps, cs, kinds):
            try:
                peaks += np.abs(alone(q, c, kind).u[1:]).max(axis=1).tolist()
            except failures:
                pass
    cap = np.nextafter(data.draw(st.sampled_from(sorted(set(peaks)) or [2.0]), label="peak"), 0)
    per_stack = data.draw(st.integers(1, len(runs)), label="runs per stack")
    with mock.patch.object(ks_model, "BLOWUP_CAP", cap), \
            mock.patch.object(ks_model, "INNER_MAXIT", maxit), \
            mock.patch.object(ks_model, "STACK_NNZ", per_stack * heat_factor(grid).nnz):
        errors = []
        for q, c, kind in zip(ps, cs, kinds):
            try:
                alone(q, c, kind)
                errors.append(None)
            except failures as err:
                errors.append(err)
        # the cap fails at least the run whose peak it was drawn below
        stacks = (errors[i:i + per_stack] for i in range(0, len(runs), per_stack))
        want = next(min((e for e in stack if e), key=lambda e: e.step)
                    for stack in stacks if any(stack))
        with pytest.raises(RuntimeError) as got:
            solve_forward_pp(ps, u0, v0, cs, grid, kinds)
    assert type(got.value) is type(want)
    assert got.value.step == want.step and str(got.value) == str(want)


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
            (_chemical_factor(lambda: solve_forward_pp(p, u0, v0, c, grid, "elliptic")),
             [p.b * I - A]),
            (_chemical_factor(lambda: solve_forward_pp([p, p], u0, v0, [c, c], grid,
                                                       ["lagged", "elliptic"])),
             [p.eps * I - dt * A + dt * p.b * I, p.b * I - A])]:   # simulate's pair
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


def _audit(grid, p, chi, s_list, eps_list, n_samples, seed):
    """The thm2.2 reports (one per eps), the lem3.1 and the lemA.1 report."""
    eta = build_eta0(grid, *(((lo_hi,) * grid.dim) for lo_hi in
                             ((0.30, 0.40), (0.25, 0.45), (0.20, 0.50))))
    alpha, beta = weight_families(eta, s_list, 1.5)
    thm, lem = adjoint_reports(p, alpha, beta, eta, chi, eps_list, n_samples, seed)
    return [*thm, lem, lemmaA1_report(alpha, eta, n_samples, seed)]


def _rows(reports) -> dict:
    """Every row's bits, by (report, eps, s, sample); and the falsifications."""
    return {(r, row["eps"], row["s"], row["sample_id"]):
            np.array(list(row.values()), dtype=float).tobytes()
            for r, rep in enumerate(reports) for row in rep.rows}, sorted(
        (r, f["eps"], f["s"], f["sample_id"]) for r, rep in enumerate(reports)
        for f in rep.falsifications)


@PROPERTY
@given(dim=CASES["dim"], n=CASES["n"], m=CASES["m"], data=st.data(),
       s_factors=st.lists(st.sampled_from([0.02, 0.05, 0.2, 1.0]), min_size=1, max_size=4,
                          unique=True),
       eps_list=st.lists(st.sampled_from([1e-3, 0.1, 1.0]), min_size=1, max_size=2, unique=True),
       n_samples=st.integers(1, 5), seed=SEED)
def test_carleman_stacks_and_scans_equal_one_sample_and_one_s_at_a_time(
        dim, n, m, data, s_factors, eps_list, n_samples, seed):
    grid, p, chi = _setup(dim, n, m, 1.0)
    s_list = [f * (grid.T**4 + grid.T**8) for f in s_factors]
    sample_bytes = (grid.m + 1) * grid.num_nodes * 8
    stack_bytes = data.draw(st.integers(1, 6 * sample_bytes), label="STACK_BYTES")
    with mock.patch.object(carleman_check, "STACK_BYTES", stack_bytes):
        got = _rows(_audit(grid, p, chi, s_list, eps_list, n_samples, seed))
    with mock.patch.object(carleman_check, "STACK_BYTES", 1):   # stacks of one sample
        alone = [_rows(_audit(grid, p, chi, [s], eps_list, n_samples, seed)) for s in s_list]
    assert got[0] == {k: v for rows, _ in alone for k, v in rows.items()}
    assert len(got[0]) == len(s_list) * n_samples * (2 * len(eps_list) + 1)
    assert got[1] == sorted(f for _, falsified in alone for f in falsified)


def test_an_s_with_another_finite_mask_is_gathered_on_its_own(grid_2d):
    # the middle s's profiles lose one more step (-inf): its finite mask is
    # its own, so the scan gathers its kept entries apart, and every s still
    # equals its single-profile integral
    eta = build_eta0(grid_2d, ((0.30, 0.40),) * 2, ((0.25, 0.45),) * 2, ((0.20, 0.50),) * 2)
    s_list = [f * (grid_2d.T**4 + grid_2d.T**8) for f in (0.02, 0.05, 0.2)]

    def profile(table, kind, power):
        out = log_weight_profile(table, kind, power)
        if table.params.s == s_list[1]:
            out[grid_2d.m // 2] = -np.inf
        return out

    rng = np.random.default_rng(3)
    sq = np.stack([sample_space_time(grid_2d, rng) ** 2 for _ in range(3)])
    mixed = sq.copy()
    mixed[rng.random(sq.shape) < 0.2] = 0.0
    with mock.patch.object(carleman_check, "log_weight_profile", profile):
        alpha, beta = weight_families(eta, s_list, 1.5)
        for family, kind, power in ((alpha, "alpha", 3.0), (beta, "beta_star", 10.0)):
            keys = [set() for _ in family]   # each s's kept patterns so far
            for stack in (sq, mixed):
                got = _scan(family, 3.0, kind, power, stack)
                for row, entry, met in zip(got, family, keys):
                    w, finite, digests = entry.profile(kind, power)
                    want = [3.0 * entry.logs + log_space_time_integral(w, one, entry.table)
                            for one in stack]
                    assert row.tobytes() == np.array(want).tobytes()
                    met |= {np.packbits((entry.table.space_time_weights * one > 0.0)
                                        & finite).tobytes() for one in stack}
                    assert set(digests) == met
            first, middle, last = (entry.profile(kind, power)[1] for entry in family)
            assert last is first and middle is not first
            assert middle.sum() < first.sum()
