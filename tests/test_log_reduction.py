"""The numpy log-domain reduction against scipy.special.logsumexp, and the
Carleman reports against the s-outer loops they replaced.

scipy is the oracle here only: the package reduces with
``weights._logsumexp``, which must reproduce scipy's result bit for bit,
and the one sampling pass must reproduce every row of the old s-outer
loops (kept below as the oracle) exactly, in 1D and 2D.  A term served
from a profile's digest store must equal a fresh ``_logsumexp`` over its
kept terms, bit for bit, on a pattern's first meeting and on every later one.
The report sides reduce all their rows at once, each row bit for bit as
``_logsumexp`` and scipy reduce it alone, and a digest that keeps at most
two entries at the max as indices sums them to the bits of the full mask.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ksctl.adjoint import solve_adjoint, solve_backward_heat
from ksctl.carleman_check import (
    CarlemanReport,
    _scan,
    adjoint_reports,
    gradient_sq,
    hessian_sq,
    lemmaA1_report,
    log_space_time_integral,
    sample_adjoint_data,
    sample_space_time,
    time_derivative,
    weight_families,
)
from ksctl.grid import box_mask, l2_norm, mass
from ksctl.ks_model import KSParams, smooth_cutoff
from ksctl.weights import (
    _log_digest,
    _log_finish,
    _logsumexp,
    build_eta0,
    log_step_sum,
    carleman_weights,
    log_weight_profile,
    refined_weights,
    weight_params,
)

NEG_INF = float("-inf")
NAN = float("nan")
SEED = st.integers(0, 2**16)


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


# a few shared values make ties at the max common, at scattered positions;
# below a max of 0, the last four sit where exp underflows to the smallest
# subnormal (-745.13) or to exactly 0 (beyond -745.1332)
_POOL = [-3.5, 0.0, 1e-3, 2.25, 700.0, -700.0, -745.13, -745.14, -746.0, -746.5]
_ENTRY = st.one_of(st.sampled_from(_POOL), st.just(NEG_INF),
                   st.floats(-745.0, 709.0, allow_nan=False))


@st.composite
def log_terms(draw):
    """Either a generic list, or one whose result is near 0 in the log, where
    the last bit of every sum shows: ties at a max of 0 with weights summing
    to about 1, over up to 200 terms below it (all summation orders differ)."""
    if draw(st.booleans()):
        a = draw(st.lists(_ENTRY, min_size=1, max_size=64))
        b_entry = st.floats(1e-300, 1e5)
    else:
        a = draw(st.lists(st.one_of(st.floats(-30.0, -1e-3), st.just(NEG_INF)),
                          min_size=8, max_size=200))
        for i in draw(st.lists(st.integers(0, len(a) - 1), min_size=1, max_size=6)):
            a[i] = 0.0
        b_entry = st.floats(0.05, 0.5)
    if draw(st.booleans()):
        return a, None
    return a, draw(st.lists(b_entry, min_size=len(a), max_size=len(a)))


@settings(max_examples=600, deadline=None)
@given(log_terms())
@example(([NEG_INF], None))
@example(([NEG_INF, NEG_INF, NEG_INF], [1e-300, 1.0, 1e5]))
@example(([2.0], [1e-300]))
@example(([5.0] * 17 + [NEG_INF, 1.0], [float(k + 1) / 3.0 for k in range(19)]))
@example(([0.0, -745.13, -745.14, -746.0, -746.5, -1e3, NEG_INF], None))
@example(([0.0, -745.13, -745.14, -746.0, -800.0], [1.0, 1e5, 1e5, 1e5, 1e5]))
@example(([700.0, -46.0, -45.5, -45.13, 0.0], None))
@example(([0.0, NAN, 1.0], None))
@example(([NEG_INF, NAN], [1.0, 2.0]))
def test_logsumexp_matches_scipy_bit_for_bit(terms):
    a, b = terms
    expected = logsumexp(np.asarray(a), b=None if b is None else np.asarray(b))
    with np.errstate(divide="ignore"):   # a NaN leaves no term at the max: log(0)
        got = _logsumexp(np.asarray(a), None if b is None else np.asarray(b))
    assert bits(got) == bits(expected)


def test_logsumexp_takes_lists_and_large_arrays():
    rng = np.random.default_rng(4)
    a = rng.normal(scale=200.0, size=5151)
    b = rng.uniform(1e-12, 1e3, size=a.size)
    assert bits(_logsumexp(a, b)) == bits(logsumexp(a, b=b))
    assert bits(_logsumexp([-3.0, NEG_INF, 2.0])) == bits(logsumexp([-3.0, NEG_INF, 2.0]))


@st.composite
def log_rows(draw):
    """(rows, parts) report parts: one-part rows, all -inf rows, ties at the
    max and terms more than 746 below it (from ``_ENTRY``)."""
    parts = draw(st.integers(1, 12))
    row = st.lists(_ENTRY, min_size=parts, max_size=parts)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows[i] = [NEG_INF] * parts
    return np.array(rows)


@settings(max_examples=400, deadline=None)
@given(log_rows())
@example(np.array([[NEG_INF]]))
@example(np.array([[2.0], [NEG_INF], [-800.0]]))
@example(np.array([[0.0, 0.0, -746.5, NEG_INF], [NEG_INF] * 4, [700.0, -46.0, 700.0, 1.0]]))
def test_row_reduction_equals_logsumexp_row_by_row(a):
    # the reports pass (s, samples, parts): a leading axis changes nothing
    got, stacked = (_log_finish(_log_digest(x)) for x in (a, a[None]))
    assert got.shape == (len(a),) and stacked.shape == (1, len(a))
    for i, row in enumerate(a):
        want = bits(logsumexp(row))
        assert bits(got[i]) == bits(stacked[0, i]) == bits(_logsumexp(row)) == want


@settings(max_examples=300, deadline=None)
@given(at_max=st.integers(1, 5), size=st.integers(5, 300), rows=st.integers(1, 4), seed=SEED)
@example(at_max=3, size=9, rows=2, seed=0)
def test_a_direct_sum_at_the_max_equals_the_full_mask_sum(at_max, size, rows, seed):
    # weights across 40 decades, so three or more addends round by their order
    rng = np.random.default_rng(seed)
    a = rng.uniform(-800.0, -1e-3, size)
    a[rng.choice(size, at_max, replace=False)] = 0.0
    b = 10.0 ** rng.uniform(-20.0, 20.0, (rows, size))
    a_max, kept, e = digest = _log_digest(a)
    assert (kept.dtype == bool) == (at_max > 2)
    full = (a_max, a == a_max, e)
    for weights in (b, b[0], None):
        got, want = _log_finish(digest, weights), _log_finish(full, weights)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert bits(_logsumexp(a, b[0])) == bits(logsumexp(a, b=b[0]))


_STEP = st.tuples(st.one_of(_ENTRY, st.sampled_from([float("inf"), NAN])),
                  st.one_of(st.sampled_from([0.0, -1.0, NAN]), st.floats(1e-300, 1e5)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_STEP, max_size=64))
@example([])
@example([(NEG_INF, 1.0), (float("inf"), 1.0), (NAN, 1.0), (0.0, 0.0), (1.0, NAN)])
@example([(2.0, 0.0), (-1.0, 3.0), (NAN, 2.0)])
def test_log_step_sum_is_scipy_over_its_kept_terms(steps):
    # zero (or NaN) coefficients and non-finite log weights drop out; nothing
    # kept reads -inf
    log_w, coeff = (np.array([t[i] for t in steps], dtype=float) for i in (0, 1))
    keep = (coeff > 0.0) & np.isfinite(log_w)
    want = logsumexp(log_w[keep], b=coeff[keep]) if keep.any() else NEG_INF
    assert bits(log_step_sum(log_w, coeff)) == bits(want)


# ---------------------------------------------------------------------------
# oracle: the s-outer report loops, reducing with scipy's logsumexp
# ---------------------------------------------------------------------------


def oracle_integral(log_w, sq, grid, table, node_mask=None):
    # trapezoid weights in time with zero weight on the singular steps
    tw = np.full(grid.m + 1, grid.dt)
    tw[0] = tw[-1] = 0.5 * grid.dt
    for k in table.singular_steps:
        tw[k] = 0.0
    w = grid.quad_weights
    if node_mask is not None:
        w = w * node_mask
    coeff = tw[:, None] * w[None, :] * sq
    if log_w.ndim == 1:
        log_w = log_w[:, None]
    logw_b = np.broadcast_to(log_w, coeff.shape)
    keep = (coeff > 0.0) & np.isfinite(logw_b)
    if not np.any(keep):
        return NEG_INF
    return float(logsumexp(logw_b[keep], b=coeff[keep]))


def oracle_l2_sq(f, grid):
    v = l2_norm(f, grid)
    return NEG_INF if v == 0.0 else 2.0 * float(np.log(v))


def oracle_i_beta_terms(q, beta_exp, sigma, table, grid):
    logs = np.log(table.params.s)
    return [
        (beta_exp + 3.0) * logs + oracle_integral(
            log_weight_profile(table, "alpha", beta_exp + 3.0), q * q, grid, table),
        (beta_exp + 1.0) * logs + oracle_integral(
            log_weight_profile(table, "alpha", beta_exp + 1.0),
            gradient_sq(q, grid), grid, table),
        (beta_exp - 1.0) * logs + oracle_integral(
            log_weight_profile(table, "alpha", beta_exp - 1.0),
            sigma**2 * time_derivative(q, grid) ** 2 + hessian_sq(q, grid),
            grid, table),
    ]


def oracle_theorem22(p, grid, eta0, s_list, lam, n_samples, seed):
    rng = np.random.default_rng(seed)
    rep = CarlemanReport("thm2.2")
    omega_prime_mask = box_mask(grid, eta0.omega_prime).astype(float)
    A = grid.laplacian_matrix
    samples = []
    for _ in range(n_samples):
        phiT, xiT, f1, f2 = sample_adjoint_data(grid, rng)
        adj = solve_adjoint(p, phiT, xiT, f1, f2, grid)
        samples.append((adj, (A @ adj.phi.T).T, f1, f2))
    for s in s_list:
        table = carleman_weights(eta0, weight_params(grid.T, lam, s=s))
        logs = np.log(s)
        w3 = log_weight_profile(table, "alpha", 3.0)
        w10 = log_weight_profile(table, "alpha", 10.0)
        w18 = log_weight_profile(table, "alpha", 18.0)
        for i, (adj, lap_phi, f1, f2) in enumerate(samples):
            lhs = [3.0 * logs + oracle_integral(w3, lap_phi * lap_phi, grid, table)]
            lhs += oracle_i_beta_terms(adj.xi, 1.0, p.eps, table, grid)
            rhs = [
                18.0 * logs + oracle_integral(
                    w18, adj.xi**2, grid, table, node_mask=omega_prime_mask),
                10.0 * logs + oracle_integral(w10, f1**2, grid, table),
                3.0 * logs + oracle_integral(w3, f2**2, grid, table),
            ]
            rep.add(i, float(s), lam, p.eps,
                    float(logsumexp(lhs)), float(logsumexp(rhs)))
    return rep


def oracle_lemma31(p_template, grid, eta0, s_list, chi, lam, eps_list,
                   n_samples, seed):
    rep = CarlemanReport("lem3.1")
    for eps in eps_list:
        rng = np.random.default_rng(seed)
        p = KSParams(a=p_template.a, b=p_template.b, eps=eps,
                     M1=p_template.M1, M2=p_template.M2)
        samples = []
        for _ in range(n_samples):
            phiT, xiT, f1, f2 = sample_adjoint_data(grid, rng)
            samples.append((solve_adjoint(p, phiT, xiT, f1, f2, grid), f1, f2))
        for s in s_list:
            rt = refined_weights(eta0, weight_params(grid.T, lam, s=s))
            wb4 = log_weight_profile(rt, "beta", 4.0)
            wb2 = log_weight_profile(rt, "beta", 2.0)
            wh3 = log_weight_profile(rt, "beta_hat", 3.0)
            ws10 = log_weight_profile(rt, "beta_star", 10.0)
            ws3 = log_weight_profile(rt, "beta_star", 3.0)
            ws18 = log_weight_profile(rt, "beta_star", 18.0)
            for i, (adj, f1, f2) in enumerate(samples):
                phi_mean = np.array(
                    [mass(adj.phi[k], grid) for k in range(grid.m + 1)]
                ) / grid.volume
                phi_osc = adj.phi - phi_mean[:, None]
                lhs = [
                    oracle_integral(wb4, adj.xi**2, grid, rt),
                    oracle_integral(wb2, gradient_sq(adj.xi, grid), grid, rt),
                    oracle_integral(wh3, phi_osc**2, grid, rt),
                    oracle_integral(wh3, gradient_sq(adj.phi, grid), grid, rt),
                    oracle_l2_sq(phi_osc[0], grid),
                    np.log(eps) + oracle_l2_sq(adj.xi[0], grid),
                ]
                rhs = [
                    oracle_integral(ws10, f1**2, grid, rt),
                    oracle_integral(ws3, f2**2, grid, rt),
                    oracle_integral(ws18, (chi**2)[None, :] * adj.xi**2, grid, rt),
                ]
                rep.add(i, float(s), lam, eps,
                        float(logsumexp(lhs)), float(logsumexp(rhs)))
    return rep


def oracle_lemmaA1(grid, eta0, s_list, lam, n_samples, seed):
    rng = np.random.default_rng(seed)
    rep = CarlemanReport("lemA.1")
    omega_mask = box_mask(grid, eta0.omega).astype(float)
    A = grid.laplacian_matrix
    samples = []
    for _ in range(n_samples):
        gfield = sample_space_time(grid, rng)
        phi = solve_backward_heat(np.zeros(grid.num_nodes), (A @ gfield.T).T, grid)
        samples.append((phi, gfield))
    for s in s_list:
        table = carleman_weights(eta0, weight_params(grid.T, lam, s=s))
        logs = np.log(s)
        w3 = log_weight_profile(table, "alpha", 3.0)
        w4 = log_weight_profile(table, "alpha", 4.0)
        for i, (phi, gfield) in enumerate(samples):
            log_lhs = 3.0 * logs + oracle_integral(w3, phi * phi, grid, table)
            rhs = [
                3.0 * logs + oracle_integral(
                    w3, phi * phi, grid, table, node_mask=omega_mask),
                4.0 * logs + oracle_integral(w4, gfield**2, grid, table),
            ]
            rep.add(i, float(s), lam, 0.0, log_lhs, float(logsumexp(rhs)))
    return rep


BOXES_1D = ((0.30, 0.40), (0.25, 0.45), (0.20, 0.50))
BOXES_2D = (((0.30, 0.40), (0.30, 0.45)),
            ((0.25, 0.45), (0.25, 0.50)),
            ((0.20, 0.50), (0.20, 0.55)))


@pytest.mark.parametrize("name, boxes", [("grid_small", BOXES_1D),
                                         ("grid_2d", BOXES_2D)])
def test_reports_equal_the_s_outer_oracle(request, name, boxes):
    grid = request.getfixturevalue(name)
    eta = build_eta0(grid, *boxes)
    chi = smooth_cutoff(grid, boxes[1], boxes[2])
    p = KSParams(a=10.0, b=1.0, eps=0.1, M1=1.0, M2=10.0)
    s_base = 0.05 * (grid.T**4 + grid.T**8)
    s_list = [s_base, 2.0 * s_base, 4.0 * s_base]
    lam, n, seed, eps_list = 1.5, 4, 11, (1.0, 0.01)
    alpha, beta = weight_families(eta, s_list, lam)
    thm, rep31 = adjoint_reports(p, alpha, beta, eta, chi,
                                 eps_list=eps_list, n_samples=n, seed=seed)
    pairs = [
        *((rep, oracle_theorem22(replace(p, eps=eps), grid, eta, s_list, lam, n, seed))
          for rep, eps in zip(thm, eps_list, strict=True)),
        (rep31, oracle_lemma31(p, grid, eta, s_list, chi, lam, eps_list, n, seed)),
        (lemmaA1_report(alpha, eta, n_samples=n, seed=seed),
         oracle_lemmaA1(grid, eta, s_list, lam, n, seed)),
    ]
    for new, old in pairs:
        assert len(new.rows) == len(old.rows) > 0
        for r_new, r_old in zip(new.rows, old.rows):
            assert r_new.keys() == r_old.keys()
            assert {k: bits(v) for k, v in r_new.items()} \
                == {k: bits(v) for k, v in r_old.items()}
        assert new.falsifications == old.falsifications


@pytest.mark.parametrize("name, boxes", [("grid_small", BOXES_1D),
                                         ("grid_2d", BOXES_2D)])
def test_integral_reduction_order_is_pinned(request, name, boxes):
    # report rows hide the last bit of most sums (the log of a large weight
    # swamps it); a flat weight and a sample scaled to a total of about 1
    # put the log near 0, where every bit of the sum over kept terms shows
    grid = request.getfixturevalue(name)
    eta = build_eta0(grid, *boxes)
    table = carleman_weights(eta, weight_params(grid.T, 1.5, sigma0=0.05))
    mask = box_mask(grid, eta.omega).astype(float)
    rng = np.random.default_rng(5)
    for _ in range(5):
        sq = sample_space_time(grid, rng) ** 2
        for flat in (np.zeros(grid.m + 1), np.zeros(sq.shape)):
            for node_mask in (None, mask):
                sq_1 = sq / np.exp(oracle_integral(flat, sq, grid, table, node_mask))
                # the package takes the mask inside the integrand
                masked = sq_1 if node_mask is None else sq_1 * node_mask
                got = log_space_time_integral(flat, masked, table)
                want = oracle_integral(flat, sq_1, grid, table, node_mask)
                assert abs(want) < 1e-14
                assert bits(got) == bits(want)


def fresh_term(entry, s_power, kind, power, sq, node_mask):
    """The term from scratch: a new profile and a plain ``_logsumexp`` over
    the kept terms; also returns the kept pattern."""
    table = entry.table
    w = table.space_time_weights
    if node_mask is not None:
        w = w * node_mask
    coeff = w * sq
    log_w = log_weight_profile(table, kind, power)
    log_w = np.broadcast_to(log_w[:, None] if log_w.ndim == 1 else log_w, coeff.shape)
    keep = (coeff > 0.0) & np.isfinite(log_w)
    if not keep.any():
        return s_power * entry.logs + float("-inf"), keep
    return s_power * entry.logs + _logsumexp(log_w[keep], coeff[keep]), keep


# (family index, kind, power): full (step, node) and per-step profiles of both
PROFILES = [(0, "alpha", 3.0), (0, "alpha", 18.0), (1, "beta", 4.0),
            (1, "beta_star", 10.0), (1, "beta_hat", 3.0)]


@pytest.mark.parametrize("name, boxes", [("grid_small", BOXES_1D),
                                         ("grid_2d", BOXES_2D)])
def test_every_term_equals_a_fresh_logsumexp_over_its_kept_terms(request, name, boxes):
    grid = request.getfixturevalue(name)
    eta = build_eta0(grid, *boxes)
    s_base = 0.05 * (grid.T**4 + grid.T**8)
    families = weight_families(eta, [s_base, 3.0 * s_base], 1.5)
    box = box_mask(grid, eta.omega).astype(float)
    rng = np.random.default_rng(17)
    for fam, kind, power in PROFILES:
        for entry in families[fam]:
            built, patterns, calls = entry.digests_built, set(), 0
            for node_mask in (None, box):
                # three zero patterns, alternated on one profile, each met
                # with fresh values: every call after a pattern's first hits
                zeros = [rng.random((grid.m + 1, grid.num_nodes)) < frac
                         for frac in (0.0, 0.2, 0.6)]
                zeros.append(np.ones_like(zeros[0]))   # nothing kept: -inf
                for k in range(12):
                    sq = sample_space_time(grid, rng) ** 2
                    sq[zeros[k % len(zeros)]] = 0.0
                    s_power = float(rng.integers(0, 4))
                    # a scan of one entry: one row, one sample
                    (got,), = _scan([entry], s_power, kind, power,
                                    sq if node_mask is None else sq * node_mask)
                    want, keep = fresh_term(entry, s_power, kind, power, sq, node_mask)
                    assert bits(got) == bits(want)
                    if keep.any():
                        patterns.add(np.packbits(keep).tobytes())
                        calls += 1
            # both masks of a profile share its store: one digest per pattern
            assert entry.digests_built - built == len(patterns) == 6 < calls
