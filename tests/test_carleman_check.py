import numpy as np
import pytest

from ksctl.carleman_check import (
    CarlemanReport,
    gradient_sq,
    adjoint_reports,
    hessian_sq,
    lemmaA1_report,
    log_space_time_integral,
    sample_space_time,
    time_derivative,
    weight_families,
)
from ksctl.grid import box_mask, mass
from ksctl.ks_model import KSParams
from ksctl.weights import carleman_weights, log_weight_profile, weight_params

from oracles import closed_form_weights, i_beta


@pytest.fixture(scope="module")
def mild_table(grid_small, eta_small):
    # small s keeps every product representable for the direct oracle
    return carleman_weights(eta_small, weight_params(grid_small.T, 1.5, sigma0=1e-4))


def test_i_beta_zero(grid_small, mild_table):
    q = np.zeros((grid_small.m + 1, grid_small.num_nodes))
    assert i_beta(q, 1.0, 0.5, mild_table, grid_small) == 0.0


def test_i_beta_quadratic_scaling(grid_small, mild_table):
    q = sample_space_time(grid_small, np.random.default_rng(1))
    v1 = i_beta(q, 1.0, 0.5, mild_table, grid_small)
    v2 = i_beta(2.0 * q, 1.0, 0.5, mild_table, grid_small)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_i_beta_sigma_validation(grid_small, mild_table):
    q = np.zeros((grid_small.m + 1, grid_small.num_nodes))
    with pytest.raises(ValueError):
        i_beta(q, 1.0, 0.0, mild_table, grid_small)


def naive_i_beta(q, beta, sigma, tab, eta0, g):
    """Straightforward-summation duplicate of the functional."""
    s = tab.params.s
    alpha, phi = closed_form_weights(eta0, tab)
    dt, W = g.dt, g.quad_weights
    qt = time_derivative(q, g)
    gs = gradient_sq(q, g)
    hs = hessian_sq(q, g)
    tot = 0.0
    for k in range(1, g.m):
        for pn in range(g.num_nodes):
            e2sa = np.exp(2 * s * alpha[k, pn])
            ph = phi[k, pn]
            tot += dt * W[pn] * e2sa * (
                s ** (beta + 3) * ph ** (beta + 3) * q[k, pn] ** 2
                + s ** (beta + 1) * ph ** (beta + 1) * gs[k, pn]
                + s ** (beta - 1) * ph ** (beta - 1)
                * (sigma**2 * qt[k, pn] ** 2 + hs[k, pn])
            )
    return tot


def test_i_beta_against_naive_oracle(grid_small, eta_small, mild_table):
    q = sample_space_time(grid_small, np.random.default_rng(3))
    mine = i_beta(q, 1.0, 0.25, mild_table, grid_small)
    ref = naive_i_beta(q, 1.0, 0.25, mild_table, eta_small, grid_small)
    assert mine == pytest.approx(ref, rel=1e-12)


def test_report_row_conventions():
    rep = CarlemanReport("thm2.2")
    rep.add(0, 1.0, 1.5, 1.0, float("-inf"), float("-inf"))   # zero data
    assert rep.rows[0]["ratio"] == 0.0
    assert rep.ok
    rep.add(1, 1.0, 1.5, 1.0, 0.0, float("-inf"))             # falsification
    assert not rep.ok
    assert rep.rows[1]["ratio"] == float("inf")


def test_log_integral_homogeneity(grid_small, weights_small):
    q = sample_space_time(grid_small, np.random.default_rng(5))
    lw = log_weight_profile(weights_small, "beta_star", 3.0)
    v1 = log_space_time_integral(lw, q * q, weights_small)
    v4 = log_space_time_integral(lw, 4.0 * q * q, weights_small)
    assert v4 - v1 == pytest.approx(np.log(4.0), rel=1e-12)


@pytest.mark.parametrize("plant", ["one_nan", "one_inf", "all_nan"])
def test_log_integral_rejects_a_non_finite_integrand(grid_small, weights_small, plant):
    # a NaN would drop out of the kept set unseen, an inf turn the sum into
    # NaN, and an all-NaN integrand read as a zero side (a falsification)
    sq = sample_space_time(grid_small, np.random.default_rng(5)) ** 2
    if plant == "all_nan":
        sq[:] = np.nan
    else:
        sq[grid_small.m // 2, 3] = np.nan if plant == "one_nan" else np.inf
    lw = log_weight_profile(weights_small, "beta", 4.0)
    with pytest.raises(ValueError, match="non-finite integrand"):
        log_space_time_integral(lw, sq, weights_small)


def test_theorem22_report_runs_clean(grid_small, eta_small, chi_small):
    p = KSParams(a=10.0, b=1.0, eps=1.0, M1=1.0, M2=10.0)
    s0 = 1.0 * (grid_small.T**4 + grid_small.T**8)
    alpha, beta = weight_families(eta_small, [s0, 2 * s0], 1.5)
    (rep,), _ = adjoint_reports(p, alpha, beta, eta_small, chi_small,
                                eps_list=(1.0,), n_samples=5, seed=3)
    assert rep.ok
    assert len(rep.rows) == 10
    assert all(np.isfinite(r["log_ratio"]) for r in rep.rows)
    # the s-scan trend is reported, not asserted; record it for the log
    cemp = rep.c_emp_log
    assert len(cemp) == 2


def test_lemma31_report_eps_table(grid_small, eta_small, chi_small):
    p = KSParams(a=10.0, b=1.0, eps=1.0, M1=1.0, M2=10.0)
    s0 = 0.02 * (grid_small.T**4 + grid_small.T**8)
    alpha, beta = weight_families(eta_small, [s0], 1.2)
    _, rep = adjoint_reports(p, alpha, beta, eta_small, chi_small,
                             eps_list=(1.0, 0.1, 0.01), n_samples=4, seed=3)
    assert rep.ok
    by_eps = {}
    for r in rep.rows:
        by_eps.setdefault(r["eps"], []).append(r["log_ratio"])
    assert set(by_eps) == {1.0, 0.1, 0.01}
    # the uniformity finding: the empirical constant stays bounded across eps
    maxes = {e: max(v) for e, v in by_eps.items()}
    spread = max(maxes.values()) - min(maxes.values())
    assert np.isfinite(spread)


def test_lemmaA1_report_runs_clean(grid_small, eta_small):
    s0 = 1.0 * (grid_small.T**4 + grid_small.T**8)
    alpha, _ = weight_families(eta_small, [s0], 1.5)
    rep = lemmaA1_report(alpha, eta_small, n_samples=4, seed=1)
    assert rep.ok
    assert all(np.isfinite(r["log_ratio"]) for r in rep.rows)


def test_localized_sample_satisfies_transposition_bound(grid_small, eta_small):
    # a field numerically concentrated inside the observation region makes
    # the global weighted integral nearly equal its localized counterpart,
    # so the ratio cannot exceed one by more than the leakage
    g = grid_small
    tab = carleman_weights(eta_small, weight_params(g.T, 1.5, sigma0=1.0))
    x = g.node_coords[:, 0]
    bump = np.exp(-((x - 0.35) / 0.02) ** 2)
    phi = np.tile(bump, (g.m + 1, 1))
    w3 = log_weight_profile(tab, "alpha", 3.0)
    lhs = log_space_time_integral(w3, phi * phi, tab)
    inside = box_mask(g, eta_small.omega).astype(float)
    rhs = log_space_time_integral(w3, phi * phi * inside, tab)
    assert lhs <= rhs + 1e-6


def test_mean_removal_kills_constant_profiles(grid_small):
    g = grid_small
    const = np.ones((g.m + 1, g.num_nodes)) * 3.0
    means = np.array([mass(const[k], g) for k in range(g.m + 1)]) / g.volume
    osc = const - means[:, None]
    assert np.abs(osc).max() < 1e-14
