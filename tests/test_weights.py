import numpy as np
import pytest

from ksctl.grid import box_mask
from ksctl.weights import (
    POWER_RANGE,
    build_eta0,
    carleman_weights,
    log_weight_profile,
    refined_weights,
    weight_params,
)

from conftest import OMEGA, OMEGA0, OMEGA_PRIME
from oracles import closed_form_weights


def test_eta0_boundary_and_positivity(grid_small, eta_small):
    assert eta_small.values[0] == 0.0
    assert eta_small.values[-1] == 0.0
    interior = slice(1, -1)
    assert np.all(eta_small.values[interior] > 0.0)


def assert_gradient_nonzero_outside(eta, core):
    # the discrete gradient of the node values, corners excluded in 2D (any
    # C^2 function vanishing on a rectangle's boundary is flat there)
    grid = eta.grid
    vals = eta.values.reshape(grid.shape)
    grads = np.gradient(vals, *grid.axes)
    grads = grads if grid.dim == 2 else [grads]
    gnorm = np.sqrt(sum(d * d for d in grads))
    if grid.dim == 2:
        gnorm[::grid.n[0], ::grid.n[1]] = np.inf
    assert np.all(gnorm.ravel()[~box_mask(grid, core)] > 0.0)


def test_eta0_gradient_nonzero_outside_core(eta_small):
    assert_gradient_nonzero_outside(eta_small, OMEGA0)


def test_eta0_argmax_inside_core(grid_small, eta_small):
    x = grid_small.axes[0]
    xm = x[int(np.argmax(eta_small.values))]
    assert OMEGA0[0] <= xm <= OMEGA0[1]


def test_eta0_rejects_bad_nesting(grid_small):
    with pytest.raises(ValueError):
        build_eta0(grid_small, (0.30, 0.40), (0.35, 0.45), (0.20, 0.50))
    with pytest.raises(ValueError):
        build_eta0(grid_small, (0.30, 0.40), (0.25, 0.45), (0.25, 1.00))


def test_eta0_2d(grid_2d):
    core = ((0.30, 0.40), (0.30, 0.45))
    eta = build_eta0(
        grid_2d,
        core,
        ((0.25, 0.45), (0.25, 0.50)),
        ((0.20, 0.50), (0.20, 0.55)),
    )
    # zero on the whole boundary, positive inside, gradient nonzero off-core
    pts = grid_2d.node_coords
    boundary = (
        (pts[:, 0] == 0) | (pts[:, 0] == 1.0) | (pts[:, 1] == 0) | (pts[:, 1] == 1.0)
    )
    assert np.abs(eta.values[boundary]).max() == 0.0
    assert np.all(eta.values[~boundary] > 0.0)
    assert_gradient_nonzero_outside(eta, core)


def test_weight_params_validation():
    with pytest.raises(ValueError):
        weight_params(1.0, lam=0.5)
    p = weight_params(2.0, lam=1.5, sigma0=1.0)
    assert p.s == pytest.approx(2.0**4 + 2.0**8)
    assert p.s >= 2.0**4 + 2.0**8                       # the threshold s >= T^4 + T^8
    assert weight_params(2.0, s=1.0).s < 2.0**4 + 2.0**8   # an explicit s overrides it


def test_alpha_negative_everywhere(grid_small, eta_small):
    wt = carleman_weights(eta_small, weight_params(grid_small.T, 1.5))
    alpha, _ = closed_form_weights(eta_small, wt)
    assert np.all(alpha[1:-1] < 0.0)


def test_phi_closed_form_at_midpoint(grid_small, eta_small):
    lam = 1.5
    wt = carleman_weights(eta_small, weight_params(grid_small.T, lam))
    k = grid_small.m // 2
    i = int(np.argmax(eta_small.values))
    # independent scalar computation of the same quantity
    expected = np.exp(lam * eta_small.values[i]) * (2.0 / grid_small.T) ** 8
    _, phi = closed_form_weights(eta_small, wt)
    assert phi[k, i] == pytest.approx(expected, rel=1e-13)


def test_extrema_locations(grid_small, eta_small):
    wt = carleman_weights(eta_small, weight_params(grid_small.T, 1.5))
    k = grid_small.m // 2
    i_star = int(np.argmax(eta_small.values))
    alpha, _ = closed_form_weights(eta_small, wt)
    two_s = 2.0 * wt.params.s
    assert wt.two_s_exponent[k].max() == two_s * alpha[k, i_star]
    assert wt.two_s_exponent[k].min() == two_s * alpha[k, 0]    # boundary node
    assert wt.log_factor[k].max() >= wt.log_factor[k].min() > -np.inf


def test_refined_time_profile(grid_small, eta_small, weights_small):
    g, rt = grid_small, weights_small
    wt = carleman_weights(eta_small, rt.params)
    kq, kh, k3q = g.m // 4, g.m // 2, 3 * g.m // 4
    beta, gamma = closed_form_weights(eta_small, rt)
    alpha, phi = closed_form_weights(eta_small, wt)
    assert np.array_equal(beta[kq], beta[kh])     # constant early
    assert np.array_equal(gamma[k3q], phi[k3q])   # matches late
    # the literal testable ordering statement
    t = g.times
    assert np.all(rt.profile >= t * (g.T - t) - 1e-15)
    # note the sign: the shared numerator is negative, so the larger profile
    # pulls beta toward zero, i.e. beta >= alpha pointwise
    assert np.all(beta[1:-1] >= alpha[1:-1] - 1e-12)


def test_refined_products_vanish_at_terminal_time(weights_small):
    prof = log_weight_profile(weights_small, "beta_star", 18.0)
    assert np.isneginf(prof[-1])
    assert prof[-2] < prof[len(prof) // 2] - 100.0   # crushed well before T
    with np.errstate(over="ignore"):
        assert np.exp(prof[-1]) == 0.0


def test_log_weight_point_queries(grid_small, eta_small, weights_small):
    rt = weights_small
    k = grid_small.m // 2
    s2b = log_weight_profile(rt, "beta_star", 0.0)[k]
    beta, _ = closed_form_weights(eta_small, rt)
    assert s2b == pytest.approx(2.0 * rt.params.s * beta[k].max(), rel=1e-14)
    # singular step: -inf, exp flushes to zero, never NaN
    q = log_weight_profile(rt, "beta", 5.0)[grid_small.m, 3]
    assert np.isneginf(q)
    assert np.exp(q) == 0.0


@pytest.mark.parametrize("name", ["grid_small", "grid_2d"])
def test_starred_and_hatted_profiles_reduce_the_stored_logs_exactly(request, name):
    # against the arithmetic of per-step extrema kept apart: the max or min
    # of the unscaled exponent, times 2s afterwards
    grid = request.getfixturevalue(name)
    boxes = [b if grid.dim == 1 else [b] * 2 for b in (OMEGA0, OMEGA_PRIME, OMEGA)]
    eta = build_eta0(grid, *boxes)
    table = refined_weights(eta, weight_params(grid.T, 1.5, sigma0=0.05))
    beta, _ = closed_form_weights(eta, table)
    for kind, extremum in (("beta_star", np.max), ("beta_hat", np.min)):
        for power in (POWER_RANGE[0], -3.0, 0.0, 2.5, 10.0, POWER_RANGE[1]):
            with np.errstate(invalid="ignore"):
                want = (2.0 * table.params.s * extremum(beta, axis=1)
                        + power * extremum(table.log_factor, axis=1))
            want[list(table.singular_steps)] = -np.inf
            assert np.array_equal(log_weight_profile(table, kind, power), want)


def test_log_weight_rejects_out_of_range_power(grid_small, eta_small, weights_small):
    with pytest.raises(ValueError):
        log_weight_profile(weights_small, "beta_star", 25.0)
    with pytest.raises(KeyError):
        log_weight_profile(weights_small, "zeta", 3.0)
    # a kind of the other family is a KeyError naming the table's family
    with pytest.raises(KeyError, match="table is of the beta family"):
        log_weight_profile(weights_small, "alpha", 3.0)
    classical = carleman_weights(eta_small, weights_small.params)
    with pytest.raises(KeyError, match="table is of the alpha family"):
        log_weight_profile(classical, "beta_star", 3.0)


def test_log_weight_consistency_with_direct_product(grid_small, eta_small):
    # mild parameters keep the direct product representable
    wt = carleman_weights(eta_small, weight_params(grid_small.T, 1.5, sigma0=1e-4))
    alpha, phi = closed_form_weights(eta_small, wt)
    rng = np.random.default_rng(0)
    for _ in range(20):
        node = int(rng.integers(0, grid_small.num_nodes))
        step = int(rng.integers(1, grid_small.m))
        power = float(rng.integers(-4, 19))
        direct = (np.exp(2 * wt.params.s * alpha[step, node])
                  * phi[step, node] ** power)
        via_log = np.exp(log_weight_profile(wt, "alpha", power)[step, node])
        assert via_log == pytest.approx(direct, rel=1e-10)


def test_stored_logs_finite_on_interior_steps(grid_small, weights_small):
    rt = weights_small
    interior = np.setdiff1d(np.arange(rt.grid.m + 1), rt.singular_steps)
    assert np.all(np.isfinite(rt.two_s_exponent[interior]))
    assert np.all(np.isfinite(rt.log_factor[interior]))
    for kind in ("beta_star", "beta_hat"):   # the per-step extrema of the stored logs
        assert np.all(np.isfinite(log_weight_profile(rt, kind, 3.0)[interior]))


def test_box_mask_matches_open_box(grid_small):
    m = box_mask(grid_small, OMEGA_PRIME)
    x = grid_small.axes[0]
    assert np.array_equal(m, (x > OMEGA_PRIME[0]) & (x < OMEGA_PRIME[1]))
    assert not np.array_equal(m, box_mask(grid_small, OMEGA))
