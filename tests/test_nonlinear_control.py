import dataclasses
from collections import Counter

import numpy as np
import pytest

from ksctl import grid as grid_mod
from ksctl import hum_control, nonlinear_control
from ksctl.grid import chemotaxis_divergence, h1_seminorm_sq, l2_sq, mass
from ksctl.hum_control import SolverSettings
from ksctl.ks_model import BlowUpError
from ksctl.nonlinear_control import _capped, e_norm, eps_sweep, forward_residual, picard_solve
from ksctl.weights import log_weight_profile

import oracles
from oracles import bilinear_continuity_ratio, delta_radius


def test_steady_start_is_a_fixed_point(params, grid_small, weights_small, chi_small):
    nn = grid_small.num_nodes
    r = picard_solve(params, np.full(nn, params.M1), np.full(nn, params.M2),
                     weights_small, chi_small, grid_small)
    assert r.converged
    assert r.iterations == 1
    assert r.g_l2h1 == 0.0
    assert r.forward_residual < 1e-10


def test_picard_controls_small_perturbation(params, grid_small, weights_small,
                                            chi_small):
    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, params.M2)
    r = picard_solve(params, u0, v0, weights_small, chi_small, grid_small,
                     SolverSettings(tol=1e-6, maxit=20))
    assert r.converged
    assert r.iterations <= 20
    assert r.forward_residual < 2e-6
    assert r.g_l2h1 > 0.0
    # the lagged-coupling verification documents the discretization gap
    lagged = forward_residual(params, u0, v0, r.control, grid_small, "lagged")
    assert lagged > r.forward_residual


def test_picard_rejects_wrong_mean(params, grid_small, weights_small, chi_small):
    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x) + 0.05   # mean off the target
    with pytest.raises(ValueError, match="M1"):
        picard_solve(params, u0, np.full_like(x, params.M2), weights_small,
                     chi_small, grid_small)


def test_remainder_source_is_exactly_mean_free(params, grid_small, weights_small,
                                               chi_small):
    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, params.M2)
    r = picard_solve(params, u0, v0, weights_small, chi_small, grid_small)
    h1 = np.array([
        -chemotaxis_divergence(r.z[k], r.w[k], grid_small)
        for k in range(grid_small.m + 1)
    ])
    worst = max(abs(mass(h1[k], grid_small)) for k in range(grid_small.m + 1))
    assert worst < 1e-13


def test_controlled_nonlinear_mass_conservation(params, grid_small, weights_small,
                                                chi_small):
    from ksctl.ks_model import solve_forward_pp

    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, params.M2)
    r = picard_solve(params, u0, v0, weights_small, chi_small, grid_small)
    traj = solve_forward_pp(params, u0, v0, r.control, grid_small,
                            coupling="implicit")
    m0 = mass(traj.u[0], grid_small)
    drift = max(abs(mass(traj.u[k], grid_small) - m0)
                for k in range(grid_small.m + 1))
    assert drift < 1e-11 * abs(m0)


def test_eps_sweep_conventions(params, grid_small, weights_small, chi_small):
    nn = grid_small.num_nodes
    steady_u = np.full(nn, params.M1)
    steady_v = np.full(nn, params.M2)
    rep = eps_sweep(params, steady_u, steady_v, weights_small, chi_small,
                    grid_small, eps_list=(1.0, 0.1))
    assert rep.uniformity_ratio == 1.0          # all-zero controls convention
    assert len(rep.rows) == 2 and not rep.excluded

    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    single = eps_sweep(params, u0, steady_v, weights_small, chi_small,
                       grid_small, eps_list=(1.0,))
    assert single.uniformity_ratio == 1.0       # single entry


def test_a_run_that_extracts_no_control_reports_nan(params, grid_small, weights_small,
                                                    chi_small):
    # every first dual solve stops at cg_maxit: no control exists, so its norm
    # is NaN, not the 0 of a trivially controlled state, and so is the ratio
    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, params.M2)
    capped = SolverSettings(cg_maxit=1)
    r = picard_solve(params, u0, v0, weights_small, chi_small, grid_small, capped)
    assert not r.converged and r.control is None and np.isnan(r.g_l2h1)
    rep = eps_sweep(params, u0, v0, weights_small, chi_small, grid_small,
                    eps_list=(1.0, 0.1), settings=capped)
    assert not rep.rows and [np.isnan(row["g_l2h1"]) for row in rep.excluded] == [True, True]
    assert np.isnan(rep.uniformity_ratio)


def test_a_dual_failure_after_the_first_iteration_reports_the_last_control(
        params, grid_small, weights_small, chi_small, monkeypatch):
    # each run's second dual is a capped CG flagged with negative curvature:
    # the run reports iteration 1's control and g_l2h1, kept past that
    # iteration's dual and extraction, and the flag of the dual that failed
    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, params.M2)
    eps_list = (1.0, 0.1)
    first = {eps: picard_solve(dataclasses.replace(params, eps=eps), u0, v0, weights_small,
                               chi_small, grid_small, SolverSettings(maxit=1))
             for eps in eps_list}
    calls, solve = Counter(), nonlinear_control.solve_dual

    def flagged(prob):
        calls[prob.params.eps] += 1
        if calls[prob.params.eps] != 2:
            return solve(prob)
        capped = dataclasses.replace(prob.settings, cg_maxit=3)
        return dataclasses.replace(solve(dataclasses.replace(prob, settings=capped)),
                                   curvature_ok=False)

    monkeypatch.setattr(nonlinear_control, "solve_dual", flagged)
    r = picard_solve(params, u0, v0, weights_small, chi_small, grid_small)
    assert not r.converged and r.iterations == 2 and not r.curvature_ok
    assert r.failure_reason.endswith("in Picard iteration 2")
    assert r.g_l2h1 == first[1.0].g_l2h1 > 0.0
    assert np.array_equal(r.control.g, first[1.0].control.g)
    calls.clear()
    rep = eps_sweep(params, u0, v0, weights_small, chi_small, grid_small, eps_list=eps_list)
    assert not rep.rows
    assert [row["g_l2h1"] for row in rep.excluded] == [first[eps].g_l2h1 for eps in eps_list]
    assert [row["curvature_ok"] for row in rep.excluded] == [False, False]


def test_eps_sweep_small(params, grid_small, weights_small, chi_small):
    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, params.M2)
    rep = eps_sweep(params, u0, v0, weights_small, chi_small, grid_small,
                    eps_list=(1.0, 0.1, 0.001))
    assert not rep.excluded
    assert 1.0 <= rep.uniformity_ratio < 10.0


FLOOR = SolverSettings(weight_floor=1e-6)   # the settings e_norm reads its floor from
E_NORM_KEYS = ["state_u", "state_v", "control_g", "residual_density",
               "residual_chemical_h1", "state_u_h2", "state_v_h2", "control_g_h1",
               "total"]


def test_e_norm_zero_and_homogeneity(params, grid_small, weights_small, chi_small):
    shape = (grid_small.m + 1, grid_small.num_nodes)
    zero = np.zeros(shape)
    comp0 = e_norm(zero, zero, zero, weights_small, params, chi_small,
                   grid_small, FLOOR)
    assert list(comp0) == E_NORM_KEYS
    # exactly -inf, not a log that underflows
    assert all(v == -np.inf for v in comp0.values())

    rng = np.random.default_rng(0)
    z = 1e-3 * rng.standard_normal(shape)
    w = 1e-3 * rng.standard_normal(shape)
    g = 1e-3 * rng.standard_normal(shape)
    c1 = e_norm(z, w, g, weights_small, params, chi_small, grid_small, FLOOR)
    c2 = e_norm(2 * z, 2 * w, 2 * g, weights_small, params, chi_small,
                grid_small, FLOOR)
    assert list(c1) == E_NORM_KEYS
    for key in c1:
        if np.isfinite(c1[key]):
            assert c2[key] - c1[key] == pytest.approx(np.log(2.0), abs=1e-9)


def test_e_norm_finite_on_converged_output(params, grid_small, weights_small,
                                           chi_small):
    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, params.M2)
    r = picard_solve(params, u0, v0, weights_small, chi_small, grid_small,
                     FLOOR)
    comp = e_norm(r.z, r.w, r.control.g, weights_small, params, chi_small,
                  grid_small, FLOOR)
    assert list(comp) == E_NORM_KEYS
    assert all(isinstance(v, float) and np.isfinite(v) for v in comp.values())


def test_e_norm_overflowing_chemical_residual_is_infinite(params, grid_small,
                                                          weights_small, chi_small):
    # at cap 1e-300 the singular terminal step keeps a reciprocal weight of
    # about exp(550), so a control of 1e80 overflows the weighted chemical
    # residual there while every unweighted square stays finite
    shape = (grid_small.m + 1, grid_small.num_nodes)
    zero = np.zeros(shape)
    comp = e_norm(zero, zero, np.full(shape, 1e80), weights_small, params,
                  chi_small, grid_small, SolverSettings(weight_floor=1e-300))
    assert comp["residual_chemical_h1"] == comp["total"] == np.inf
    assert np.isfinite(comp["control_g"]) and np.isfinite(comp["control_g_h1"])


def test_e_norm_nan_chemical_square_is_dropped(params, grid_small, weights_small,
                                               chi_small):
    # a weighted residual near 1e190 is finite, but its H1 square is
    # inf - inf = NaN; like log_step_sum's NaN terms it counts as no term
    shape = (grid_small.m + 1, grid_small.num_nodes)
    zero = np.zeros(shape)
    g = np.full(shape, 1e100)
    comp = e_norm(zero, zero, g, weights_small, params, chi_small, grid_small,
                  FLOOR)
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = np.exp(0.5 * _capped(-log_weight_profile(weights_small, "beta", 2.0),
                                        1e-6)[1:]) * -(g[1:] * chi_small)
        sq = l2_sq(weighted, grid_small) + h1_seminorm_sq(weighted, grid_small)
    assert np.all(np.isfinite(weighted)) and np.isnan(sq).any()
    assert comp["residual_chemical_h1"] == -np.inf
    assert np.isfinite(comp["total"])
    assert comp["total"] == pytest.approx(np.logaddexp(comp["control_g"],
                                                       comp["control_g_h1"]), abs=1e-12)


def test_e_norm_makes_four_laplacian_products(params, grid_small, weights_small,
                                              chi_small, monkeypatch):
    # z over all slices (apply_L's, z's H1 and H2 squares), w over slices
    # 1..m (apply_L's, w's H1 and H2 squares), the chemical residual's H1
    # square and g's H1 square
    calls = []
    original = grid_mod.neumann_laplacian

    def counted(f, grid):
        calls.append(f.shape)
        return original(f, grid)

    for module in (grid_mod, hum_control, nonlinear_control):
        monkeypatch.setattr(module, "neumann_laplacian", counted)
    rng = np.random.default_rng(3)
    z, w, g = 1e-3 * rng.standard_normal((3, grid_small.m + 1, grid_small.num_nodes))
    e_norm(z, w, g, weights_small, params, chi_small, grid_small, FLOOR)
    assert len(calls) == 4


def test_bilinear_continuity_bounded(params, grid_small, weights_small, chi_small):
    rng = np.random.default_rng(5)
    shape = (grid_small.m + 1, grid_small.num_nodes)
    ratios = []
    for _ in range(5):
        z = 1e-3 * rng.standard_normal(shape)
        w = 1e-3 * rng.standard_normal(shape)
        ratios.append(bilinear_continuity_ratio(z, w, weights_small, params,
                                                chi_small, grid_small, FLOOR))
    assert all(np.isfinite(r) for r in ratios)


def test_delta_radius_brackets_the_working_amplitude(params, grid_small,
                                                     weights_small, chi_small):
    rep = delta_radius(params, weights_small, chi_small, grid_small,
                       delta_hi=0.02, bisections=1,
                       settings=SolverSettings(tol=1e-5, maxit=12))
    # 0.01 converges in the other tests, so the measured bracket cannot sit
    # entirely below it unless the probe at 0.02 already succeeded
    assert rep["radius_hi"] == float("inf") or rep["radius_lo"] >= 0.0
    assert rep["probes"]


def test_delta_radius_counts_only_solver_failures(params, grid_small,
                                                  weights_small, chi_small,
                                                  monkeypatch):
    def blow_up(*args, **kwargs):
        raise BlowUpError(3, 1e9, 1e8)

    monkeypatch.setattr(oracles, "picard_solve", blow_up)
    rep = delta_radius(params, weights_small, chi_small, grid_small,
                       delta_hi=0.64, bisections=2)
    # every probe fails, so the bracket shrinks onto delta_lo
    assert rep == {"radius_lo": 0.0, "radius_hi": 0.16, "probes": []}

    def broken(*args, **kwargs):
        raise TypeError("programming error")

    monkeypatch.setattr(oracles, "picard_solve", broken)
    with pytest.raises(TypeError, match="programming error"):
        delta_radius(params, weights_small, chi_small, grid_small)
