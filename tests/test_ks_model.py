import numpy as np
import pytest
import scipy.linalg as sla

from ksctl import ks_model
from ksctl.adjoint import solve_adjoint, solve_backward_heat
from ksctl.grid import build_grid, l2_norm, mass
from ksctl.ks_model import (
    BlowUpError,
    Control,
    InnerIterationError,
    KSParams,
    smooth_cutoff,
    solve_forward_pp,
    solve_linearized,
)

from conftest import OMEGA, OMEGA_PRIME, lowfreq_space_time

COUPLING = {"pe": "elliptic"}   # the parabolic-elliptic march's coupling


def test_params_validation():
    with pytest.raises(ValueError):
        KSParams(a=1.0, b=1.0, eps=1.0, M1=1.0, M2=2.0)   # aM1 != bM2
    with pytest.raises(ValueError):
        KSParams(a=1.0, b=1.0, eps=1.5, M1=1.0, M2=1.0)   # eps outside (0,1]
    with pytest.raises(ValueError):
        KSParams(a=-1.0, b=1.0, eps=1.0, M1=1.0, M2=-1.0)


def test_cutoff_plateau_and_support(grid_small, chi_small):
    x = grid_small.axes[0]
    assert chi_small.min() >= 0.0 and chi_small.max() <= 1.0
    assert np.all(chi_small[(x >= OMEGA_PRIME[0]) & (x <= OMEGA_PRIME[1])] == 1.0)
    assert np.all(chi_small[(x <= OMEGA[0]) | (x >= OMEGA[1])] == 0.0)


def test_steady_state_is_exact_fixed_point(params):
    g = build_grid(1, 1.0, 32, 2.0, 200)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    c = Control.zero(g, chi)
    u0 = np.full(g.num_nodes, params.M1)
    v0 = np.full(g.num_nodes, params.M2)
    pp = solve_forward_pp(params, u0, v0, c, g)
    assert np.abs(pp.u - params.M1).max() < 1e-12 * params.M1
    assert np.abs(pp.v - params.M2).max() < 1e-12 * params.M2
    pe = solve_forward_pp(params, u0, v0, c, g, coupling="elliptic")
    assert np.abs(pe.u - params.M1).max() < 1e-12 * params.M1
    assert np.abs(pe.v - params.M2).max() < 1e-12 * params.M2


@pytest.mark.parametrize("coupling", ["lagged", "implicit"])
def test_mass_conservation_nonlinear(params, coupling):
    g = build_grid(1, 1.0, 40, 1.0, 40)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    rng = np.random.default_rng(5)
    gctl = Control(g=0.1 * lowfreq_space_time(g, rng), chi=chi)
    x = g.axes[0]
    u0 = params.M1 + 0.05 * np.cos(np.pi * x)
    v0 = np.full(g.num_nodes, params.M2)
    traj = solve_forward_pp(params, u0, v0, gctl, g, coupling=coupling)
    m0 = mass(traj.u[0], g)
    drift = max(abs(mass(traj.u[k], g) - m0) for k in range(g.m + 1))
    assert drift < 1e-11 * abs(m0)


def test_perturbation_decays_toward_steady_state(params):
    g = build_grid(1, 1.0, 50, 2.0, 100)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    x = g.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full(g.num_nodes, params.M2)
    traj = solve_forward_pp(params, u0, v0, Control.zero(g, chi), g)
    assert l2_norm(traj.u[-1] - params.M1, g) < 0.5 * l2_norm(u0 - params.M1, g)


def test_pe_limit_of_pp_is_monotone_in_eps():
    g = build_grid(1, 1.0, 40, 1.5, 60)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    c = Control.zero(g, chi)
    x = g.axes[0]
    u0 = 1.0 + 0.01 * np.cos(np.pi * x)
    errs = []
    for eps in (1.0, 0.1, 0.01):
        p = KSParams(a=10.0, b=1.0, eps=eps, M1=1.0, M2=10.0)
        pe = solve_forward_pp(p, u0, np.zeros_like(u0), c, g, coupling="elliptic")
        pp = solve_forward_pp(p, u0, pe.v[0], c, g)
        errs.append(max(l2_norm(pp.v[k] - pe.v[k], g) for k in range(g.m + 1)))
    assert errs[0] > errs[1] > errs[2]


def test_blowup_guard_raises(monkeypatch):
    g = build_grid(1, 1.0, 32, 2.0, 64)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    p = KSParams(a=50.0, b=1.0, eps=1.0, M1=1.0, M2=50.0)  # aggregation-dominated
    x = g.axes[0]
    u0 = p.M1 + 0.05 * np.cos(np.pi * x)
    v0 = np.full(g.num_nodes, p.M2)
    monkeypatch.setattr(ks_model, "BLOWUP_CAP", 1.2)
    with pytest.raises(BlowUpError):
        solve_forward_pp(p, u0, v0, Control.zero(g, chi), g)


def test_implicit_coupling_raises_at_inner_cap(params, monkeypatch):
    # one inner iteration cannot resolve a step of a perturbed state: the
    # march must say so instead of returning the unconverged step
    g = build_grid(1, 1.0, 32, 1.0, 32)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    x = g.axes[0]
    u0 = params.M1 + 0.05 * np.cos(np.pi * x)
    v0 = np.full(g.num_nodes, params.M2)
    monkeypatch.setattr(ks_model, "INNER_MAXIT", 1)
    with pytest.raises(InnerIterationError, match="at step 1:") as err:
        solve_forward_pp(params, u0, v0, Control.zero(g, chi), g, coupling="implicit")
    assert err.value.step == 1
    assert err.value.delta >= 1e-13


@pytest.mark.parametrize("march", ["lagged", "implicit", "pe"])
def test_nonfinite_initial_density_is_rejected(params, march):
    # NaN < 0 is False, so the sign check alone let a NaN u0 through to a
    # "Factor is exactly singular" at step 1
    g = build_grid(1, 1.0, 20, 1.0, 16)
    c = Control.zero(g, smooth_cutoff(g, OMEGA_PRIME, OMEGA))
    u0 = np.full(g.num_nodes, params.M1)
    u0[5] = np.nan
    v0 = np.full(g.num_nodes, params.M2)
    with pytest.raises(ValueError, match="^initial u0 must be finite$"):
        solve_forward_pp(params, u0, v0, c, g, coupling=COUPLING.get(march, march))


def test_nonfinite_elliptic_initial_chemical_is_rejected(params):
    # the parabolic-elliptic march derives v0 from u0 and the control's
    # first slice; a NaN there is named at entry, not at step 1
    g = build_grid(1, 1.0, 20, 1.0, 16)
    c = Control.zero(g, smooth_cutoff(g, OMEGA_PRIME, OMEGA))
    c.g[0] = np.nan
    with pytest.raises(ValueError, match="^initial v0 must be finite$"):
        solve_forward_pp(params, np.full(g.num_nodes, params.M1),
                         np.full(g.num_nodes, params.M2), c, g, coupling="elliptic")


@pytest.mark.parametrize("march", ["lagged", "implicit", "pe"])
def test_nonfinite_chemical_is_rejected_at_its_step(params, march):
    # a NaN control slice makes v[3] NaN: the march names that step and the
    # field instead of failing one step later inside the density factor
    g = build_grid(1, 1.0, 20, 1.0, 16)
    c = Control.zero(g, smooth_cutoff(g, OMEGA_PRIME, OMEGA))
    c.g[3] = np.nan
    u0 = np.full(g.num_nodes, params.M1)
    v0 = np.full(g.num_nodes, params.M2)
    with pytest.raises(RuntimeError, match="^non-finite v at step 3$"):
        solve_forward_pp(params, u0, v0, c, g, coupling=COUPLING.get(march, march))


def test_linearized_zero_data_is_zero(params, grid_small, chi_small):
    z = np.zeros(grid_small.num_nodes)
    traj = solve_linearized(params, z, z, Control.zero(grid_small, chi_small),
                            None, None, grid_small)
    assert np.abs(traj.u).max() == 0.0
    assert np.abs(traj.v).max() == 0.0


def test_linearized_mass_stays_zero(params, grid_small, chi_small):
    rng = np.random.default_rng(11)
    x = grid_small.axes[0]
    z0 = 0.01 * np.cos(2 * np.pi * x)
    w0 = 0.01 * np.cos(np.pi * x)
    gctl = Control(g=lowfreq_space_time(grid_small, rng), chi=chi_small)
    h1 = lowfreq_space_time(grid_small, rng, zero_mean=True)
    traj = solve_linearized(params, z0, w0, gctl, h1, None, grid_small)
    worst = max(abs(mass(traj.u[k], grid_small)) for k in range(grid_small.m + 1))
    assert worst < 1e-11


def test_linearized_rejects_nonzero_mean_sources(params, grid_small, chi_small):
    nn, m = grid_small.num_nodes, grid_small.m
    bad = np.ones((m + 1, nn))
    zero = np.zeros(nn)
    with pytest.raises(ValueError, match="zero mass"):
        solve_linearized(params, zero, zero, Control.zero(grid_small, chi_small),
                         bad, None, grid_small)
    with pytest.raises(ValueError, match="zero mass"):
        solve_linearized(params, np.ones(nn), zero,
                         Control.zero(grid_small, chi_small), None, None, grid_small)
    for k in (0, m // 2, m):   # one slice carries the mass
        one = np.zeros((m + 1, nn))
        one[k] = 1.0
        with pytest.raises(ValueError, match="zero mass"):
            solve_linearized(params, zero, zero, Control.zero(grid_small, chi_small),
                             one, None, grid_small)


def mode_oracle(p, mu, t, z0, w0):
    """Closed form of the per-mode 2x2 system via the matrix exponential."""
    A = np.array([[-mu, p.M1 * mu], [p.a / p.eps, -(p.b + mu) / p.eps]])
    return sla.expm(A * t) @ np.array([z0, w0])


def test_linearized_matches_mode_oracle(params):
    g = build_grid(1, 1.0, 200, 1.0, 400)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    x = g.axes[0]
    cosx = np.cos(np.pi * x)
    traj = solve_linearized(params, 0.01 * cosx, np.zeros_like(x),
                            Control.zero(g, chi), None, None, g)
    nrm = np.dot(cosx, cosx)
    zm = np.dot(traj.u[-1], cosx) / nrm
    wm = np.dot(traj.v[-1], cosx) / nrm
    zs, ws = mode_oracle(params, np.pi**2, g.T, 0.01, 0.0)
    assert abs(zm - zs) + abs(wm - ws) < 2e-5


SHAPE_CASES = {
    "lagged": ("u0", "v0", "g"),
    "implicit": ("u0", "v0", "g"),
    "pe": ("u0", "g"),
    "linearized": ("z0", "w0", "h1", "h2", "g"),
    "adjoint": ("phiT", "xiT", "f1", "f2"),
    "backward_heat": ("phiT", "source"),
}


@pytest.mark.parametrize("entry,name", [(e, n) for e, names in SHAPE_CASES.items()
                                        for n in names])
def test_length_one_datum_is_rejected_by_name(params, entry, name):
    # a length-1 datum, or one node column of a space-time datum, used to
    # broadcast over every node without complaint
    g = build_grid(1, 1.0, 20, 1.0, 16)
    chi = smooth_cutoff(g, OMEGA_PRIME, OMEGA)
    nn, m = g.num_nodes, g.m
    data = {n: np.zeros(nn) for n in ("z0", "w0", "phiT", "xiT")}
    data |= {n: np.zeros((m + 1, nn)) for n in ("g", "h1", "h2", "f1", "f2", "source")}
    data |= {"u0": np.full(nn, params.M1), "v0": np.full(nn, params.M2)}
    calls = {
        "lagged": lambda d: solve_forward_pp(params, d["u0"], d["v0"], Control(d["g"], chi), g),
        "implicit": lambda d: solve_forward_pp(params, d["u0"], d["v0"], Control(d["g"], chi),
                                               g, coupling="implicit"),
        "pe": lambda d: solve_forward_pp(params, d["u0"], d["v0"], Control(d["g"], chi), g,
                                         coupling="elliptic"),
        "linearized": lambda d: solve_linearized(params, d["z0"], d["w0"], Control(d["g"], chi),
                                                 d["h1"], d["h2"], g),
        "adjoint": lambda d: solve_adjoint(params, d["phiT"], d["xiT"], d["f1"], d["f2"], g),
        "backward_heat": lambda d: solve_backward_heat(d["phiT"], d["source"], g),
    }
    calls[entry](data)   # the well-shaped data run
    bad = dict(data, **{name: data[name][..., :1]})
    with pytest.raises(ValueError, match=f"^{name} has shape "):
        calls[entry](bad)
