"""Stacked samples against one sample at a time, bit for bit.

The Carleman audit marches and integrates its samples in stacks (see
``carleman_check.STACK_BYTES``).  On these grids a multi-column SuperLU
solve equals its one-column solves exactly, so every stacked march and
every stacked integral must equal its per-sample call bit for bit, and a
stack's one odd sample must be reported as it would be alone.
"""

import warnings

import numpy as np
import pytest

from ksctl.adjoint import AdjointTrajectory, solve_adjoint, solve_backward_heat
from ksctl.carleman_check import (
    CarlemanReport,
    _scan,
    log_space_time_integral,
    sample_adjoint_data,
    sample_space_time,
    theorem22_report,
    weight_families,
)
from ksctl.grid import box_mask, neumann_laplacian
from ksctl.ks_model import KSParams
from ksctl.weights import build_eta0, carleman_weights, log_weight_profile, weight_params

GRIDS = ["grid_small", "grid_2d"]
BOXES = {"grid_small": ((0.30, 0.40), (0.25, 0.45), (0.20, 0.50)),
         "grid_2d": (((0.30, 0.40), (0.30, 0.45)), ((0.25, 0.45), (0.25, 0.50)),
                     ((0.20, 0.50), (0.20, 0.55)))}
P = KSParams(a=10.0, b=1.0, eps=0.1, M1=1.0, M2=10.0)


def _stack(grid, n, seed):
    rng = np.random.default_rng(seed)
    return [np.stack(f) for f in zip(*(sample_adjoint_data(grid, rng) for _ in range(n)))]


@pytest.mark.parametrize("name", GRIDS)
def test_stacked_adjoint_march_equals_per_sample_marches(request, name):
    grid = request.getfixturevalue(name)
    data = _stack(grid, 4, 3)
    adj = solve_adjoint(P, *data, grid)
    assert adj.phi.shape == adj.xi.shape == (4, grid.m + 1, grid.num_nodes)
    for i in range(4):
        one = solve_adjoint(P, *(f[i] for f in data), grid)
        for got, want in ((adj.phi[i], one.phi), (adj.xi[i], one.xi),
                          (adj.phi[i, -1], one.phi[-1]), (adj.xi[i, -1], one.xi[-1])):
            assert np.array_equal(got, want)
        assert adj.phi[i].flags.c_contiguous and adj.xi[i].flags.c_contiguous
    # absent sources are zero for every sample of the stack
    none = solve_adjoint(P, data[0], data[1], None, None, grid)
    assert np.array_equal(none.xi[2], solve_adjoint(P, data[0][2], data[1][2], None, None,
                                                    grid).xi)


def test_stacked_adjoint_projects_and_warns_per_sample(params, grid_small):
    phiT, xiT, f1, f2 = _stack(grid_small, 3, 8)
    phiT[1] += 0.5   # only sample 1 carries a mean
    with pytest.warns(UserWarning, match="projected out") as caught:
        adj = solve_adjoint(params, phiT, xiT, f1, f2, grid_small)
    assert len(caught) == 1
    for i in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            one = solve_adjoint(params, phiT[i], xiT[i], f1[i], f2[i], grid_small)
        assert np.array_equal(adj.phi[i, -1], one.phi[-1]) and np.array_equal(adj.phi[i], one.phi)


@pytest.mark.parametrize("name", GRIDS)
def test_stacked_shapes_are_checked_whole(request, name):
    grid = request.getfixturevalue(name)
    phiT, xiT, f1, f2 = _stack(grid, 3, 1)
    with pytest.raises(ValueError, match="f2 has shape"):
        solve_adjoint(P, phiT, xiT, f1, f2[:2], grid)
    with pytest.raises(ValueError, match="source has shape"):
        solve_backward_heat(phiT, f1[0], grid)


@pytest.mark.parametrize("name", GRIDS)
def test_stacked_backward_heat_equals_per_sample_marches(request, name):
    grid = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    g = np.stack([sample_space_time(grid, rng) for _ in range(3)])
    source = neumann_laplacian(g.reshape(-1, grid.num_nodes), grid).reshape(g.shape)
    phiT = g[:, -1]
    phi = solve_backward_heat(phiT, source, grid)
    assert phi.flags.c_contiguous
    for i in range(3):
        assert np.array_equal(phi[i], solve_backward_heat(phiT[i], source[i], grid))


def _table(name, grid):
    eta = build_eta0(grid, *BOXES[name])
    return eta, carleman_weights(eta, weight_params(grid.T, 1.5, sigma0=0.05))


def _profile(table, grid, kind):
    """A log-weight profile; the flat ones put each log near 0, where the
    last bit of every sum shows (a heavy weight's log swamps it)."""
    if kind == "flat_step":
        return np.zeros(grid.m + 1)
    if kind == "flat_full":
        return np.zeros((grid.m + 1, grid.num_nodes))
    return log_weight_profile(table, "alpha", float(kind))


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("kind", ["flat_step", "flat_full", "3", "18"])
@pytest.mark.parametrize("pattern", ["shared", "mixed", "zero_row"])
def test_stacked_integral_equals_per_row_calls(request, name, kind, pattern):
    grid = request.getfixturevalue(name)
    eta, table = _table(name, grid)
    rng = np.random.default_rng(29)
    sq = np.stack([sample_space_time(grid, rng) ** 2 for _ in range(6)])
    if pattern == "shared":   # one node mask for the whole stack
        sq *= box_mask(grid, eta.omega)
    elif pattern == "mixed":  # each row its own zeros
        sq[rng.random(sq.shape) < 0.3] = 0.0
    else:
        sq[2] = 0.0
    log_w = _profile(table, grid, kind)
    if kind.startswith("flat"):
        for row in sq:
            row /= np.exp(log_space_time_integral(log_w, row, table)) if row.any() else 1.0
    finite = np.isfinite(log_w.reshape(len(log_w), -1))
    stacked, digests = log_space_time_integral(log_w, sq, table, {}, finite), {}
    assert stacked.shape == (6,)
    for row, got in zip(sq, stacked):
        want = log_space_time_integral(log_w, row, table, digests)
        assert isinstance(want, float) and got == want
    if pattern == "zero_row":
        assert stacked[2] == -np.inf and np.isfinite(np.delete(stacked, 2)).all()


def test_stacked_integral_rejects_a_non_finite_entry_in_any_row(grid_small, weights_small):
    rng = np.random.default_rng(4)
    sq = np.stack([sample_space_time(grid_small, rng) ** 2 for _ in range(3)])
    sq[2, grid_small.m // 2, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite integrand"):
        log_space_time_integral(log_weight_profile(weights_small, "beta", 4.0), sq, weights_small)


@pytest.mark.parametrize("name", GRIDS)
def test_a_zero_rhs_sample_in_a_stack_is_a_falsification(request, name):
    # sample 1 has no xi and no sources, so every rhs part of thm2.2 is
    # zero while its phi energy is not: it alone must be reported
    grid = request.getfixturevalue(name)
    eta, _ = _table(name, grid)
    alpha, _ = weight_families(eta, [0.05 * (grid.T**4 + grid.T**8)], 1.5)
    *data, f1, f2 = _stack(grid, 3, 5)
    adj = solve_adjoint(P, *data, f1, f2, grid)
    for field in (adj.xi, f1, f2):
        field[1] = 0.0

    def sources(f1, f2):   # the thm2.2 source terms, as adjoint_reports integrates them
        return [_scan(alpha, 10.0, "alpha", 10.0, f1**2), _scan(alpha, 3.0, "alpha", 3.0, f2**2)]

    mask = box_mask(grid, eta.omega_prime).astype(float)
    pairs = theorem22_report(adj, alpha, mask, sources(f1, f2))
    rep = CarlemanReport("thm2.2").add_samples(alpha, P.eps, pairs)
    assert [f["sample_id"] for f in rep.falsifications] == [1]
    assert np.isfinite(rep.falsifications[0]["log_lhs"])
    # the other two rows are what each sample gives as a stack of one
    for i in (0, 2):
        one = AdjointTrajectory(adj.phi[i:i + 1], adj.xi[i:i + 1], P, grid)
        assert pairs[i] == theorem22_report(one, alpha, mask,
                                            sources(f1[i:i + 1], f2[i:i + 1]))[0]
