"""The grid's face table and the density step's CSC pattern against the code
they replaced, kept as oracles, in 1D, 2D square and 2D non-square: the
pattern is built once per grid and read-only but for its one matrix's data,
which every factor of a march refills while a live factor keeps its solves,
the chemotaxis matrix N(v) on it, columns back in grid order, against the
COO double-loop build of ``oracles.chem_matrix_oracle``, the two operators
``chemotaxis_divergence`` and ``neumann_laplacian`` against the
per-dimension numpy slice kernels, the divergence, the Laplacian, the H1
seminorm and the L2 norm of many slices against one call per slice, the
matrix-free M(v)u of the chord loop against the matrix the density step
factors, the three density marches (both couplings and the
parabolic-elliptic limit) against the per-step matrix build, the chord march
of the implicit coupling against the fixed point that refactors every
iterate, and a stack of runs in one march against its runs one at a time,
failures and a non-finite run included, down to the eps-sweep rows.  The
Laplacian's matrix apply keeps zero weighted sums and annihilates constants."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ksctl import ks_model
from ksctl.grid import (build_grid, chemotaxis_divergence, h1_seminorm_sq, inner, l2_norm,
                        l2_sq, mass, neumann_laplacian)
from ksctl.ks_model import (BlowUpError, Control, InnerIterationError, KSParams,
                            smooth_cutoff, solve_forward_pe, solve_forward_pp)
from ksctl.nonlinear_control import eps_sweep, picard_solve
from oracles import (chem_matrix_oracle, density_matrix_oracle, implicit_march_oracle,
                     single_march_oracle)

GRIDS = {
    "1d": (1, 1.0, 40, 1.0, 16),
    "2d-square": (2, (1.0, 1.0), (10, 10), 1.0, 16),
    "2d-nonsquare": (2, (1.0, 0.8), (12, 9), 1.0, 16),
}


def _lap_1d_np(f, h):
    out = np.empty_like(f)
    inv = 1.0 / (h * h)
    out[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) * inv
    out[0] = 2.0 * (f[1] - f[0]) * inv
    out[-1] = 2.0 * (f[-2] - f[-1]) * inv
    return out


def _lap_2d_np(f, hx, hy):
    out = np.empty_like(f)
    ix = 1.0 / (hx * hx)
    iy = 1.0 / (hy * hy)
    out[1:-1, :] = (f[:-2, :] - 2.0 * f[1:-1, :] + f[2:, :]) * ix
    out[0, :] = 2.0 * (f[1, :] - f[0, :]) * ix
    out[-1, :] = 2.0 * (f[-2, :] - f[-1, :]) * ix
    out[:, 1:-1] += (f[:, :-2] - 2.0 * f[:, 1:-1] + f[:, 2:]) * iy
    out[:, 0] += 2.0 * (f[:, 1] - f[:, 0]) * iy
    out[:, -1] += 2.0 * (f[:, -2] - f[:, -1]) * iy
    return out


def _chemdiv_1d_np(u, v, h, cw):
    flux = 0.5 * (u[:-1] + u[1:]) * (v[1:] - v[:-1]) / h
    out = np.zeros_like(u)
    out[:-1] += flux
    out[1:] -= flux
    return out / cw


def _chemdiv_2d_np(u, v, hx, hy, cwx, cwy):
    fx = 0.5 * (u[:-1, :] + u[1:, :]) * (v[1:, :] - v[:-1, :]) / hx
    fy = 0.5 * (u[:, :-1] + u[:, 1:]) * (v[:, 1:] - v[:, :-1]) / hy
    dx = np.zeros_like(u)
    dx[:-1, :] += fx
    dx[1:, :] -= fx
    dy = np.zeros_like(u)
    dy[:, :-1] += fy
    dy[:, 1:] -= fy
    return dx / cwx[:, None] + dy / cwy[None, :]


def laplacian_oracle(f, grid):
    if grid.dim == 1:
        return _lap_1d_np(f, grid.h[0])
    return _lap_2d_np(f.reshape(grid.shape), *grid.h).ravel()


def chemdiv_oracle(u, v, grid):
    if grid.dim == 1:
        return _chemdiv_1d_np(u, v, grid.h[0], grid.axis_weights(0))
    return _chemdiv_2d_np(u.reshape(grid.shape), v.reshape(grid.shape), *grid.h,
                          grid.axis_weights(0), grid.axis_weights(1)).ravel()


def chem_matrix(v, grid):
    """N(v) as the density step assembles it on the grid's cached pattern,
    its columns back in grid order."""
    pat = ks_model._density_pattern(grid)
    return sp.csc_matrix((pat.chem_data(v), pat.indices, pat.indptr))[:, pat.perm_c]


class DensityStepOracle:
    """The density step as it was built before the cached stencil, with the
    solve interface of the factor that replaced it."""

    def __init__(self, v, grid):
        self.M = density_matrix_oracle(v, grid)

    def solve(self, rhs):
        return spla.spsolve(self.M, rhs)


@pytest.fixture(params=sorted(GRIDS))
def grid(request):
    return build_grid(*GRIDS[request.param])


def fields(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.num_nodes), rng.standard_normal(grid.num_nodes)


def test_density_pattern_is_built_once_and_read_only(grid):
    pat = ks_model._density_pattern(grid)
    assert ks_model._density_pattern(grid) is pat
    arrays = pat[1:-1]   # every array between the grid's faces and the matrix
    assert all(isinstance(a, np.ndarray) for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = a[0]
    # the one matrix sits on the pattern's own arrays: its data is the only
    # buffer a factor writes
    assert pat.matrix.indices is pat.indices and pat.matrix.indptr is pat.indptr
    assert pat.matrix.data.flags.writeable


@pytest.mark.parametrize("blocks", [1, 3])
def test_a_factor_keeps_its_solves_when_the_next_overwrites_the_matrix(grid, blocks):
    # SuperLU copies the values into its own L and U: a live factor solves
    # bit for bit as before, and as a fresh splu of its own matrix, after a
    # later factor on the same pattern overwrote the shared buffer
    pat = ks_model._density_pattern(grid, blocks)
    rng = np.random.default_rng(8)
    nn = blocks * grid.num_nodes
    b, vs = rng.standard_normal(nn), rng.standard_normal((2, nn))
    datas = [pat.eye - grid.dt * (pat.lap - pat.chem_data(v)) for v in vs]
    first = pat.factor(datas[0])
    before = first.solve(b)
    second = pat.factor(datas[1])
    assert np.array_equal(pat.matrix.data, datas[1])
    assert np.array_equal(first.solve(b), before)
    for lu, data in zip((first, second), datas):
        own = sp.csc_matrix((data.copy(), pat.indices.copy(), pat.indptr.copy()), shape=(nn, nn))
        fresh = spla.splu(own, permc_spec="NATURAL")
        assert np.array_equal(lu.solve(b), fresh.solve(b)[pat.perm_c])


@pytest.mark.parametrize("march", ["lagged", "pe"])
def test_every_factor_of_a_march_is_on_the_one_matrix(grid, march, monkeypatch):
    # the chemical factor and M(v) each step hand splu the pattern's matrix:
    # no sparse matrix is built per factor
    p, u0, v0, c = forward_data(grid)
    pat = ks_model._density_pattern(grid)
    factored, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda M, **kw: factored.append(M) or splu(M, **kw))
    MARCHES[march](p, u0, v0, c, grid)
    assert len(factored) == grid.m + 1
    assert all(M is pat.matrix for M in factored)


def test_chem_matrix_matches_coo_oracle(grid):
    _, v = fields(grid)
    # same terms summed in the same order: equal, not just close
    assert np.array_equal(chem_matrix(v, grid).toarray(),
                          chem_matrix_oracle(v, grid).toarray())


def test_chem_matrix_applies_chemotaxis_divergence(grid):
    u, v = fields(grid, seed=1)
    out = chem_matrix(v, grid) @ u
    ref = chemotaxis_divergence(u, v, grid)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_chemotaxis_divergence_equals_slice_kernel(grid):
    # same fluxes, same per-node sums, axes added x first: equal bit for bit
    u, v = fields(grid, seed=4)
    assert np.array_equal(chemotaxis_divergence(u, v, grid), chemdiv_oracle(u, v, grid))


def test_batched_chemotaxis_divergence_equals_per_slice_calls(grid):
    # the Picard source takes all m+1 slices in one call; each row is summed
    # in its slice's own order, so it equals the single call bit for bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((2, grid.m + 1, grid.num_nodes))
        want = [chemotaxis_divergence(u[k], v[k], grid) for k in range(grid.m + 1)]
        assert np.array_equal(chemotaxis_divergence(u, v, grid), np.array(want))


def _inner_with_reversed(f, grid):   # each row against itself reversed: a strided operand
    return inner(f, f[..., ::-1], grid)


@pytest.mark.parametrize("op", [neumann_laplacian, h1_seminorm_sq, l2_sq, l2_norm, mass,
                                _inner_with_reversed])
def test_batched_grid_reductions_equal_per_slice_calls(grid, op):
    # a (slices, nodes) array in one call, each row reduced as its slice
    # alone would be: equal bit for bit
    for seed in range(20):
        f = np.random.default_rng(seed).standard_normal((grid.m + 1, grid.num_nodes))
        assert np.array_equal(op(f, grid), np.array([op(x, grid) for x in f]))


def test_neumann_laplacian_matches_slice_kernel(grid):
    # the matrix apply versus (f_l - 2 f + f_r)/h^2 per axis: roundoff only
    f, _ = fields(grid, seed=5)
    ref = laplacian_oracle(f, grid)
    assert np.abs(neumann_laplacian(f, grid) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_neumann_laplacian_has_zero_weighted_sum(grid):
    # W A = 0 column by column, so the apply conserves mass to roundoff
    W = grid.quad_weights
    for seed in range(20):
        lap = neumann_laplacian(np.random.default_rng(seed).standard_normal(grid.num_nodes), grid)
        assert abs(W @ lap) <= 1e-15 * (W @ np.abs(lap))


@pytest.mark.parametrize("args", [*GRIDS.values(), (2, (1.0, 1.0), (32, 32), 1.0, 16)])
def test_neumann_laplacian_annihilates_constants(args):
    # a 1D row sums c - 2c + c, exactly 0; the 2D diagonal -2/hx^2 - 2/hy^2
    # is rounded, so a constant maps to roundoff of c/h^2
    grid, c = build_grid(*args), 3.7
    out = neumann_laplacian(np.full(grid.num_nodes, c), grid)
    if grid.dim == 1:
        assert np.all(out == 0.0)
    else:
        assert np.abs(out).max() <= 1e-15 * c / min(grid.h) ** 2


def test_density_residual_is_rhs_minus_the_factored_matrix(grid, monkeypatch):
    # the chord loop's matrix-free M(v) u on the face table against the
    # matrix the density step factors, its columns back in grid order
    rhs, u = fields(grid, seed=6)
    _, v = fields(grid, seed=7)
    factored, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda M, **kw: factored.append(M) or splu(M, **kw))
    lu = ks_model._density_factor(v, grid)
    want = rhs - factored[-1][:, lu.perm_c] @ u
    got = ks_model._density_residual(rhs, u, v, grid)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_chem_matrix_columns_have_zero_weighted_sum(grid):
    # W N(v) = 0 column by column: every density conserves mass
    _, v = fields(grid, seed=2)
    N = chem_matrix(v, grid)
    colsum = grid.quad_weights @ N.toarray()
    scale = np.abs(N.toarray()).max() * grid.quad_weights.max()
    assert np.abs(colsum).max() <= 1e-13 * scale


def forward_data(grid, eps=0.5):
    p = KSParams(a=10.0, b=1.0, eps=eps, M1=1.0, M2=10.0)
    box = [[0.25, 0.45]] * grid.dim
    chi = smooth_cutoff(grid, box, [[0.20, 0.50]] * grid.dim)
    rng = np.random.default_rng(3)
    x = grid.node_coords
    u0 = p.M1 + 0.05 * np.cos(np.pi * x[:, 0])
    v0 = p.M2 + 0.1 * np.cos(np.pi * x[:, -1])
    c = Control(g=0.1 * rng.standard_normal((grid.m + 1, grid.num_nodes)), chi=chi)
    return p, u0, v0, c


MARCHES = {
    "lagged": lambda p, u0, v0, c, grid: solve_forward_pp(p, u0, v0, c, grid),
    "implicit": lambda p, u0, v0, c, grid: solve_forward_pp(p, u0, v0, c, grid,
                                                            coupling="implicit"),
    "pe": lambda p, u0, v0, c, grid: solve_forward_pe(p, u0, c, grid),
}
ORACLE_CASES = [(march, eps) for march in MARCHES for eps in (0.5, 1e-3)]


@pytest.mark.parametrize("march,eps", ORACLE_CASES, ids=[
    march if eps == 0.5 else f"{march}-{eps}" for march, eps in ORACLE_CASES])
def test_forward_pp_matches_oracle_stepper(grid, march, eps, monkeypatch):
    # the factor on the per-grid column order against a fresh matrix per
    # step: the same pivots and solves, so the marches are equal bit for bit
    p, u0, v0, c = forward_data(grid, eps)
    new = MARCHES[march](p, u0, v0, c, grid)
    # the pattern is laid out in the column order of the grid's one factor
    # of I - dt A; the chemical solve's factor is the march's own, not cached
    assert set(grid._cache) == {"density", ("heat",)}
    monkeypatch.setattr(ks_model, "_density_factor", DensityStepOracle)
    ref = MARCHES[march](p, u0, v0, c, grid)
    assert np.array_equal(new.u, ref.u) and np.array_equal(new.v, ref.v)


@pytest.mark.parametrize("eps", [0.5, 1e-3])
def test_implicit_chord_march_matches_oracle(grid, eps, monkeypatch):
    # the chord iterates converge to the same fixed point M(v*) u* = u[k]
    # as the refactor-per-iterate march, so both stop within inner_tol of it
    p, u0, v0, c = forward_data(grid, eps)
    ref = implicit_march_oracle(p, u0, v0, c, grid)
    calls = {"splu": 0, "spsolve": 0}
    for name in calls:
        def counted(*args, _f=getattr(spla, name), _n=name, **kwargs):
            calls[_n] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(spla, name, counted)
    new = solve_forward_pp(p, u0, v0, c, grid, coupling="implicit")
    # one splu a step, one for the march's v step and one more made once on
    # this fresh grid: the heat factor that fixes the density column order
    assert calls == {"splu": grid.m + 2, "spsolve": 0}
    for got, want in ((new.u, ref.u), (new.v, ref.v)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def stack_data(grid):
    """Three runs from one initial state: eps 0.5, 1e-3, 0.1 under controls
    of amplitude 0.1, 3, 0.2; their implicit steps take different numbers
    of inner iterates, the small eps the most."""
    p, u0, v0, _ = forward_data(grid)
    rng = np.random.default_rng(3)
    ps = [replace(p, eps=eps) for eps in (0.5, 1e-3, 0.1)]
    cs = [Control(g=amp * rng.standard_normal((grid.m + 1, grid.num_nodes)),
                  chi=smooth_cutoff(grid, [[0.25, 0.45]] * grid.dim, [[0.20, 0.50]] * grid.dim))
          for amp in (0.1, 3.0, 0.2)]
    return ps, u0, v0, cs


def _residual_calls(monkeypatch, march):
    """The chord iterates past the first that ``march()`` makes."""
    calls, residual = [0], ks_model._density_residual

    def counted(*args):
        calls[0] += 1
        return residual(*args)

    monkeypatch.setattr(ks_model, "_density_residual", counted)
    march()
    monkeypatch.setattr(ks_model, "_density_residual", residual)
    return calls[0]


@pytest.mark.parametrize("coupling", ["lagged", "implicit"])
def test_a_stack_equals_its_runs_one_at_a_time(grid, coupling, monkeypatch):
    # the blocks share each step's factor and go on until the last block
    # converges; a frozen block keeps its values, so every block equals its
    # own march bit for bit, and a stack of one is the march of one run
    ps, u0, v0, cs = stack_data(grid)
    implicit = coupling == "implicit"
    want = [single_march_oracle(p, u0, v0, c, grid, implicit) for p, c in zip(ps, cs)]
    got = solve_forward_pp(ps, u0, v0, cs, grid, coupling)
    one = [solve_forward_pp(p, u0, v0, c, grid, coupling) for p, c in zip(ps, cs)]
    for w, g, o, p in zip(want, got, one, ps):
        assert g.params is o.params is p
        for a in (g, o):
            assert np.array_equal(a.u, w.u) and np.array_equal(a.v, w.v)
    if implicit:   # the runs need different numbers of inner iterates
        counts = {_residual_calls(monkeypatch, lambda p=p, c=c: solve_forward_pp(
            p, u0, v0, c, grid, coupling)) for p, c in zip(ps, cs)}
        assert len(counts) == 3


FAILURES = [   # (setting, value, which runs fail on their own, at which steps)
    ("INNER_MAXIT", 25, [None, 1, None]),
    ("INNER_MAXIT", 20, [None, 1, 1]),
    ("BLOWUP_CAP", 1.07, [None, 15, None]),
    ("BLOWUP_CAP", 1.045, [1, 13, 1]),
]


@pytest.mark.parametrize("setting,value,steps", FAILURES)
def test_a_stack_raises_the_first_failure_of_its_lowest_block(setting, value, steps,
                                                              monkeypatch):
    # the stack raises at the first step where a block fails, the error of
    # the lowest-index block that failed there, as its own march raised it
    grid = build_grid(*GRIDS["1d"])
    ps, u0, v0, cs = stack_data(grid)
    monkeypatch.setattr(ks_model, setting, value)
    errors = []
    for p, c in zip(ps, cs):
        try:
            single_march_oracle(p, u0, v0, c, grid, True)
            errors.append(None)
        except (InnerIterationError, BlowUpError) as err:
            errors.append(err)
    assert [err and err.step for err in errors] == steps
    first = min(step for step in steps if step)
    want = errors[steps.index(first)]
    with pytest.raises(type(want)) as got:
        solve_forward_pp(ps, u0, v0, cs, grid, "implicit")
    assert got.value.step == want.step and str(got.value) == str(want)


@pytest.mark.parametrize("coupling", ["lagged", "implicit"])
def test_a_non_finite_run_in_a_stack_raises_its_own_error(grid, coupling):
    # the middle run's control holds a NaN at step k: the stack raises that
    # run's own error at step k, with no RuntimeWarning on the way (pytest
    # makes any an error), and the other two march cleanly as a stack of two
    ps, u0, v0, cs = stack_data(grid)
    k = grid.m // 2
    cs[1].g[k, grid.num_nodes // 2] = np.nan
    with pytest.raises(RuntimeError) as single:
        solve_forward_pp(ps[1], u0, v0, cs[1], grid, coupling)
    with pytest.raises(RuntimeError) as stacked:
        solve_forward_pp(ps, u0, v0, cs, grid, coupling)
    assert str(stacked.value) == str(single.value) == f"non-finite v at step {k}"
    rest = solve_forward_pp(ps[::2], u0, v0, cs[::2], grid, coupling)
    for got, p, c in zip(rest, ps[::2], cs[::2]):
        want = solve_forward_pp(p, u0, v0, c, grid, coupling)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


def test_eps_sweep_rows_are_the_picard_runs(params, grid_small, weights_small, chi_small):
    # the loops run one eps at a time and the verification marches as one
    # stack: each row equals picard_solve at its eps exactly
    x = grid_small.axes[0]
    u0 = params.M1 + 0.01 * np.cos(np.pi * x)
    v0 = np.full_like(x, params.M2)
    rep = eps_sweep(params, u0, v0, weights_small, chi_small, grid_small,
                    eps_list=(1.0, 0.1, 0.001))
    assert len(rep.rows) == 3 and not rep.excluded
    for row in rep.rows:
        r = picard_solve(replace(params, eps=row["eps"]), u0, v0, weights_small,
                         chi_small, grid_small)
        assert row == {"eps": row["eps"], "g_l2h1": r.g_l2h1, "iterations": r.iterations,
                       "terminal_residual": r.terminal_history[-1],
                       "forward_residual": r.forward_residual, "converged": r.converged}
