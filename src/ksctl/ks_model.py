"""Forward solvers: nonlinear chemotaxis, its parabolic-elliptic limit, and
the linearization around the constant state.

All steppers are implicit Euler.  The chemotaxis term is semi-implicit:
linear in the new density, with the chemical gradient lagged one step (the
implicit coupling resolves the lag by a fixed point).  Every operator
involved has exactly zero weighted sum, so the cell-density mass is
conserved to solver roundoff by construction, with or without control.

Both nonlinear systems, in either coupling, step a stack of runs through one
density march, a block per run; the parabolic-elliptic limit is a block kind
of it whose chemical step is the parabolic one with eps = 0 and a unit time
step.  Each step fills M(v) = I - dt (A - N(v)) face by face into the one
matrix on the Laplacian's CSC pattern, a block per run, factors it once and
solves once: the whole lagged step; the implicit coupling continues by chord
corrections on the same factor.  The pattern, laid out once per grid and block
count in the column order of :func:`heat_factor`, has one factor call: M(v)
per step, once per march the chemical step's eps I - dt A + dt b I or b I - A
per block, each block as a plain ``splu`` of it alone.  A list of runs marches
in consecutive stacks within the ``STACK_NNZ`` budget.  A non-finite u or v
stops the march.

The linearized stepper is the operator whose exact algebraic transpose
drives the dual machinery.  Its coefficients have one source,
:func:`linearized_step`: C = P0 I + P1 A blockwise and D, from which the
sparse C and C* here and the dual CG's 2x2 block per cosine mode are built.
The constant-coefficient marches (these two and the backward heat march)
are one factor from :meth:`Grid.factor` driven by :func:`block_march`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, _Faces, _check_field, _divergence, _read_only, check_all, check_zero_mass

__all__ = [
    "KSParams",
    "Control",
    "StateTrajectory",
    "BlowUpError",
    "InnerIterationError",
    "smooth_cutoff",
    "solve_forward_pp",
    "solve_linearized",
]

STEADY_TOL = 1e-12
INNER_TOL = 1e-13   # the implicit coupling's fixed-point tolerance per step
INNER_MAXIT = 60    # its iterate cap per step
BLOWUP_CAP = 1e6    # the density march stops once |u|_inf passes this
# SuperLU nnz of one density stack, counted as nnz(I - dt A) per run: a stack
# saves SuperLU's fixed per-call cost only while its factor stays in cache (a
# pair marched in 0.63 of its two marches' time at 1D n=50, 1.14 at 2D 48x48)
STACK_NNZ = 64_000


class BlowUpError(RuntimeError):
    """Density norm passed ``BLOWUP_CAP`` (chemotaxis blow-up guard)."""

    def __init__(self, step: int, value: float, cap: float):
        super().__init__(
            f"|u|_inf = {value:.3e} exceeded cap {cap:.3e} at step {step}"
        )
        self.step = step
        self.value = value
        self.cap = cap


class InnerIterationError(RuntimeError):
    """The implicit-coupling fixed point hit ``INNER_MAXIT`` within one step."""

    def __init__(self, step: int, delta: float, iterations: int):
        super().__init__(f"implicit coupling unconverged at step {step}: last "
                         f"delta = {delta:.3e} after {iterations} inner iterations")
        self.step, self.delta = step, delta


@dataclass(frozen=True)
class KSParams:
    """Coupling constants, relaxation parameter and the constant state."""

    a: float
    b: float
    eps: float
    M1: float
    M2: float

    def __post_init__(self):
        gap = self.a * self.M1 - self.b * self.M2
        check_all([
            (self.a > 0 and self.b > 0, "a and b must be positive"),
            (0.0 < self.eps <= 1.0, f"eps must lie in (0, 1], got {self.eps}"),
            (abs(gap) < STEADY_TOL, "M1, M2 violate steady-state compatibility: "
                                    f"a*M1 - b*M2 = {gap:.3e} (must be 0)"),
        ])


@dataclass(frozen=True)
class Control:
    """Space-time control amplitude ``g`` and its smooth spatial cutoff."""

    g: np.ndarray    # (m+1, nodes)
    chi: np.ndarray  # (nodes,)

    @staticmethod
    def zero(grid: Grid, chi: np.ndarray) -> "Control":
        return Control(g=np.zeros((grid.m + 1, grid.num_nodes)), chi=chi)


def _smoothstep(r: np.ndarray) -> np.ndarray:
    r = np.clip(r, 0.0, 1.0)
    return r * r * r * (10.0 + r * (-15.0 + 6.0 * r))


def smooth_cutoff(grid: Grid, omega_prime, omega) -> np.ndarray:
    """C^2 plateau cutoff: 1 on omega_prime, 0 outside omega, in [0, 1]."""
    bp = np.atleast_2d(np.asarray(omega_prime, dtype=float))
    bw = np.atleast_2d(np.asarray(omega, dtype=float))
    pts = grid.node_coords
    chi = np.ones(grid.num_nodes)
    for ax in range(grid.dim):
        (a, b), (ap, bpr) = bw[ax], bp[ax]
        x = pts[:, ax]
        up = _smoothstep((x - a) / (ap - a))
        down = _smoothstep((b - x) / (b - bpr))
        chi *= np.where((x > a) & (x < b), np.minimum(up, down), 0.0)
    return chi


@dataclass
class StateTrajectory:
    """Discrete (u, v) or (z, w) fields over all time steps."""

    u: np.ndarray  # (m+1, nodes)
    v: np.ndarray
    params: KSParams
    grid: Grid


def heat_factor(grid: Grid):
    """The grid's one factor of I - dt A: the backward heat march steps on
    it, the density step lays its pattern out in its column order (COLAMD
    sees only the pattern), and its nnz sizes the density stacks."""
    return grid.factor(("heat",), lambda: (
        sp.identity(grid.num_nodes, format="csr") - grid.dt * grid.laplacian_matrix))


class _OrderedFactor(NamedTuple):
    """SuperLU factor ``lu`` of a matrix with its columns in the order ``perm_c``."""

    lu: spla.SuperLU
    perm_c: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b)[self.perm_c]


class _DensityPattern(NamedTuple):
    """M(v)'s CSC pattern, the Laplacian's per diagonal block, columns in the
    order of :func:`heat_factor` per block: column j at position ``perm_c[j]``,
    rows sorted.  ``lap`` and ``eye`` hold the Laplacian's and the identity's
    data on it.  Face (l, r) puts 0.5 (v_r - v_l)/h into slots (l,l), (l,r) over
    +cw_l and (r,l), (r,r) over -cw_r (``cw4`` per slot); faces run axis by
    axis in C order, so each diagonal sums in the order of the COO build.
    ``matrix`` has read-only indices and indptr; each factor refills its data."""

    faces: tuple
    lap: np.ndarray
    eye: np.ndarray
    cw4: np.ndarray
    slots: np.ndarray
    perm_c: np.ndarray
    matrix: sp.csc_matrix

    def factor(self, data: np.ndarray) -> _OrderedFactor:
        """The one factor of a matrix with ``data`` on the pattern, on SuperLU's own
        column order from :func:`heat_factor`: each block's pivots and solves are
        a plain splu's (COLAMD, then the etree postorder).  SuperLU copies the
        values into its own L and U, so the next factor may reuse ``matrix``."""
        self.matrix.data[:] = data
        return _OrderedFactor(spla.splu(self.matrix, permc_spec="NATURAL"), self.perm_c)

    def chem_data(self, v: np.ndarray) -> np.ndarray:
        """N(v)'s data on the pattern."""
        coeff = np.concatenate([0.5 * ((v[f.right] - v[f.left]) / f.h) for f in self.faces])
        return np.bincount(self.slots, np.repeat(coeff, 4) / self.cw4,
                           minlength=len(self.lap))


def _density_pattern(grid: Grid, blocks: int = 1) -> _DensityPattern:
    patterns = grid._cache.setdefault("density", {})
    if blocks not in patterns:
        nn, at = blocks * grid.num_nodes, grid.num_nodes * np.arange(blocks)[:, None]
        perm_c = (heat_factor(grid).perm_c.astype(np.intp) + at).ravel()   # int32: ~1 us/gather
        order = np.argsort(perm_c)   # the column at each position
        A = sp.block_diag([grid.laplacian_matrix] * blocks, format="csc")[:, order]
        A.sort_indices()
        faces = tuple(_Faces(*((x + at).ravel() for x in (f.left, f.right)), f.h,
                             np.tile(f.cw, blocks)) for f in grid.faces)
        pos = np.repeat(np.arange(nn), np.diff(A.indptr))   # each slot's column position
        l = np.concatenate([f.left for f in faces])
        r = np.concatenate([f.right for f in faces])
        cwl = np.concatenate([f.cw[f.left] for f in faces])
        cwr = np.concatenate([f.cw[f.right] for f in faces])
        A.indices.flags.writeable = A.indptr.flags.writeable = False   # the layout stays
        patterns[blocks] = _DensityPattern(faces, *(_read_only(a) for a in (
            A.data.copy(), np.where(order[pos] == A.indices, 1.0, 0.0),
            np.column_stack([cwl, cwl, -cwr, -cwr]).ravel(),
            np.searchsorted(pos * nn + A.indices,   # ascending keys
                            (perm_c[np.column_stack([l, r, l, r])] * nn
                             + np.column_stack([l, l, r, r])).ravel()),
            perm_c)), A)
    return patterns[blocks]


def _density_factor(v: np.ndarray, grid: Grid) -> _OrderedFactor:
    """Block-diagonal factor of M(v) = I - dt (A - N(v)) per grid-sized block of ``v``."""
    pat = _density_pattern(grid, v.size // grid.num_nodes)
    return pat.factor(pat.eye - grid.dt * (pat.lap - pat.chem_data(v)))


def _density_residual(rhs: np.ndarray, u: np.ndarray, v: np.ndarray, grid: Grid):
    """rhs - M(v) u, matrix-free and block by block: M(v) u = u - dt div(q)
    with the face flux q = ((u_r - u_l) - 0.5 (u_l + u_r)(v_r - v_l)) / h."""
    div = _divergence(_density_pattern(grid, u.size // grid.num_nodes).faces, lambda f: (
        ((r := u[f.right]) - (l := u[f.left])) - 0.5 * (l + r) * (v[f.right] - v[f.left])) / f.h)
    return rhs - (u - grid.dt * div)


def _density_march(ps: list, cs: list, kinds: list, u0: np.ndarray, v0: np.ndarray,
                   grid: Grid) -> list:
    """The one density march, of the runs ``ps`` under ``cs`` as blocks in
    lockstep, each of the coupling ``kinds[e]``: per step one factor of M(v[k]),
    the lagged step u = M(v[k])^-1 u[k], v = (eps I - tau A + tau b I)^-1 (eps
    v[k] + tau (a u + g chi)), tau = dt, on one factor per march; an elliptic
    block is the same v step with eps = 0 and tau = 1, and starts from the
    elliptic solve of u0.  An implicit block iterates the chord fixed point u +=
    M(v[k])^-1 (u[k] - M(v) u) until the update is below INNER_TOL, a block that
    stops iterating on zeros and keeping its values while others go on, so each
    keeps its own bits."""
    E, m, nn, dt = len(ps), grid.m, grid.num_nodes, grid.dt
    elliptic, implicit = ([k == kind for k in kinds] for kind in ("elliptic", "implicit"))
    coeffs = [(0.0, 1.0, pi.b, pi.a) if ell else (pi.eps, dt, pi.b, pi.a)
              for pi, ell in zip(ps, elliptic)]
    pat = _density_pattern(grid, E)
    eps_b, tau_b, b_b, _ = np.repeat(coeffs, len(pat.lap) // E, axis=0).T
    lu_v = pat.factor(eps_b * pat.eye - tau_b * pat.lap + tau_b * b_b * pat.eye)   # once per march
    eps, tau, _, a = np.repeat(coeffs, nn, axis=0).T
    src = np.stack([ci.g * ci.chi for ci in cs], axis=1).reshape(m + 1, -1)

    def chem(u, fixed, s):   # a step's fixed part eps v[k] is formed once for all its iterates
        return lu_v.solve(fixed + tau * (a * u + s))

    u, v = np.empty((2, m + 1, E * nn))
    u[0], v[0] = np.tile(u0, E), np.tile(v0, E)
    if True in elliptic:
        v[0] = np.where(np.repeat(elliptic, nn), chem(u[0], 0.0, src[0]), v[0])
    for name, f in (("u0", u[0]), ("v0", v[0])):   # NaN < 0 is False: no sign check sees it
        if not np.isfinite(f).all():
            raise ValueError(f"initial {name} must be finite")
    for k in range(m):
        lu, fixed, sk = _density_factor(v[k], grid), eps * v[k], src[k + 1]
        uk1 = lu.solve(u[k])
        vk1 = chem(uk1, fixed, sk)
        delta, its = [0.0] * E, [1] * E   # a lagged or elliptic block takes one solve
        if True in implicit:
            # each block's max |du|, |dv|: np.maximum and max keep a NaN of either
            delta = [d if i else 0.0 for d, i in zip(np.maximum(
                abs(uk1 - u[k]), abs(vk1 - v[k])).reshape(E, -1).max(1).tolist(), implicit)]
            while True in (go := [INNER_TOL <= d < math.inf and i < INNER_MAXIT
                                  for d, i in zip(delta, its)]):
                u_it, v_it = uk1, vk1
                if False in go:
                    keep = np.repeat(go, nn)
                    u_it, v_it = np.where(keep, uk1, 0.0), np.where(keep, vk1, 0.0)
                u_next = u_it + lu.solve(_density_residual(u[k], u_it, v_it, grid))
                v_next = chem(u_next, fixed, sk)
                step = np.maximum(abs(u_next - u_it), abs(v_next - v_it)).reshape(E, -1).max(1)
                step, its = step.tolist(), [i + g for i, g in zip(its, go)]
                if u_it is uk1:
                    uk1, vk1, delta = u_next, v_next, step
                else:   # the masked copy
                    uk1, vk1 = np.where(keep, u_next, uk1), np.where(keep, v_next, vk1)
                    delta = [s if g else d for s, d, g in zip(step, delta, go)]
        failed = not (float(np.abs(uk1).max()) <= BLOWUP_CAP and np.isfinite(vk1).all()
                      and all(d < INNER_TOL for d in delta))
        for e in range(E if failed else 0):   # the lowest-index failed block raises
            peak, ve = float(np.abs(uk1[e * nn:(e + 1) * nn]).max()), vk1[e * nn:(e + 1) * nn]
            for name, finite in (("u", math.isfinite(peak)), ("v", np.isfinite(ve).all())):
                if not finite:
                    raise RuntimeError(f"non-finite {name} at step {k + 1}")
            if not delta[e] < INNER_TOL:
                raise InnerIterationError(k + 1, delta[e], its[e])
            if peak > BLOWUP_CAP:
                raise BlowUpError(k + 1, peak, BLOWUP_CAP)
        u[k + 1], v[k + 1] = uk1, vk1
    return [StateTrajectory(ue, ve, p, grid)   # views: a stack of one is the whole array
            for p, ue, ve in zip(ps, np.split(u, E, axis=1), np.split(v, E, axis=1))]


def solve_forward_pp(p: KSParams | list, u0: np.ndarray, v0: np.ndarray, c: Control | list,
                     grid: Grid, coupling: str | list = "lagged") -> StateTrajectory | list:
    """March one run from (u0, v0) under control ``c``, or lists ``p``, ``c`` of
    runs into a list of trajectories in input order, each bit for bit its own
    march; ``coupling`` names one coupling for every run or one per run.

    ``'lagged'`` is the default semi-implicit parabolic scheme (chemical
    gradient one step behind).  ``'implicit'`` resolves each step by an inner
    fixed point, so its linearization around the constant state equals the
    linearized block stepper exactly, as the nonlinear control verification
    requires (the lagged one differs at O(dt) in the coupling).  ``'elliptic'``
    is the lagged parabolic-elliptic limit: its chemical solves the elliptic
    problem from u0 on, so only the parabolic runs read v0.

    The runs march in consecutive stacks of at most ``STACK_NNZ`` //
    nnz(I - dt A) runs.  A march raises :class:`BlowUpError` once a density
    passes ``BLOWUP_CAP``, and :class:`InnerIterationError` at an implicit step
    still above ``INNER_TOL`` after ``INNER_MAXIT`` iterates.  Within a stack,
    the lowest-index run that fails at the earliest failing step raises its
    own error; an earlier stack's failure raises before a later stack marches.
    """
    ps, cs = (p, c) if isinstance(p, list) else ([p], [c])
    kinds = [coupling] * len(ps) if isinstance(coupling, str) else list(coupling)
    for name, f, rows in (("u0", u0, ()), ("v0", v0, ()),
                          *(("g", ci.g, (grid.m + 1,)) for ci in cs)):
        _check_field(f, grid, rows, name)
    if np.any(u0 < 0) or np.any(v0 < 0):
        raise ValueError("initial data must be nonnegative")
    for kind in kinds:
        if kind not in ("lagged", "implicit", "elliptic"):
            raise ValueError(f"unknown coupling {kind!r}")
    if not len(ps) == len(cs) == len(kinds):
        raise ValueError(f"{len(ps)} runs, {len(cs)} controls and {len(kinds)} couplings")
    size = max(1, STACK_NNZ // heat_factor(grid).nnz)
    out = [t for i in range(0, len(ps), size) for t in _density_march(
        ps[i:i + size], cs[i:i + size], kinds[i:i + size], u0, v0, grid)]
    return out if isinstance(p, list) else out[0]


def linearized_step(p: KSParams, dt: float):
    """The one source of the linearized implicit Euler step's coefficients, (D,
    P0, P1): C X^{k+1} = D X^k + dt F^{k+1} with C = P0 I + P1 A blockwise and D =
    diag(1, eps); A is self-adjoint for the trapezoid weights, so C* = P0^T I + P1^T A."""
    return (np.array([1.0, p.eps]), np.array([[1.0, 0.0], [-dt * p.a, p.eps + dt * p.b]]),
            np.array([[-dt, dt * p.M1], [0.0, -dt]]))


def block_step_factor(p: KSParams, grid: Grid, adjoint: bool):
    """Factor of the block step C of :func:`linearized_step`, or of C* if
    ``adjoint``; a zero coefficient adds no term, so no block stores a zero."""
    def build():
        I, A = sp.identity(grid.num_nodes, format="csr"), grid.laplacian_matrix
        P0, P1 = (P.T if adjoint else P for P in linearized_step(p, grid.dt)[1:])
        def block(c0, c1):   # c0 I + c1 A without its zero terms, None if both are zero
            terms = [c * M for c, M in ((c0, I), (c1, A)) if c != 0.0]
            return sum(terms[1:], terms[0]) if terms else None
        return sp.bmat([[block(P0[i, j], P1[i, j]) for j in (0, 1)] for i in (0, 1)], format="csc")
    return grid.factor(("adj" if adjoint else "lin", p), build)


def block_march(lu, X: np.ndarray, F: np.ndarray, d, dt: float, backward: bool) -> np.ndarray:
    """X[next] = lu.solve(d * X[prev] + dt * F[k + 1]) on the flat
    (m + 1, parts * nodes) slices of ``X``, or on (m + 1, parts * nodes,
    samples) as one multi-column solve per step: forward from the filled
    X[0] (prev = k, next = k + 1), or ``backward`` from the filled X[m]
    (prev = k + 1, next = k).  Returns ``X``."""
    m = X.shape[0] - 1
    for k in range(m - 1, -1, -1) if backward else range(m):
        src, dst = (k + 1, k) if backward else (k, k + 1)
        X[dst] = lu.solve(d * X[src] + dt * F[k + 1])
    return X


def solve_linearized(p: KSParams, z0: np.ndarray, w0: np.ndarray, c: Control,
                     h1: np.ndarray | None, h2: np.ndarray | None,
                     grid: Grid) -> StateTrajectory:
    """March the linearization around (M1, M2) with sources (h1, h2).

    Preconditions: the density source h1 must have zero weighted spatial
    mean at every step (membership in the source space), and so must z0;
    violations beyond 1e-10 are rejected.
    """
    nn, m = grid.num_nodes, grid.m
    zeros = np.zeros((m + 1, nn))
    h1 = zeros if h1 is None else h1
    h2 = zeros if h2 is None else h2
    for name, f, rows in (("z0", z0, ()), ("w0", w0, ()), ("h1", h1, (m + 1,)),
                          ("h2", h2, (m + 1,)), ("g", c.g, (m + 1,))):
        _check_field(f, grid, rows, name)

    check_zero_mass(h1, grid, "h1")
    check_zero_mass(z0, grid, "z0")

    X = np.empty((m + 1, 2, nn))
    X[0] = z0, w0
    F = np.stack([h1, c.g * c.chi + h2], axis=1)
    d = np.repeat(linearized_step(p, grid.dt)[0], nn)
    block_march(block_step_factor(p, grid, False), X.reshape(m + 1, 2 * nn),
                F.reshape(m + 1, 2 * nn), d, grid.dt, False)
    return StateTrajectory(u=X[:, 0], v=X[:, 1], params=p, grid=grid)
