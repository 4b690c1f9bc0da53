"""Variational null control of the linearized system.

The dual unknown is a full space-time pair (z, w).  The quadratic form

    a(Z, Z) = sum_j dt rho1_j |L*(Z)_1^j|_W^2  +  sum_j dt rho2_j |L*(Z)_2^j|_W^2
            + sum_j dt rho3_j |chi w^j|_W^2
            + tau ( |z^m|_W^2 + eps |w^m|_W^2 )

uses the starred (space-uniform) weight profiles rho1/rho2/rho3 with powers
10, 3, 18.  Those profiles span thousands of orders of magnitude, so they
are normalised by one common constant (tracked as a log) -- the extracted
control and trajectory are invariant under such common rescaling -- and
floored at a configurable fraction of their maximum, because they underflow
to exactly zero near the terminal time for any realistic Carleman
parameter.  The tau term is the discrete stand-in for the coercivity the
continuum form only has on its abstract completion: it acts on the terminal
slice alone, which keeps the Euler-Lagrange solution an *exact* discrete
forward solution of the problem's own data and pins the minimiser's terminal
state to exactly +tau (zhat^m, what^m); the computed control meets that to
the CG stopping residual (up to ~6e-5 of |u(T)| when w0 is nonzero).

Minimisation is conjugate gradients run in orthonormal cosine coordinates
of the weighted source/terminal slots (:class:`_DualSystem`, built once per
solve), where the zero-mean-at-T constraint on the z-component is mode 0 of
the terminal z slice, set to zero at every iterate.  The CG energy
decreases strictly; negative curvature would falsify positive-definiteness
of the discrete form and is reported as such.  The solution carries the
floored profiles, so extraction builds nothing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import (Grid, check_all, check_zero_mass, h1_seminorm_sq, l2_norm, l2_sq,
                   neumann_laplacian)
from .ks_model import Control, KSParams, linearized_step, solve_linearized
from .weights import WeightTable, log_step_sum, log_weight_profile

__all__ = [
    "SolverSettings",
    "ControlProblem",
    "DualSolution",
    "ControlResult",
    "ExtractionError",
    "apply_L",
    "solve_dual",
    "extract_control",
]

LSTAR_POWERS = (10.0, 3.0, 18.0)
CROSSVAL_TOL = 1e-8


class ExtractionError(RuntimeError):
    """Cross-validation of the extracted control failed its tolerance."""


@dataclass(frozen=True)
class SolverSettings:
    """The ``solver`` section of a run: the Picard loop's and the dual CG's
    knobs and the Carleman sampling, with their defaults and their rules.
    The fields keep the order of the section in ``configs/default.yaml``."""

    tol: float = 1e-6           # Picard terminal/update tolerance
    maxit: int = 20
    tau: float = 1e-8           # terminal penalization of the dual problem
    damping: float = 1.0
    cg_tol: float = 1e-12
    cg_maxit: int = 2000
    weight_floor: float = 1e-6  # relative floor on the normalised weight profiles
    n_samples: int = 20
    seed: int = 20260809

    def __post_init__(self):
        check_all([
            (self.tol >= 0, "tol must be nonnegative"),
            (self.cg_tol >= 0, "cg_tol must be nonnegative"),
            (self.tau > 0, "tau must be positive"),
            (0.0 < self.weight_floor <= 1.0, "weight_floor must lie in (0, 1]"),
            (self.maxit >= 1, "maxit must be at least 1"),
            (self.cg_maxit >= 1, "cg_maxit must be at least 1"),
            (self.n_samples >= 1, "n_samples must be at least 1"),
            (0.0 < self.damping <= 1.0, "damping must lie in (0, 1]"),
            (self.seed >= 0, "seed must be nonnegative"),
        ])


@dataclass
class ControlProblem:
    """Data and solver settings for one linearized null-control solve."""

    params: KSParams
    grid: Grid
    weights: WeightTable
    chi: np.ndarray
    z0: np.ndarray
    w0: np.ndarray
    h1: np.ndarray | None = None
    settings: SolverSettings = SolverSettings()

    def __post_init__(self):
        check_zero_mass(self.z0, self.grid, "z0")
        if self.h1 is not None:
            check_zero_mass(self.h1, self.grid, "h1")


@dataclass
class DualSolution:
    zhat: np.ndarray
    what: np.ndarray
    value: float
    iterations: int
    residual_history: np.ndarray
    energy_history: np.ndarray
    converged: bool
    curvature_ok: bool
    # residual pair L*(zhat, what) as the solver knows it; recomputing it
    # from the marched trajectory would re-amplify roundoff through the
    # stencil, so extraction reads these slots
    lstar1: np.ndarray
    lstar2: np.ndarray
    # the floored weight profiles rho1..rho3 over steps 0..m-1, normalised
    # by exp(log_c): the family extraction reads its control and norms from
    rho: list
    log_c: float

    @property
    def failure(self) -> str | None:
        """Why no control may be extracted from this solution, or None."""
        if not self.curvature_ok:
            return "negative curvature falsifies the discrete scalar product"
        if not np.isfinite(self.residual_history[-1]):
            return f"CG residual is not finite at iteration {self.iterations}"
        return None if self.converged else (
            f"CG hit maxit={self.iterations} (residual {self.residual_history[-1]:.3e})")


@dataclass
class ControlResult:
    """Extracted control, controlled trajectory, and its weighted norms.

    The weighted norms are reported in physical (unnormalised) units as logs
    of the norm: their exponentials overflow for realistic weights.
    """

    control: Control
    uhat: np.ndarray
    vhat: np.ndarray
    terminal_u: float
    terminal_v: float
    log_weighted_u: float
    log_weighted_v: float
    log_weighted_g: float
    g_l2h1: float
    crossval_rel: float


# ---------------------------------------------------------------------------
# discrete L (plain stencil, no weights)
# ---------------------------------------------------------------------------


def apply_L(u: np.ndarray, v: np.ndarray, p: KSParams, grid: Grid, laps=None):
    """Forward residual pair on slices 1..m:

        L1^k = (u^k - u^{k-1})/dt - Lap u^k + M1 Lap v^k
        L2^k = eps (v^k - v^{k-1})/dt - Lap v^k + b v^k - a u^k

    ``laps``, if given, holds (Lap u[1:], Lap v[1:]) already made.
    """
    dt = grid.dt
    Au, Av = laps or (neumann_laplacian(u[1:], grid), neumann_laplacian(v[1:], grid))
    L1 = (u[1:] - u[:-1]) / dt - Au + p.M1 * Av
    L2 = p.eps * (v[1:] - v[:-1]) / dt - Av + p.b * v[1:] - p.a * u[1:]
    return L1, L2


# ---------------------------------------------------------------------------
# the dual system
# ---------------------------------------------------------------------------


def _dot(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> float:
    # a fixed-order reduction: BLAS ddot sums in an order that depends on
    # its thread count, and cg_tol sits close enough to roundoff to show it
    return float(np.add.reduce(np.multiply(x, y, out=out).ravel()))


class _DualSystem:
    """The weighted normal equations of one control problem, built once per
    solve: the floored weight profiles, the right-hand side and projection
    in the raw space-time coordinates Z (layout (2, m+1, nodes)), and the
    minimisation in modal coordinates.  In raw coordinates the weight
    profiles put the dual directions so many orders of magnitude apart that
    no preconditioner or sparse factorization reaches the accuracy the
    extraction identities need.

    A dual candidate Z is in bijection with (F, theta) = (L* Z, Z^m) through
    the backward march S.  Scaling each slot by the square root of its
    weight (y = sqrt(dt rho W) F, sqrt(tau d W) theta) turns the quadratic
    form into |y|^2 + |G y|^2, G the chi-localised weighted observation of
    the marched flow: an identity plus a compact Gramian, which plain CG
    handles in a few dozen iterations, and whose residual maps back to
    *weight suppressed* physical defects instead of being amplified by the
    inverse weights.

    Every block of the adjoint step C* is a polynomial in the Neumann
    Laplacian, so S marches in its cosine eigenbasis Q, one 2x2 matrix per
    eigenvalue l, P0^T + P1^T l (:func:`~ksctl.ks_model.linearized_step`).  The CG
    runs on yhat = U y, U = diag(sqrt(c/L)) Q W^1/2 per slice, which is
    orthogonal, so its iterates are those on y.  The slot scaling and Q^-1
    merge into one diagonal, ``diag``; only G^T G = dt rho3 W chi^2 acts on
    nodes, on w; and U's mode-0 row is sqrt(W/|domain|), so the zero-mean
    constraint on theta_z is mode 0 of the terminal z slice.

    It owns the CG's workspace: work arrays Z, which :meth:`march` writes, and
    T, which :meth:`march_T` writes and which holds, while otherwise free,
    march's scaled input, the Gramian's node-space observation and the CG's
    dot-product terms; every sweep step's views (``scan``); one scan scratch.
    """

    def __init__(self, prob: ControlProblem):
        self.prob, p, grid = prob, prob.params, prob.grid
        self.m, self.nn = grid.m, grid.num_nodes
        W, dt = grid.quad_weights, grid.dt

        log_profiles = [
            log_weight_profile(prob.weights, "beta_star", k)[:self.m] for k in LSTAR_POWERS
        ]
        self.log_c = float(max(lp.max() for lp in log_profiles))
        imbalance = self.log_c - min(lp.max() for lp in log_profiles)
        if imbalance > 25.0:  # families more than ~e^25 apart
            warnings.warn(
                f"weighted blocks are {imbalance:.0f} nats apart; the dual "
                "solve degrades when gamma* strays far from 1 (pick T so "
                "that e^lambda (4/T^2)^4 is order one)",
                stacklevel=3,
            )
        self.rho = [np.maximum(r, prob.settings.weight_floor * r.max())
                    for r in (np.exp(lp - self.log_c) for lp in log_profiles)]

        self.basis = grid.cosine_basis
        D, P0, P1 = linearized_step(p, dt)
        c = P0.T[..., None] + P1.T[..., None] * self.basis.lam   # C* per cosine mode
        det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
        if not np.all(det != 0.0):
            raise RuntimeError("the adjoint block step is singular in a cosine mode")
        self.inv = np.array([[c[1, 1], -c[0, 1]], [-c[1, 0], c[0, 0]]]) / det
        self.d = D[:, None]
        self.Z, self.T = np.empty((2, 2, self.m + 1, self.nn))
        self._prod = np.empty((2, 2, self.nn))   # one step's two products
        B = max(1, int(np.sqrt(32.0 * (self.m + 1) / self.nn)))
        r = (self.m - 1) % B + 1
        scratch = np.empty((2, 2, (self.m - r) // B, B - 1, self.nn))   # empty if B = 1
        self.scan = {}   # per direction: inv and the views of _sweep's steps
        for backward, inv in ((True, self.inv), (False, self.inv.transpose(1, 0, 2))):
            powers = [inv * self.d]
            while len(powers) < B:
                powers.append(np.einsum("ikn,kln->iln", powers[-1], powers[0]))
            cols = np.stack(powers, axis=2).transpose(1, 0, 2, 3).copy()   # K^1..K^B
            self.scan[backward] = inv, *self._plan(cols, r, scratch, backward)

        # yhat is laid out as Z: per component the modes of the scaled sources
        # F^0..F^{m-1}, then of the scaled terminal slice; Q (diag yhat) = (dt F, theta)
        root, tau = np.sqrt(self.basis.inv_norm_sq), prob.settings.tau
        self.diag = np.concatenate([np.sqrt(dt / np.stack(self.rho[:2]))[:, :, None] * root,
                                    (root / np.sqrt(tau * self.d))[:, None]], axis=1)
        # G^T G acts on the w source slices: dt rho3 W chi^2
        self.gtg = dt * self.rho[2][:, None] * W * prob.chi**2

    def raw_rhs(self) -> np.ndarray:
        """Right-hand side of the normal equations in raw coordinates Z."""
        prob, grid = self.prob, self.prob.grid
        W, dt = grid.quad_weights, grid.dt
        b = np.zeros((2, self.m + 1, self.nn))
        if prob.h1 is not None:
            b[0, :-1] += dt * W[None, :] * prob.h1[1:]
        b[0, 0] += W * prob.z0
        b[1, 0] += self.d[1] * W * prob.w0
        return b

    def raw_project(self, Z: np.ndarray) -> np.ndarray:
        """Euclidean-orthogonal projection of Z onto {sum_p W_p z^m_p = 0}."""
        W = self.prob.grid.quad_weights
        Z[0, -1] -= _dot(W, Z[0, -1]) / _dot(W, W) * W
        return Z

    def project(self, y: np.ndarray) -> np.ndarray:
        """Zero mode 0 of the terminal z slice: the zero-mean constraint."""
        y[0, -1, 0] = 0.0
        return y

    def _plan(self, cols, r, scratch, backward):
        """One direction's sweep as views (see :meth:`_sweep`): the steps inside
        the chunks, the single steps and chunk ends, and the fix-up."""
        m, nn, B = self.m, self.nn, cols.shape[2]
        out = self.Z if backward else self.T
        seq = out[:, m - 1::-1] if backward else out[:, :-1]   # in step order
        chunks = seq[:, r:].reshape(2, (m - r) // B, B, nn)
        ends = seq[:, r - 1::B]   # the last step taken one by one, then each chunk's last
        pair = scratch.reshape(-1)[:2 * chunks[:, :, 0].size].reshape(2, 2, -1, nn)
        k, k_in, kB = cols[:, :, 0], cols[:, :, None, 0], cols[:, :, -1]   # K^1, K^B
        inner = [(chunks[:, :, i], k_in, chunks[:, None, :, i - 1], pair) for i in range(1, B)]
        prev = [out[:, -1] if backward else np.zeros((2, nn))] + [seq[:, j] for j in range(r)]
        steps = [(seq[:, j], k, prev[j][:, None]) for j in range(r)]
        steps += [(ends[:, c], kB, ends[:, c - 1, None]) for c in range(1, ends.shape[1])]
        fix = (chunks[:, :, :-1], cols[:, :, None, :-1], ends[:, None, :-1, None], scratch)
        return inner, steps, fix

    def _sweep(self, backward):
        """out^j = inv (src^j + D z), then z = out^j, for j = m-1..0 on Z with
        inv = C*^-1 if ``backward`` (z from Z^m), else j = 0..m-1 on T with
        inv = C*^-T (z from zero); one 2x2 solve per mode and step.  The
        caller leaves inv src^j in the source slots.  Returns the last z.

        z_j = b^j + K z_prev (b^j = inv src^j, K = inv D) has constant
        coefficients, so it is scanned in chunks of B steps (Blelloch 1990):
        the first 1..B steps one by one, so that whole chunks remain; the
        recurrence from zero inside all chunks at once; a pass over the chunk
        ends with K^B; and one fix-up adding K^i times the previous chunk's
        end to step i < B of every chunk.  B = max(1, floor(sqrt(32 (m+1) / nodes)))
        balances the B + m/B Python-level steps against the fix-up's work;
        it is 1 when nodes > 8 (m+1), and B = 1 is the step-by-step loop."""
        mul, add, (p0, p1) = np.multiply, np.add, self._prod

        def add_pair(out, c, z, s):   # out = out + (c0 z0 + c1 z1), c_l z_l in one multiply,
            s0, s1 = mul(c, z, s)     # summed in s: a sum into strided out is buffered, slower
            np.copyto(out, add(out, add(s0, s1, s1), s0))

        _, inner, steps, fix = self.scan[backward]
        for op in inner:   # the steps one by one are independent of the chunks
            add_pair(*op)
        for out, c, z in steps:   # out = (out + c0 z0) + c1 z1
            mul(c, z, self._prod)
            add(add(p0, out, p0), p1, out)
        add_pair(*fix)
        return steps[-1][0]

    def march(self, y: np.ndarray) -> np.ndarray:
        """The cosine modes of Z = S(dt F, theta): the backward march
        Z^j = C*^-1 (D Z^{j+1} + dt F^j) from the modes diag * yhat, left in T.
        Returns the work array Z, which the next march overwrites."""
        X, Z = np.multiply(y, self.diag, out=self.T), self.Z
        Z[:, -1] = X[:, -1]
        np.einsum("ikn,kjn->ijn", self.inv, X[:, :-1], out=Z[:, :-1])
        self._sweep(backward=True)
        return Z

    def march_T(self, V: np.ndarray, opened: bool = False) -> np.ndarray:
        """Euclidean transpose of :meth:`march`, T^j = C*^-T (V^j + D T^{j-1})
        for j = 0..m-1 (``opened``: T's source slots hold C*^-T V^j).  Returns
        the work array T, which the next march or march_T overwrites."""
        T = self.T
        if not opened:
            np.einsum("ikn,kjn->ijn", self.scan[False][0], V[:, :-1], out=T[:, :-1])
        t = self._sweep(backward=False)
        np.add(V[:, -1], np.multiply(self.d, t, out=T[:, -1]), out=T[:, -1])
        T *= self.diag
        return T

    def gramian_apply(self, y: np.ndarray) -> np.ndarray:
        """(G^T G) y: the backward march, the observation of w's source slices
        on the nodes (Q, G^T G, then Q^T = Q, in T's source slots), and the
        forward march from w's sources alone.  Returns T (see march_T)."""
        V = self.march(y)
        w, obs = V[1, :-1], self.T[1, :-1]
        self.basis.apply(w, obs)
        obs *= self.gtg
        self.basis.apply(obs, w)
        V[:, -1] = 0.0
        np.multiply(self.scan[False][0][:, 1, None], w, out=self.T[:, :-1])
        return self.march_T(V, opened=True)

    def rhs(self) -> np.ndarray:
        """The right-hand side, a fresh array: it outlives the next march."""
        return self.project(self.march_T(self.basis.apply(self.raw_rhs(), self.Z))).copy()


def solve_dual(problem: ControlProblem) -> DualSolution:
    """CG minimisation of the weighted least-squares dual functional.

    Runs in the cosine modes of the weighted source/terminal slots, where
    the normal operator is the identity plus a compact observation Gramian
    and an iteration transforms only w's source slices, to node space and
    back; maps back to Z once at the end.  Stops at relative residual
    ``cg_tol``, ``cg_maxit`` or the first residual or p.Ap not finite.  The
    recorded energy history (values of the quadratic functional) decreases
    strictly; non-positive curvature would falsify the discrete
    scalar-product property and flags the solution.

    The working set is the CG's four (2, m+1, nodes) vectors y, r, p and Ap,
    and the system's ``diag``, ``gtg`` (w's source slices), work arrays Z and
    T and the time scan's scratch (1.7 vectors at the 1D defaults, none when
    B = 1).  r starts as the right-hand side itself, Ap, read only for p.Ap,
    is the scratch of both scaled updates, and T that of the dot products.
    r, p and Ap go before the closing march, which marches y into Z, keeps
    the scaled y in T for L*, and allocates only the returned Z.
    """
    sys_ = _DualSystem(problem)
    settings = problem.settings

    r = sys_.rhs()
    y, pdir, Ap = np.zeros_like(r), r.copy(), np.empty_like(r)
    rr = rr0 = _dot(r, r, sys_.T)
    J, res_hist, en_hist = 0.0, [np.sqrt(rr)], [0.0]
    converged = rr0 == 0.0   # y = 0 solves a zero right-hand side
    curvature_ok, it = True, 0
    while not converged and it < settings.cg_maxit and np.isfinite(res_hist[-1]):
        it += 1
        sys_.project(np.add(pdir, sys_.gramian_apply(pdir), out=Ap))
        pAp = _dot(pdir, Ap, sys_.T)
        if not np.isfinite(pAp):   # no residual follows, and a NaN is no curvature
            res_hist.append(np.nan)
            break
        if pAp <= 0.0:
            curvature_ok = False
            break
        alpha = rr / pAp
        r -= np.multiply(alpha, Ap, out=Ap)
        y += np.multiply(alpha, pdir, out=Ap)
        J -= 0.5 * alpha * rr
        rr_new = _dot(r, r, sys_.T)
        res_hist.append(np.sqrt(max(rr_new, 0.0)))
        en_hist.append(J)
        converged = rr_new <= settings.cg_tol**2 * rr0
        if not converged:
            np.add(r, np.multiply(rr_new / rr, pdir, out=pdir), out=pdir)
            rr = rr_new
    del r, pdir, Ap
    Zh = sys_.march(y)   # y is projected: r, pdir and so y keep mode 0 at exactly 0
    # the marched z^m satisfies the zero-mean constraint by construction of
    # the projected theta slot; tidy roundoff anyway
    Z = sys_.raw_project(sys_.basis.apply(Zh, np.empty_like(Zh)))
    dtF = sys_.basis.apply(sys_.T, Zh)[:, :-1]   # the scaled y the march left in T
    return DualSolution(
        zhat=Z[0], what=Z[1], value=J, iterations=it,
        residual_history=np.asarray(res_hist), energy_history=np.asarray(en_hist),
        converged=converged, curvature_ok=curvature_ok,
        lstar1=dtF[0] / problem.grid.dt, lstar2=dtF[1] / problem.grid.dt,
        rho=sys_.rho, log_c=sys_.log_c,
    )


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def extract_control(dual: DualSolution, problem: ControlProblem) -> ControlResult:
    """Form the control and trajectory from the dual minimiser and verify.

    The trajectory is rebuilt by an independent forward march with the
    extracted control and the problem's own sources; by the discrete duality
    identity they must agree to solver roundoff, so a relative discrepancy
    above :data:`CROSSVAL_TOL` raises :class:`ExtractionError`.
    """
    p, grid = problem.params, problem.grid
    m, nn = grid.m, grid.num_nodes
    F1, F2 = dual.lstar1, dual.lstar2

    uhat = np.empty((m + 1, nn))
    vhat = np.empty((m + 1, nn))
    uhat[0], vhat[0] = problem.z0, problem.w0
    rho1, rho2, rho3 = dual.rho
    uhat[1:] = rho1[:, None] * F1
    vhat[1:] = rho2[:, None] * F2

    g = np.zeros((m + 1, nn))
    g[1:] = -rho3[:, None] * (problem.chi[None, :] * dual.what[:-1])
    control = Control(g=g, chi=problem.chi)

    ref = solve_linearized(p, problem.z0, problem.w0, control,
                           problem.h1, None, grid)
    scale_u = float(np.abs(uhat).max()) or 1.0
    scale_v = float(np.abs(vhat).max()) or 1.0
    crossval = max(
        float(np.abs(ref.u - uhat).max()) / scale_u,
        float(np.abs(ref.v - vhat).max()) / scale_v,
    )
    if crossval > CROSSVAL_TOL:
        raise ExtractionError(
            f"forward march deviates from extracted trajectory by {crossval:.3e} "
            f"(tolerance {CROSSVAL_TOL:.1e})"
        )

    # each block's weighted norm against the working (floored) weights of the
    # dual side, where it reduces to  sum_j dt rho_j |.|_W^2 / c  and stays
    # representable (the unfloored weights diverge against the capped tail)
    log_u, log_v, log_g = (
        0.5 * log_step_sum(np.log(rho) - dual.log_c, grid.dt * l2_sq(block, grid))
        for rho, block in zip(dual.rho, (F1, F2, problem.chi**2 * dual.what[:-1])))
    g_l2h1 = np.sqrt(grid.dt * np.sum(l2_sq(g[1:], grid) + h1_seminorm_sq(g[1:], grid)))
    return ControlResult(
        control=control, uhat=uhat, vhat=vhat,
        terminal_u=l2_norm(uhat[m], grid), terminal_v=l2_norm(vhat[m], grid),
        log_weighted_u=log_u, log_weighted_v=log_v, log_weighted_g=log_g,
        g_l2h1=float(g_l2h1), crossval_rel=crossval,
    )
