"""Local null control of the full chemotaxis system by fixed-point iteration.

Shifting to fluctuation variables around the constant state turns the
nonlinear problem into the linearized one driven by its own quadratic
remainder.  The damped Picard loop feeds the remainder of the current
iterate as the density source of the weighted least-squares control solve;
the conservative flux stencil makes that source exactly mean free at every
step, which is the membership condition the source space demands.

On convergence the loop's fixed point is an exact discrete solution of the
implicitly-coupled nonlinear stepper, so the final forward verification
(one nonlinear march with the final control) must land within the stated
multiple of the loop tolerance; this distinguishes true nonlinear control
from mere convergence of the iteration.  The eps sweep runs every loop
first, then verifies all converged eps in one stacked march.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import (Grid, chemotaxis_divergence, h1_seminorm_sq, l2_norm, l2_sq, mass,
                   neumann_laplacian)
from .hum_control import ControlProblem, SolverSettings, apply_L, extract_control, solve_dual
from .ks_model import Control, KSParams, solve_forward_pp, solve_linearized
from .weights import WeightTable, _logsumexp, log_step_sum, log_weight_profile

__all__ = [
    "NonlinearControlResult",
    "SweepReport",
    "picard_solve",
    "forward_residual",
    "eps_sweep",
    "e_norm",
]


@dataclass
class NonlinearControlResult:
    converged: bool
    iterations: int
    terminal_history: list
    update_history: list
    control: Control | None
    z: np.ndarray | None
    w: np.ndarray | None
    g_l2h1: float
    forward_residual: float
    failure_reason: str | None = None
    curvature_ok: bool = True   # False: a dual solve falsified positivity


@dataclass
class SweepReport:
    """Per-eps control norms from converged runs plus the uniformity ratio."""

    rows: list = field(default_factory=list)
    excluded: list = field(default_factory=list)

    @property
    def uniformity_ratio(self) -> float:
        norms = [r["g_l2h1"] for r in self.rows if r["g_l2h1"] > 0.0]
        if not norms:   # 1.0 for converged all-zero controls, nan if none converged
            return 1.0 if self.rows else float("nan")
        return max(norms) / min(norms)


def _terminal_norm(zT: np.ndarray, wT: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(l2_norm(zT, grid) ** 2 + l2_norm(wT, grid) ** 2))


def _picard_loop(p: KSParams, u0: np.ndarray, v0: np.ndarray, weights: WeightTable,
                 chi: np.ndarray, grid: Grid, settings: SolverSettings) -> NonlinearControlResult:
    """The Picard loop of :func:`picard_solve`, up to its verification.

    Across iterations it holds z and w, the last extracted control and its
    g_l2h1, the two histories and the latest dual's failure and curvature
    flag.  Each iteration's problem, h1, dual and extraction go before the
    next dual solve, and the free march's trajectory goes once z and w are
    replaced.
    """
    scale = max(1.0, float(np.abs(u0).max()))
    mean = float(mass(u0, grid) / grid.volume)
    if abs(mean - p.M1) > 1e-10 * scale:
        raise ValueError(f"mean of u0 is {mean!r}, must equal M1 = {p.M1}")
    z0 = u0 - p.M1
    w0 = v0 - p.M2

    free = solve_linearized(p, z0, w0, Control.zero(grid, chi), None, None, grid)
    z, w = free.u, free.v
    del free

    damping = settings.damping
    term_hist: list = []
    upd_hist: list = []
    control, g_l2h1 = None, np.nan
    converged = False
    best_term = np.inf
    for it in range(1, settings.maxit + 1):
        prob = ControlProblem(params=p, grid=grid, weights=weights, chi=chi, z0=z0, w0=w0,
                              h1=-chemotaxis_divergence(z, w, grid), settings=settings)
        dual = solve_dual(prob)
        failure, curvature_ok = dual.failure, dual.curvature_ok
        if failure:
            break
        res = extract_control(dual, prob)
        del prob, dual
        control, g_l2h1 = res.control, res.g_l2h1
        term = _terminal_norm(res.uhat[-1], res.vhat[-1], grid)
        upd = max(float(np.abs(res.uhat - z).max()), float(np.abs(res.vhat - w).max()))
        term_hist.append(term)
        upd_hist.append(upd)
        if term > best_term * 1.5 and damping > 0.1:
            damping *= 0.5
        best_term = min(best_term, term)
        z = (1.0 - damping) * z + damping * res.uhat
        w = (1.0 - damping) * w + damping * res.vhat
        del res
        if term < settings.tol and upd < settings.tol:
            converged = True
            break

    reason = None if converged else (f"{failure} in Picard iteration {it}"
                                     if failure else "no_convergence")
    return NonlinearControlResult(
        converged=converged, iterations=it, terminal_history=term_hist,
        update_history=upd_hist, control=control, z=z, w=w, g_l2h1=g_l2h1,
        forward_residual=np.inf, failure_reason=reason, curvature_ok=curvature_ok,
    )


def _verify(ps: list, results: list, u0: np.ndarray, v0: np.ndarray, grid: Grid,
            settings: SolverSettings) -> None:
    """Verify every converged run's final control in one stacked implicit march."""
    done = [(p, r) for p, r in zip(ps, results) if r.converged]
    runs = solve_forward_pp([p for p, _ in done], u0, v0, [r.control for _, r in done],
                            grid, "implicit") if done else []
    for (p, r), t in zip(done, runs):
        r.forward_residual = _terminal_norm(t.u[-1] - p.M1, t.v[-1] - p.M2, grid)
        if r.forward_residual >= 2.0 * settings.tol:
            r.converged, r.failure_reason = False, "forward_verification"


def picard_solve(p: KSParams, u0: np.ndarray, v0: np.ndarray,
                 weights: WeightTable, chi: np.ndarray, grid: Grid,
                 settings: SolverSettings = SolverSettings()) -> NonlinearControlResult:
    """Damped Picard iteration on the remainder-driven control solves, verified.

    Preconditions: the density initial datum must carry exactly the target
    mass (mass(u0)/|domain| = M1) and both data must be admissible
    fluctuations.  Convergence means terminal residual and update norm both
    under ``settings.tol``; the damping starts at ``settings.damping`` and
    halves whenever the terminal residual increases.
    """
    result = _picard_loop(p, u0, v0, weights, chi, grid, settings)
    _verify([p], [result], u0, v0, grid, settings)
    return result


def forward_residual(p: KSParams, u0: np.ndarray, v0: np.ndarray,
                     control: Control, grid: Grid, coupling: str) -> float:
    """Terminal distance from (M1, M2) of the nonlinear march from (u0, v0)
    under ``control``, with the given ``coupling`` of the stepper."""
    t = solve_forward_pp(p, u0, v0, control, grid, coupling=coupling)
    return _terminal_norm(t.u[-1] - p.M1, t.v[-1] - p.M2, grid)


def eps_sweep(p_template: KSParams, u0: np.ndarray, v0: np.ndarray,
              weights: WeightTable, chi: np.ndarray, grid: Grid, eps_list,
              settings: SolverSettings = SolverSettings()) -> SweepReport:
    """Run the Picard control per eps with identical weights and settings, each
    row as :func:`picard_solve` at its eps.  The weight tables never depend on
    eps, so they are shared.  Entries that fail to converge are excluded from
    the uniformity ratio and carry the ``failure_reason`` and ``curvature_ok``
    of their Picard run."""
    ps = [replace(p_template, eps=float(eps)) for eps in eps_list]
    # a row reads no Picard iterate: each eps keeps only its control for the march
    results = [replace(_picard_loop(p, u0, v0, weights, chi, grid, settings), z=None, w=None)
               for p in ps]
    _verify(ps, results, u0, v0, grid, settings)
    report = SweepReport()
    for p, r in zip(ps, results):
        row = {
            "eps": p.eps, "g_l2h1": r.g_l2h1, "iterations": r.iterations,
            "terminal_residual": r.terminal_history[-1] if r.terminal_history else np.inf,
            "forward_residual": r.forward_residual, "converged": r.converged,
        }
        if r.converged:
            report.rows.append(row)
        else:
            row.update(failure_reason=r.failure_reason, curvature_ok=r.curvature_ok)
            report.excluded.append(row)
    return report


# ---------------------------------------------------------------------------
# weighted norms of the fluctuation triplet
# ---------------------------------------------------------------------------


def _capped(profile: np.ndarray, cap: float) -> np.ndarray:
    """Cap a reciprocal log-profile at (its finite minimum) - log(cap).  NaNs
    from inf - inf at the singular terminal step mean the reciprocal weight
    blows up there, so they are +inf before capping."""
    profile = np.where(np.isnan(profile), np.inf, profile)
    return np.minimum(profile, profile[np.isfinite(profile)].min() - np.log(cap))


def e_norm(z: np.ndarray, w: np.ndarray, g: np.ndarray,
           weights: WeightTable, params: KSParams, chi: np.ndarray,
           grid: Grid, settings: SolverSettings) -> dict:
    """Component-wise weighted norms of a fluctuation triplet (z, w, g), as
    the log of each norm; components whose weights blow up at the terminal
    time can legitimately be infinite on arbitrary inputs.  Every reciprocal
    weight profile is bounded at ``1/settings.weight_floor`` times its
    minimum, matching the working weights of a control solve with ``settings``.

    Components: the three terminal-vanishing state/control weights, the two
    residual weights of the operator pair, and the three regularity weights
    (with the top Sobolev level reduced by one: the grid carries two robust
    derivative levels).
    """
    dt, cap = grid.dt, settings.weight_floor

    def sq_h1(fields: np.ndarray, lap: np.ndarray | None = None) -> np.ndarray:
        return l2_sq(fields, grid) + h1_seminorm_sq(fields, grid, lap)

    def recip(kind: str, power: float) -> np.ndarray:
        return _capped(-log_weight_profile(weights, kind, power), cap)

    def steps(profile: np.ndarray, sq: np.ndarray) -> float:
        # the profile's steps 0..m-1 pair with slices 1..m of the stepper output
        return log_step_sum(profile[:-1], dt * sq)

    # each Laplacian product once: z over all slices, w over slices 1..m
    lap_z, lap_w = neumann_laplacian(z, grid), neumann_laplacian(w[1:], grid)
    L1, L2 = apply_L(z, w, params, grid, (lap_z[1:], lap_w))
    # full (x-dependent) weight for the chemical residual, H1 in space; it
    # overflows to +inf, and a NaN square (inf - inf) is dropped as -inf
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = np.exp(0.5 * recip("beta", 2.0)[1:]) * (L2 - g[1:] * chi[None, :])
        total5 = float(np.sum(dt * sq_h1(weighted))) if np.all(np.isfinite(weighted)) else np.inf
    # regularity weights (H2 / H1 levels), mixing the per-step extrema
    tsb_star = log_weight_profile(weights, "beta_star", 0.0)
    tsb_hat = log_weight_profile(weights, "beta_hat", 0.0)
    lgh = weights.log_factor.min(axis=1)
    with np.errstate(invalid="ignore"):
        log_c6 = 2.0 * _capped(0.25 * tsb_star - 0.5 * tsb_hat + (13.0 / 8.0) * lgh, cap)
        log_c7 = 2.0 * _capped(-(0.25 * tsb_star) - (25.0 / 8.0) * lgh, cap)
    h1_z = sq_h1(z, lap_z)   # its rows 1..m are the H1 part of z[1:]'s H2 square
    with np.errstate(divide="ignore"):
        linf_logs = log_c6 + np.log(h1_z)
    finite_linf = linf_logs[np.isfinite(linf_logs)]
    # log of each squared norm
    sq_logs = {
        "state_u": steps(recip("beta_star", 10.0), l2_sq(z[1:], grid)),
        "state_v": steps(recip("beta_star", 3.0), l2_sq(w[1:], grid)),
        "control_g": steps(recip("beta_star", 18.0), l2_sq(chi * g[1:], grid)),
        "residual_density": steps(recip("beta_hat", 3.0), l2_sq(L1, grid)),
        "residual_chemical_h1": float(np.log(total5)) if total5 > 0.0 else -np.inf,
        "state_u_h2": float(np.logaddexp(
            steps(log_c6, h1_z[1:] + l2_sq(lap_z[1:], grid)),
            float(finite_linf.max()) if finite_linf.size else -np.inf)),
        "state_v_h2": steps(log_c7, sq_h1(w[1:], lap_w) + l2_sq(lap_w, grid)),
        "control_g_h1": steps(log_c7, sq_h1(g[1:])),
    }
    # the log of each norm; a NaN log (inf - inf) means an overflow
    out = {name: v if v == -np.inf else 0.5 * v if np.isfinite(v) else np.inf
           for name, v in sq_logs.items()}
    finite = [t for t in out.values() if np.isfinite(t)]
    out["total"] = np.inf if np.inf in out.values() else _logsumexp(finite) if finite else -np.inf
    return out
