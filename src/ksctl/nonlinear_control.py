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
from mere convergence of the iteration.
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
        if not norms:
            return 1.0
        return max(norms) / min(norms)


def _terminal_norm(zT: np.ndarray, wT: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(l2_norm(zT, grid) ** 2 + l2_norm(wT, grid) ** 2))


def picard_solve(p: KSParams, u0: np.ndarray, v0: np.ndarray,
                 weights: WeightTable, chi: np.ndarray, grid: Grid,
                 settings: SolverSettings = SolverSettings()) -> NonlinearControlResult:
    """Damped Picard iteration on the remainder-driven linear control solves.

    Preconditions: the density initial datum must carry exactly the target
    mass (mass(u0)/|domain| = M1) and both data must be admissible
    fluctuations.  Convergence means terminal residual and update norm both
    under ``settings.tol``; the damping starts at ``settings.damping`` and
    halves whenever the terminal residual increases.
    """
    scale = max(1.0, float(np.abs(u0).max()))
    if abs(mass(u0, grid) / grid.volume - p.M1) > 1e-10 * scale:
        raise ValueError(
            f"mean of u0 is {mass(u0, grid) / grid.volume!r}, must equal M1 = {p.M1}"
        )
    z0 = u0 - p.M1
    w0 = v0 - p.M2

    free = solve_linearized(p, z0, w0, Control.zero(grid, chi), None, None, grid)
    z, w = free.u, free.v

    damping = settings.damping
    term_hist: list = []
    upd_hist: list = []
    result_ctl = None
    res = dual = None
    converged = False
    best_term = np.inf
    it = 0
    for it in range(1, settings.maxit + 1):
        h1 = -chemotaxis_divergence(z, w, grid)
        prob = ControlProblem(params=p, grid=grid, weights=weights, chi=chi,
                              z0=z0, w0=w0, h1=h1, settings=settings)
        dual = solve_dual(prob)
        if dual.failure:
            break
        res = extract_control(dual, prob)
        z_new, w_new = res.uhat, res.vhat
        term = _terminal_norm(z_new[-1], w_new[-1], grid)
        upd = max(float(np.abs(z_new - z).max()), float(np.abs(w_new - w).max()))
        term_hist.append(term)
        upd_hist.append(upd)
        if term > best_term * 1.5 and damping > 0.1:
            damping *= 0.5
        best_term = min(best_term, term)
        z = (1.0 - damping) * z + damping * z_new
        w = (1.0 - damping) * w + damping * w_new
        result_ctl = res.control
        if term < settings.tol and upd < settings.tol:
            converged = True
            break

    reason = None if converged else (f"{dual.failure} in Picard iteration {it}"
                                     if dual and dual.failure else "no_convergence")
    fwd_res = np.inf
    if converged:
        fwd_res = forward_residual(p, u0, v0, result_ctl, grid, "implicit")
        if fwd_res >= 2.0 * settings.tol:
            converged, reason = False, "forward_verification"
    return NonlinearControlResult(
        converged=converged, iterations=it, terminal_history=term_hist,
        update_history=upd_hist, control=result_ctl, z=z, w=w,
        g_l2h1=res.g_l2h1 if res else 0.0, forward_residual=fwd_res,
        failure_reason=reason, curvature_ok=dual is None or dual.curvature_ok,
    )


def forward_residual(p: KSParams, u0: np.ndarray, v0: np.ndarray,
                     control: Control, grid: Grid, coupling: str) -> float:
    """Terminal distance from (M1, M2) of the nonlinear march from (u0, v0)
    under ``control``, with the given ``coupling`` of the stepper."""
    t = solve_forward_pp(p, u0, v0, control, grid, coupling=coupling)
    return _terminal_norm(t.u[-1] - p.M1, t.v[-1] - p.M2, grid)


def eps_sweep(p_template: KSParams, u0: np.ndarray, v0: np.ndarray,
              weights: WeightTable, chi: np.ndarray, grid: Grid, eps_list,
              settings: SolverSettings = SolverSettings()) -> SweepReport:
    """Run the Picard control per eps with identical weights and settings.

    The weight tables never depend on eps, so they are shared.  Entries that
    fail to converge are excluded from the uniformity ratio and carry the
    ``failure_reason`` and ``curvature_ok`` of their Picard run.
    """
    report = SweepReport()
    for eps in eps_list:
        p = replace(p_template, eps=float(eps))
        r = picard_solve(p, u0, v0, weights, chi, grid, settings)
        row = {
            "eps": float(eps), "g_l2h1": r.g_l2h1, "iterations": r.iterations,
            "terminal_residual": r.terminal_history[-1] if r.terminal_history else 0.0,
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
    """Cap a reciprocal log-profile at (its finite minimum) - log(cap);
    cap = 0 keeps the true (uncapped) weights.  NaNs from inf - inf at the
    singular terminal step mean the reciprocal weight blows up there, so
    they are +inf before capping."""
    profile = np.where(np.isnan(profile), np.inf, profile)
    if cap <= 0.0:
        return profile
    finite = profile[np.isfinite(profile)]
    return np.minimum(profile, finite.min() - np.log(cap))


def e_norm(z: np.ndarray, w: np.ndarray, g: np.ndarray,
           weights: WeightTable, params: KSParams, chi: np.ndarray,
           grid: Grid, cap: float = 0.0) -> dict:
    """Component-wise weighted norms of a fluctuation triplet (z, w, g).

    Returns each component as a log (of the norm) plus the exponentiated
    value; components whose weights blow up at the terminal time can
    legitimately be infinite on arbitrary inputs.  ``cap`` bounds every
    reciprocal weight profile at ``1/cap`` times its minimum, matching the
    working weights of a control solve with ``weight_floor = cap``.

    Components: the three terminal-vanishing state/control weights, the two
    residual weights of the operator pair, and the three regularity weights
    (with the top Sobolev level reduced by one: the grid carries two robust
    derivative levels).
    """
    dt = grid.dt

    def sq_h1(fields: np.ndarray) -> np.ndarray:
        return l2_sq(fields, grid) + h1_seminorm_sq(fields, grid)

    def sq_h2(fields: np.ndarray) -> np.ndarray:
        return sq_h1(fields) + l2_sq(neumann_laplacian(fields, grid), grid)

    out: dict = {}

    def put(name: str, log_sq: float):
        if np.isneginf(log_sq):
            out[name] = {"log": float("-inf"), "value": 0.0}
        elif not np.isfinite(log_sq):
            out[name] = {"log": float("inf"), "value": float("inf")}
        else:
            out[name] = {
                "log": 0.5 * log_sq,
                "value": float(np.exp(0.5 * log_sq)) if log_sq < 1400 else np.inf,
            }

    def recip(kind: str, power: float) -> np.ndarray:
        return _capped(-log_weight_profile(weights, kind, power), cap)

    # terminal-vanishing weights (slices 1..m pair with the stepper output)
    prof_u, prof_v, prof_g = (recip("beta_star", k) for k in (10.0, 3.0, 18.0))
    prof_r1 = recip("beta_hat", 3.0)
    logw5 = recip("beta", 2.0)
    put("state_u", log_step_sum(prof_u[:-1], dt * l2_sq(z[1:], grid)))
    put("state_v", log_step_sum(prof_v[:-1], dt * l2_sq(w[1:], grid)))
    put("control_g", log_step_sum(prof_g[:-1], dt * l2_sq(chi * g[1:], grid)))

    # residual weights
    L1, L2 = apply_L(z, w, params, grid)
    h2res = L2 - g[1:] * chi[None, :]
    put("residual_density", log_step_sum(prof_r1[:-1], dt * l2_sq(L1, grid)))
    # full (x-dependent) weight for the chemical residual, H1 in space
    with np.errstate(over="ignore"):
        weighted = np.exp(0.5 * logw5[1:]) * h2res
    if np.all(np.isfinite(weighted)):
        total5 = float(np.sum(dt * sq_h1(weighted)))
        put("residual_chemical_h1",
            float(np.log(total5)) if total5 > 0.0 else float("-inf"))
    else:
        put("residual_chemical_h1", float("inf"))

    # regularity weights (H2 / H1 levels), mixing the per-step extrema
    tsb_star = 2.0 * weights.params.s * weights.exponent_star
    tsb_hat = 2.0 * weights.params.s * weights.exponent_hat
    lgh = weights.log_factor_hat
    with np.errstate(invalid="ignore"):
        log_c6 = _capped(0.25 * tsb_star - 0.5 * tsb_hat + (13.0 / 8.0) * lgh, cap)
        log_c7 = _capped(-(0.25 * tsb_star) - (25.0 / 8.0) * lgh, cap)
    l2h2 = log_step_sum(2.0 * log_c6[:-1], dt * sq_h2(z[1:]))
    with np.errstate(divide="ignore"):
        linf_logs = 2.0 * log_c6 + np.log(sq_h1(z))
    finite_linf = linf_logs[np.isfinite(linf_logs)]
    linfh1 = float(finite_linf.max()) if finite_linf.size else float("-inf")
    put("state_u_h2", float(np.logaddexp(l2h2, linfh1)))
    put("state_v_h2", log_step_sum(2.0 * log_c7[:-1], dt * sq_h2(w[1:])))
    put("control_g_h1", log_step_sum(2.0 * log_c7[:-1], dt * sq_h1(g[1:])))

    logs = [v["log"] for v in out.values()]
    if any(np.isposinf(t) for t in logs):
        out["total"] = {"log": float("inf"), "value": float("inf")}
    else:
        finite = [t for t in logs if np.isfinite(t)]
        out["total"] = {
            "log": _logsumexp(finite) if finite else float("-inf"),
            "value": float(sum(v["value"] for v in out.values())),
        }
    return out
