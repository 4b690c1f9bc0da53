"""Numerical evaluation of the weighted observability inequalities.

Each report evaluates both sides of one inequality on sampled backward
solves and records the ratio LHS/RHS per sample; the empirical constant is
the max ratio over the sample set, tabulated against the Carleman parameter
``s`` (and the relaxation parameter where relevant).

For realistic ``s`` the pointwise integrands ``exp(2 s alpha) ...`` are far
below the smallest double, so every integral here is accumulated in the log
domain (logsumexp with the quadrature weights and squared samples as the
linear coefficients).  Ratios are exponentials of log differences and stay
finite even when both sides underflow to zero linearly.  A falsification
event is a sample whose right side is exactly zero while its left side is
not; none may occur for admissible samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint, solve_backward_heat
from .grid import Grid, box_mask, l2_norm, mass
from .ks_model import KSParams
from .weights import (
    Eta0,
    WeightTable,
    _logsumexp,
    carleman_weights,
    log_weight_profile,
    refined_weights,
    weight_params,
)

__all__ = [
    "CarlemanReport",
    "theorem22_report",
    "lemma31_report",
    "lemmaA1_report",
    "sample_adjoint_data",
    "sample_space_time",
    "sample_field",
    "time_derivative",
    "gradient_sq",
    "hessian_sq",
    "log_space_time_integral",
]

N_MODES = 8   # samples combine the first N_MODES cosine modes per axis


# ---------------------------------------------------------------------------
# discrete derivatives on space-time arrays (same stencils as the solvers)
# ---------------------------------------------------------------------------


def time_derivative(q: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered dq/dt on interior time nodes; endpoint slices are zeroed
    (they never enter a weighted integral: the weights vanish there)."""
    out = np.zeros_like(q)
    out[1:-1] = (q[2:] - q[:-2]) / (2.0 * grid.dt)
    return out


def _axis_reshape(q: np.ndarray, grid: Grid) -> np.ndarray:
    return q.reshape(q.shape[0], *grid.shape)


def gradient_sq(q: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad q|^2 per (step, node): centered differences, ghost reflection
    (so the normal component vanishes at the boundary)."""
    total = np.zeros_like(q)
    for ax in range(grid.dim):
        d = _axis_derivative(q, grid, ax)
        total += d * d
    return total


def _axis_derivative(q: np.ndarray, grid: Grid, ax: int) -> np.ndarray:
    qs = _axis_reshape(q, grid)
    out = np.zeros_like(qs)
    h = grid.h[ax]
    sl = [slice(None)] * qs.ndim
    lo, mid, hi = slice(None, -2), slice(1, -1), slice(2, None)
    axq = ax + 1
    a, b, c = list(sl), list(sl), list(sl)
    a[axq], b[axq], c[axq] = lo, mid, hi
    out[tuple(b)] = (qs[tuple(c)] - qs[tuple(a)]) / (2.0 * h)
    # reflected ghosts make the boundary derivative zero; out already zeroed
    return out.reshape(q.shape)


def _axis_second(q: np.ndarray, grid: Grid, ax: int) -> np.ndarray:
    qs = _axis_reshape(q, grid)
    out = np.empty_like(qs)
    h2 = grid.h[ax] ** 2
    axq = ax + 1
    sl = [slice(None)] * qs.ndim

    def take(s):
        t = list(sl)
        t[axq] = s
        return qs[tuple(t)]

    mid = list(sl)
    mid[axq] = slice(1, -1)
    out[tuple(mid)] = (take(slice(None, -2)) - 2.0 * take(slice(1, -1))
                       + take(slice(2, None))) / h2
    first, last = list(sl), list(sl)
    first[axq], last[axq] = 0, -1
    out[tuple(first)] = 2.0 * (take(1) - take(0)) / h2
    out[tuple(last)] = 2.0 * (take(-2) - take(-1)) / h2
    return out.reshape(q.shape)


def hessian_sq(q: np.ndarray, grid: Grid) -> np.ndarray:
    """sum_{i,j} |d2 q / dxi dxj|^2 with the mixed term counted twice in 2D."""
    total = np.zeros_like(q)
    for ax in range(grid.dim):
        d2 = _axis_second(q, grid, ax)
        total += d2 * d2
    if grid.dim == 2:
        dx = _axis_derivative(q, grid, 0)
        dxy = _axis_derivative(dx, grid, 1)
        total += 2.0 * dxy * dxy
    return total


# ---------------------------------------------------------------------------
# log-domain quadrature
# ---------------------------------------------------------------------------


def log_space_time_integral(log_w: np.ndarray, sq: np.ndarray, table,
                            node_mask: np.ndarray | None = None) -> float:
    """log of  sum_k tw_k sum_p W_p exp(log_w[k,p]) sq[k,p]   (sq >= 0).

    ``tw_k W_p`` is the table's :attr:`~WeightTable.space_time_weights`.
    ``log_w`` may be per-step (``(m+1,)``) or per (step, node).  Returns -inf
    for an identically zero sum; never NaN.
    """
    w = table.space_time_weights
    if node_mask is not None:
        w = w * node_mask
    coeff = w * sq
    if log_w.ndim == 1:
        log_w = log_w[:, None]
    keep = (coeff > 0.0) & np.isfinite(log_w)
    if not np.any(keep):
        return float("-inf")
    return _logsumexp(np.broadcast_to(log_w, coeff.shape)[keep], coeff[keep])


def _log_l2_sq(f: np.ndarray, grid: Grid) -> float:
    v = l2_norm(f, grid)
    return float("-inf") if v == 0.0 else 2.0 * float(np.log(v))


def _i_beta_integrands(q: np.ndarray, sigma: float, grid: Grid) -> tuple:
    """The s-invariant integrands of I_beta: q^2, |grad q|^2 and
    sigma^2 q_t^2 + |D^2 q|^2."""
    return (q * q, gradient_sq(q, grid),
            sigma**2 * time_derivative(q, grid) ** 2 + hessian_sq(q, grid))


def _i_beta_profiles(table: WeightTable, beta_exp: float) -> list:
    """(power of s, log weight) of each I_beta term, in integrand order."""
    return [(k, log_weight_profile(table, "alpha", k))
            for k in (beta_exp + 3.0, beta_exp + 1.0, beta_exp - 1.0)]


def _log_i_beta_terms(integrands: tuple, profiles: list,
                      table: WeightTable) -> list[float]:
    logs = np.log(table.params.s)
    return [k * logs + log_space_time_integral(w, sq, table)
            for (k, w), sq in zip(profiles, integrands)]


# ---------------------------------------------------------------------------
# sample distributions (low-frequency Neumann eigenmode combinations)
# ---------------------------------------------------------------------------


def sample_field(grid: Grid, rng: np.random.Generator,
                 zero_mean: bool = False) -> np.ndarray:
    """Random combination of the first N_MODES Neumann cosine modes."""
    pts = grid.node_coords
    f = np.zeros(grid.num_nodes)
    lo = 1 if zero_mean else 0
    for _ in range(N_MODES):
        if grid.dim == 1:
            k = int(rng.integers(lo, N_MODES))
            mode = np.cos(k * np.pi * pts[:, 0] / grid.L[0])
            if zero_mean and k == 0:
                continue
        else:
            k = int(rng.integers(lo, N_MODES))
            l = int(rng.integers(0, N_MODES))
            if zero_mean and k == 0 and l == 0:
                k = 1
            mode = (np.cos(k * np.pi * pts[:, 0] / grid.L[0])
                    * np.cos(l * np.pi * pts[:, 1] / grid.L[1]))
        f += rng.standard_normal() * mode
    if zero_mean:
        f -= mass(f, grid) / grid.volume
    return f


def sample_space_time(grid: Grid, rng: np.random.Generator,
                      zero_mean: bool = False) -> np.ndarray:
    """Space-time sample: three spatial modes with smooth polynomial-in-time
    envelopes."""
    t = grid.times / grid.T
    f = np.zeros((grid.m + 1, grid.num_nodes))
    for _ in range(3):
        env = np.polyval(rng.standard_normal(3), t)
        f += env[:, None] * sample_field(grid, rng, zero_mean)[None, :]
    return f


def sample_adjoint_data(grid: Grid, rng: np.random.Generator):
    """Terminal data (phiT zero-mean) and sources for one adjoint sample."""
    phiT = sample_field(grid, rng, zero_mean=True)
    xiT = sample_field(grid, rng)
    f1 = sample_space_time(grid, rng)
    f2 = sample_space_time(grid, rng)
    return phiT, xiT, f1, f2


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CarlemanReport:
    """Per-sample evaluations of one inequality plus aggregates.

    ``rows`` carry (sample_id, s, lambda, eps, lhs, rhs, ratio) with the two
    log-domain values alongside; ``c_emp_log`` maps (s, eps) to the max log
    ratio; ``falsifications`` lists samples with rhs = 0 < lhs (must stay
    empty).
    """

    inequality: str
    rows: list = field(default_factory=list)
    falsifications: list = field(default_factory=list)

    def add(self, sample_id: int, s: float, lam: float, eps: float,
            log_lhs: float, log_rhs: float) -> None:
        if np.isneginf(log_rhs) and not np.isneginf(log_lhs):
            self.falsifications.append(
                {"sample_id": sample_id, "s": s, "eps": eps, "log_lhs": log_lhs}
            )
            log_ratio = float("inf")
        elif np.isneginf(log_lhs):
            log_ratio = float("-inf")
        else:
            log_ratio = log_lhs - log_rhs
        with np.errstate(over="ignore"):
            ratio = 0.0 if np.isneginf(log_ratio) else float(np.exp(log_ratio))
            self.rows.append(
                {
                    "sample_id": sample_id, "s": s, "lambda": lam, "eps": eps,
                    "lhs": float(np.exp(log_lhs)), "rhs": float(np.exp(log_rhs)),
                    "ratio": ratio, "log_lhs": log_lhs, "log_rhs": log_rhs,
                    "log_ratio": log_ratio,
                }
            )

    @property
    def c_emp_log(self) -> dict:
        """Max log-ratio per (s, eps): finite even when the linear constant
        is not representable."""
        out: dict = {}
        for r in self.rows:
            key = (r["s"], r["eps"])
            out[key] = max(out.get(key, float("-inf")), r["log_ratio"])
        return out

    @property
    def ok(self) -> bool:
        return not self.falsifications


def theorem22_report(p: KSParams, grid: Grid, eta0: Eta0, s_list,
                     lam: float = 1.5, n_samples: int = 20,
                     seed: int = 0) -> CarlemanReport:
    """Couple-system inequality: weighted Laplacian-of-phi energy plus the
    full xi energy against the localized xi observation and the sources."""
    rng = np.random.default_rng(seed)
    rep = CarlemanReport("thm2.2")
    omega_prime_mask = box_mask(grid, eta0.omega_prime).astype(float)
    A = grid.laplacian_matrix
    tables = []
    for s in s_list:
        table = carleman_weights(eta0, weight_params(grid.T, lam, s=s), grid)
        tables.append((table, np.log(s), _i_beta_profiles(table, 1.0),
                       *(log_weight_profile(table, "alpha", k) for k in (3.0, 10.0, 18.0))))

    # sample-outer, so only one sample's s-invariant integrands are live
    logs_by_s = [[] for _ in tables]
    for _ in range(n_samples):
        phiT, xiT, f1, f2 = sample_adjoint_data(grid, rng)
        adj = solve_adjoint(p, phiT, xiT, f1, f2, grid)
        lap_phi = (A @ adj.phi.T).T
        lap_sq, xi_terms = lap_phi * lap_phi, _i_beta_integrands(adj.xi, p.eps, grid)
        f1_sq, f2_sq = adj.f1**2, adj.f2**2
        for out, (table, logs, i_beta_w, w3, w10, w18) in zip(logs_by_s, tables):
            lhs_parts = [3.0 * logs + log_space_time_integral(w3, lap_sq, table)]
            lhs_parts += _log_i_beta_terms(xi_terms, i_beta_w, table)
            rhs_parts = [
                18.0 * logs + log_space_time_integral(
                    w18, xi_terms[0], table, node_mask=omega_prime_mask),
                10.0 * logs + log_space_time_integral(w10, f1_sq, table),
                3.0 * logs + log_space_time_integral(w3, f2_sq, table),
            ]
            out.append((_logsumexp(lhs_parts), _logsumexp(rhs_parts)))
    for s, out in zip(s_list, logs_by_s):
        for i, (log_lhs, log_rhs) in enumerate(out):
            rep.add(i, float(s), lam, p.eps, log_lhs, log_rhs)
    return rep


def lemma31_report(p_template: KSParams, grid: Grid, eta0: Eta0, s_list,
                   chi: np.ndarray, lam: float = 1.5, eps_list=(1.0, 0.1, 0.01),
                   n_samples: int = 20, seed: int = 0) -> CarlemanReport:
    """Refined-weight inequality, including the t = 0 terms; the finding of
    interest is the boundedness of the constant across the eps sweep."""
    rep = CarlemanReport("lem3.1")
    tables = []
    for s in s_list:
        rt = refined_weights(eta0, weight_params(grid.T, lam, s=s), grid)
        tables.append((rt, *(log_weight_profile(rt, kind, k) for kind, k in (
            ("beta", 4.0), ("beta", 2.0), ("beta_hat", 3.0),
            ("beta_star", 10.0), ("beta_star", 3.0), ("beta_star", 18.0)))))
    chi_sq = (chi**2)[None, :]
    for eps in eps_list:
        rng = np.random.default_rng(seed)
        p = KSParams(a=p_template.a, b=p_template.b, eps=eps,
                     M1=p_template.M1, M2=p_template.M2)
        # sample-outer, so only one sample's s-invariant integrands are live
        logs_by_s = [[] for _ in tables]
        for _ in range(n_samples):
            phiT, xiT, f1, f2 = sample_adjoint_data(grid, rng)
            adj = solve_adjoint(p, phiT, xiT, f1, f2, grid)
            phi_mean = np.array([mass(f, grid) for f in adj.phi]) / grid.volume
            phi_osc = adj.phi - phi_mean[:, None]
            xi_sq, xi_grad, osc_sq = adj.xi**2, gradient_sq(adj.xi, grid), phi_osc**2
            phi_grad, f1_sq, f2_sq = gradient_sq(adj.phi, grid), adj.f1**2, adj.f2**2
            obs_sq = chi_sq * xi_sq
            log_t0 = [_log_l2_sq(phi_osc[0], grid),
                      np.log(eps) + _log_l2_sq(adj.xi[0], grid)]
            for out, (rt, wb4, wb2, wh3, ws10, ws3, ws18) in zip(logs_by_s, tables):
                lhs_parts = [
                    log_space_time_integral(wb4, xi_sq, rt),
                    log_space_time_integral(wb2, xi_grad, rt),
                    log_space_time_integral(wh3, osc_sq, rt),
                    log_space_time_integral(wh3, phi_grad, rt),
                    *log_t0,
                ]
                rhs_parts = [
                    log_space_time_integral(ws10, f1_sq, rt),
                    log_space_time_integral(ws3, f2_sq, rt),
                    log_space_time_integral(ws18, obs_sq, rt),
                ]
                out.append((_logsumexp(lhs_parts), _logsumexp(rhs_parts)))
        for s, out in zip(s_list, logs_by_s):
            for i, (log_lhs, log_rhs) in enumerate(out):
                rep.add(i, float(s), lam, eps, log_lhs, log_rhs)
    return rep


def lemmaA1_report(grid: Grid, eta0: Eta0, s_list, lam: float = 1.5,
                   n_samples: int = 20, seed: int = 0) -> CarlemanReport:
    """Transposition inequality for the backward heat flow driven by the
    Laplacian of a smooth field."""
    rng = np.random.default_rng(seed)
    rep = CarlemanReport("lemA.1")
    omega_mask = box_mask(grid, eta0.omega).astype(float)
    A = grid.laplacian_matrix

    samples = []
    for _ in range(n_samples):
        gfield = sample_space_time(grid, rng)
        lap_g = (A @ gfield.T).T
        phi = solve_backward_heat(np.zeros(grid.num_nodes), lap_g, grid)
        samples.append((phi, gfield))

    for s in s_list:
        table = carleman_weights(eta0, weight_params(grid.T, lam, s=s), grid)
        logs = np.log(s)
        w3 = log_weight_profile(table, "alpha", 3.0)
        w4 = log_weight_profile(table, "alpha", 4.0)
        for i, (phi, gfield) in enumerate(samples):
            log_lhs = 3.0 * logs + log_space_time_integral(w3, phi * phi, table)
            rhs_parts = [
                3.0 * logs + log_space_time_integral(
                    w3, phi * phi, table, node_mask=omega_mask),
                4.0 * logs + log_space_time_integral(w4, gfield**2, table),
            ]
            rep.add(i, float(s), lam, 0.0, log_lhs, _logsumexp(rhs_parts))
    return rep
