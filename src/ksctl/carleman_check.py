"""Numerical evaluation of the weighted observability inequalities.

Each report evaluates both sides of one inequality on sampled backward
solves and records the ratio LHS/RHS per sample; the empirical constant is
the max ratio over the sample set, tabulated against the Carleman parameter
``s`` (and the relaxation parameter where relevant).  Each report function
writes each of its terms once, as (power of s, weight kind, weight power,
integrand), against weight families built once per audit; a term over a
subdomain carries the subdomain's 0/1 node mask inside its integrand.

For realistic ``s`` the pointwise integrands ``exp(2 s alpha) ...`` are far
below the smallest double, so every integral here is accumulated in the log
domain (logsumexp with the quadrature weights and squared samples as the
linear coefficients).  Ratios are exponentials of log differences and stay
finite even when both sides underflow to zero linearly.  A falsification
event is a sample whose right side is exactly zero while its left side is
not; none may occur for admissible samples.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint, solve_backward_heat
from .grid import Grid, box_mask, l2_norm, mass, neumann_laplacian
from .ks_model import KSParams
from .weights import (
    Eta0,
    WeightTable,
    _log_digest,
    _log_finish,
    carleman_weights,
    log_weight_profile,
    refined_weights,
    weight_params,
)

__all__ = [
    "CarlemanReport",
    "weight_families",
    "adjoint_reports",
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
# bytes per (samples, m+1, nodes) array of a sample stack: 4 samples at the 1D
# defaults (5 raised audit-1d's peak RSS by 2.3%, 4 by 1.8%), 1 at 2D 32x32, m=40
STACK_BYTES = 180_000


# ---------------------------------------------------------------------------
# discrete derivatives on space-time arrays (same stencils as the solvers)
# ---------------------------------------------------------------------------


def time_derivative(q: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered dq/dt on interior time nodes (axis -2); endpoint slices are
    zeroed (they never enter a weighted integral: the weights vanish there)."""
    out = np.zeros_like(q)
    out[..., 1:-1, :] = (q[..., 2:, :] - q[..., :-2, :]) / (2.0 * grid.dt)
    return out


def gradient_sq(q: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad q|^2 per (..., step, node): centered differences, ghost
    reflection (so the normal component vanishes at the boundary)."""
    total = np.zeros_like(q)
    for ax in range(grid.dim):
        d = _axis_derivative(q, grid, ax)
        total += d * d
    return total


def _along(q: np.ndarray, grid: Grid, ax: int) -> np.ndarray:
    """View of the space-time array ``q`` with the nodes of axis ``ax`` last."""
    return np.moveaxis(q.reshape(*q.shape[:-1], *grid.shape), ax - grid.dim, -1)


def _axis_derivative(q: np.ndarray, grid: Grid, ax: int) -> np.ndarray:
    qs = _along(q, grid, ax)
    out = np.zeros_like(qs)   # reflected ghosts make the boundary derivative zero
    out[..., 1:-1] = (qs[..., 2:] - qs[..., :-2]) / (2.0 * grid.h[ax])
    return np.moveaxis(out, -1, ax - grid.dim).reshape(q.shape)


def hessian_sq(q: np.ndarray, grid: Grid) -> np.ndarray:
    """sum_{i,j} |d2 q / dxi dxj|^2 with the mixed term counted twice in 2D."""
    total = np.zeros_like(q)
    for ax in range(grid.dim):
        d2 = neumann_laplacian(q.reshape(-1, grid.num_nodes), grid, ax).reshape(q.shape)
        total += d2 * d2
    if grid.dim == 2:
        dx = _axis_derivative(q, grid, 0)
        dxy = _axis_derivative(dx, grid, 1)
        total += 2.0 * dxy * dxy
    return total


# ---------------------------------------------------------------------------
# log-domain quadrature
# ---------------------------------------------------------------------------


def log_space_time_integral(log_w, sq: np.ndarray, table: WeightTable,
                            digests: dict | None = None, finite: np.ndarray | None = None):
    """log of  sum_k tw_k sum_p W_p exp(log_w[k,p]) sq[k,p]   (sq >= 0), or
    of each sample of a (samples, m+1, nodes) ``sq``, each as if alone.

    ``tw_k W_p`` is the :attr:`~WeightTable.space_time_weights` of ``table``.
    ``log_w`` may be per-step (``(m+1,)``) or per (step, node), ``finite`` its
    finite mask as (m+1, 1 or nodes).  Returns -inf for an identically zero
    sum; a non-finite ``w * sq`` raises ValueError.  ``digests`` keeps this
    ``log_w``'s ``_log_digest`` per pattern of kept entries (``w * sq > 0``,
    ``log_w`` finite): a repeated pattern only sums, a shared one at once.

    ``log_w`` may also be a list, one term's profiles over an s-scan of
    tables with ``table``'s weights, with lists of ``digests`` and ``finite``:
    each gives one row of (s, samples or 1).  The kept entries are gathered
    once, and again only for a profile whose ``finite`` is another array.
    """
    scan = isinstance(log_w, list)
    if not scan:   # a scan of one
        finite = [np.isfinite(log_w.reshape(len(log_w), -1)) if finite is None else finite]
        log_w, digests = [log_w], [{} if digests is None else digests]
    coeff = table.space_time_weights * sq
    if not np.isfinite(coeff).all():
        raise ValueError("non-finite integrand (weights times sq) in a log-domain integral")
    rows, groups = coeff.reshape(-1, table.space_time_weights.size), {}
    for fin in finite:
        if id(fin) not in groups:
            groups[id(fin)] = _kept_groups(rows, ((coeff > 0.0) & fin).reshape(rows.shape))
    out = np.array([np.reshape([_log_rows(w, *group, store) for group in groups[id(fin)]], -1)
                    for w, store, fin in zip(log_w, digests, finite)])
    return out if scan else float(out[0, 0]) if sq.ndim == 2 else out[0]


def _kept_groups(rows: np.ndarray, keep: np.ndarray) -> list:
    """(kept mask, key, kept entries in C order) of the whole stack of
    ``rows`` when every row keeps one pattern, else of each row alone."""
    keys = np.packbits(keep, axis=1)
    if len(rows) > 1 and (keys == keys[0]).all():
        return [(keep[0], bytes(keys[0]), np.take(rows, np.flatnonzero(keep[0]), axis=1))]
    return [(kept, bytes(key), row[kept]) for row, kept, key in zip(rows, keep, keys)]


def _log_rows(log_w: np.ndarray, kept: np.ndarray, key: bytes, rows: np.ndarray, digests: dict):
    """The integral of one gathered row, or of each of gathered (rows, n)
    with one kept pattern: each row sums as it would alone."""
    if not kept.any():
        return np.full(rows.shape[:-1], -np.inf)
    if key not in digests:
        mask = kept.reshape(len(log_w), -1)
        digests[key] = _log_digest(np.broadcast_to(log_w.reshape(len(mask), -1), mask.shape)[mask])
    return _log_finish(digests[key], rows)


def _log_l2_sq(f: np.ndarray, grid: Grid) -> np.ndarray:
    """2 log of the weighted L2 norm of each slice of ``f``; -inf for a zero slice."""
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(l2_norm(f, grid))


# ---------------------------------------------------------------------------
# sample distributions (low-frequency Neumann eigenmode combinations)
# ---------------------------------------------------------------------------


_MODES = weakref.WeakKeyDictionary()   # per grid and axis, cos(k pi x / L) for k < N_MODES


def sample_field(grid: Grid, rng: np.random.Generator,
                 zero_mean: bool = False) -> np.ndarray:
    """Random combination of the first N_MODES Neumann cosine modes."""
    if grid not in _MODES:
        x = grid.node_coords
        _MODES[grid] = [[np.cos(k * np.pi * x[:, a] / grid.L[a]) for k in range(N_MODES)]
                        for a in range(grid.dim)]
    cos = _MODES[grid]
    f = np.zeros(grid.num_nodes)
    lo = 1 if zero_mean else 0
    for _ in range(N_MODES):
        mode = cos[0][int(rng.integers(lo, N_MODES))]   # k >= 1 when zero_mean: no constant mode
        if grid.dim == 2:
            mode = mode * cos[1][int(rng.integers(0, N_MODES))]
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
    return (sample_field(grid, rng, zero_mean=True), sample_field(grid, rng),
            sample_space_time(grid, rng), sample_space_time(grid, rng))


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
        if log_rhs == -np.inf and log_lhs != -np.inf:
            self.falsifications.append(dict(sample_id=sample_id, s=s, eps=eps, log_lhs=log_lhs))
            log_ratio = float("inf")
        elif log_lhs == -np.inf:
            log_ratio = float("-inf")
        else:
            log_ratio = log_lhs - log_rhs
        with np.errstate(over="ignore"):
            self.rows.append(
                {
                    "sample_id": sample_id, "s": s, "lambda": lam, "eps": eps,
                    "lhs": float(np.exp(log_lhs)), "rhs": float(np.exp(log_rhs)),
                    "ratio": float(np.exp(log_ratio)), "log_lhs": log_lhs, "log_rhs": log_rhs,
                    "log_ratio": log_ratio,
                }
            )

    def add_samples(self, family: list[_ScanEntry], eps: float, logs: list) -> CarlemanReport:
        """Add the (log lhs, log rhs) pairs ``logs[sample][j]``, evaluated at
        the j-th s of ``family``, s-major."""
        for j, entry in enumerate(family):
            p = entry.table.params
            for i, pairs in enumerate(logs):
                self.add(i, p.s, p.lam, eps, *pairs[j])
        return self

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


class _ScanEntry:
    """One table of a weight family's s-scan, with ``log s`` and the
    log-weight profiles the reports look up by (kind, power), each made on
    first use and kept for the run with its finite mask and digests (one per
    kept pattern, see :func:`log_space_time_integral`); ``calls`` counts."""

    def __init__(self, table: WeightTable):
        self.table, self.logs, self._profiles, self.calls = table, np.log(table.params.s), {}, 0

    def profile(self, kind: str, power: float, like: np.ndarray | None = None) -> tuple:
        """The (kind, power) profile, its finite mask and its digests, for one
        more integral; a new mask equal to ``like`` is kept as ``like``."""
        if (kind, power) not in self._profiles:
            w = log_weight_profile(self.table, kind, power)
            finite = np.isfinite(w.reshape(len(w), -1))
            self._profiles[kind, power] = w, like if np.array_equal(finite, like) else finite, {}
        self.calls += 1
        return self._profiles[kind, power]

    @property
    def digests_built(self) -> int:
        """The digests built so far, over all profiles."""
        return sum(len(d) for *_, d in self._profiles.values())


def weight_families(eta0: Eta0, s_list, lam: float) -> tuple[list[_ScanEntry], ...]:
    """The classical (alpha) and refined (beta) families over the s-scan, one
    entry per s; every report of one audit reads these two."""
    grid = eta0.grid
    return tuple([_ScanEntry(build(eta0, weight_params(grid.T, lam, s=s)))
                  for s in s_list] for build in (carleman_weights, refined_weights))


def _scan(family: list, s_power: float, kind: str, power: float, sq: np.ndarray) -> np.ndarray:
    """One stacked integrand's term at every s of ``family``, (s, samples),
    in one integral call; the first s's finite mask serves each equal one."""
    scan = [family[0].profile(kind, power)]
    scan += [w.profile(kind, power, scan[0][1]) for w in family[1:]]
    log_w, finite, digests = map(list, zip(*scan))
    return s_power * np.array([[w.logs] for w in family]) + log_space_time_integral(
        log_w, sq, family[0].table, digests, finite)


def _pairs(lhs: list, rhs: list) -> list:
    """(log lhs, log rhs) per sample and s: the log-sum of each side's parts,
    all (s, sample) rows of a side in one pass."""
    sides = [_log_finish(_log_digest(np.stack(side, axis=-1))) for side in (lhs, rhs)]
    return np.stack(sides, axis=-1).swapaxes(0, 1).tolist()   # (samples, s, 2)


def _stacks(grid: Grid, n_samples: int) -> list:
    """The sample counts of the stacks of ``n_samples``, in draw order."""
    size = max(1, STACK_BYTES // ((grid.m + 1) * grid.num_nodes * 8))
    return [min(size, n_samples - i) for i in range(0, n_samples, size)]


def theorem22_report(adj: AdjointTrajectory, alpha: list[_ScanEntry],
                     omega_prime_mask: np.ndarray, sources: list) -> list:
    """Couple-system inequality on a stack of adjoint trajectories, as (log
    lhs, log rhs) per sample and s: weighted Laplacian-of-phi energy plus the
    full xi energy I_1(xi) against the localized xi observation and the
    ``sources``, the stack's f1 and f2 terms (independent of eps).  Each
    integrand is made once over the stack, then dropped.
    """
    grid, xi = adj.grid, adj.xi
    lhs = [_scan(alpha, 3.0, "alpha", 3.0, neumann_laplacian(
               adj.phi.reshape(-1, grid.num_nodes), grid).reshape(xi.shape) ** 2),
           _scan(alpha, 4.0, "alpha", 4.0, xi * xi),
           _scan(alpha, 2.0, "alpha", 2.0, gradient_sq(xi, grid)),
           _scan(alpha, 0.0, "alpha", 0.0, adj.params.eps**2 * time_derivative(xi, grid) ** 2
                 + hessian_sq(xi, grid))]
    rhs = [_scan(alpha, 18.0, "alpha", 18.0, xi * xi * omega_prime_mask), *sources]
    return _pairs(lhs, rhs)


def lemma31_report(adj: AdjointTrajectory, beta: list[_ScanEntry], chi_sq: np.ndarray,
                   sources: list) -> list:
    """Refined-weight inequality on a stack of adjoint trajectories with the
    t = 0 terms, as in :func:`theorem22_report`; the finding of interest is
    the boundedness of the constant across the eps sweep."""
    grid, phi, xi = adj.grid, adj.phi, adj.xi
    phi_osc = phi - mass(phi, grid)[..., None] / grid.volume
    log_t0 = [_log_l2_sq(phi_osc[:, 0], grid),
              np.log(adj.params.eps) + _log_l2_sq(xi[:, 0], grid)]
    osc = _scan(beta, 0.0, "beta_hat", 3.0, np.square(phi_osc, out=phi_osc))
    del phi_osc
    lhs = [_scan(beta, 0.0, "beta", 4.0, xi**2),
           _scan(beta, 0.0, "beta", 2.0, gradient_sq(xi, grid)), osc,
           _scan(beta, 0.0, "beta_hat", 3.0, gradient_sq(phi, grid)),
           *([t0] * len(beta) for t0 in log_t0)]
    rhs = [*sources, _scan(beta, 0.0, "beta_star", 18.0, chi_sq * xi**2)]
    return _pairs(lhs, rhs)


def adjoint_reports(p_template: KSParams, alpha: list[_ScanEntry], beta: list[_ScanEntry],
                    eta0: Eta0, chi: np.ndarray, eps_list, n_samples: int, seed: int):
    """thm2.2 per eps and lem3.1 over ``eps_list``, from one sampling pass
    over the families of :func:`weight_families`.

    Each adjoint sample is drawn once (every eps sees the samples of one
    generator seeded with ``seed``) and marched once per eps, and both
    inequalities are evaluated on it, in stacks of ``STACK_BYTES`` per array;
    the source terms, which do not depend on eps, are integrated once per stack.
    Returns the thm2.2 reports, one per eps, and the lem3.1 report.
    """
    grid = eta0.grid
    rng = np.random.default_rng(seed)
    omega_prime_mask = box_mask(grid, eta0.omega_prime).astype(float)
    chi_sq = (chi**2)[None, :]
    params = [replace(p_template, eps=float(eps)) for eps in eps_list]
    thm_logs, lem_logs = [[] for _ in eps_list], [[] for _ in eps_list]
    for size in _stacks(grid, n_samples):
        data = [np.stack(f) for f in zip(*(sample_adjoint_data(grid, rng) for _ in range(size)))]
        sq = [f**2 for f in data[2:]]   # f1^2, f2^2
        thm_src = [_scan(alpha, k, "alpha", k, f) for k, f in zip((10.0, 3.0), sq)]
        lem_src = [_scan(beta, 0.0, "beta_star", k, f) for k, f in zip((10.0, 3.0), sq)]
        del sq   # before the marches
        for p, thm, lem in zip(params, thm_logs, lem_logs):
            adj = solve_adjoint(p, *data, grid)
            thm += theorem22_report(adj, alpha, omega_prime_mask, thm_src)
            lem += lemma31_report(adj, beta, chi_sq, lem_src)
            del adj   # before the next eps's march
    rep31 = CarlemanReport("lem3.1")
    for eps, logs in zip(eps_list, lem_logs):
        rep31.add_samples(beta, eps, logs)
    return [CarlemanReport("thm2.2").add_samples(alpha, p.eps, logs)
            for p, logs in zip(params, thm_logs)], rep31


def lemmaA1_report(alpha: list[_ScanEntry], eta0: Eta0, n_samples: int,
                   seed: int) -> CarlemanReport:
    """Transposition inequality for the backward heat flow driven by the
    Laplacian of a smooth field, on the alpha family of :func:`weight_families`."""
    grid = eta0.grid
    rng = np.random.default_rng(seed)
    omega_mask = box_mask(grid, eta0.omega).astype(float)
    logs_by_sample = []
    for size in _stacks(grid, n_samples):
        gfield = np.stack([sample_space_time(grid, rng) for _ in range(size)])
        phi = solve_backward_heat(np.zeros((size, grid.num_nodes)), neumann_laplacian(
            gfield.reshape(-1, grid.num_nodes), grid).reshape(gfield.shape), grid)
        logs_by_sample += _pairs([_scan(alpha, 3.0, "alpha", 3.0, phi * phi)],   # one part: as is
                                 [_scan(alpha, 3.0, "alpha", 3.0, phi * phi * omega_mask),
                                  _scan(alpha, 4.0, "alpha", 4.0, gfield**2)])
    return CarlemanReport("lemA.1").add_samples(alpha, 0.0, logs_by_sample)
