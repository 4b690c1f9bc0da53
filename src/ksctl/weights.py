"""Carleman weight families built from an auxiliary bump function.

The bump ``eta0`` is positive inside the domain, vanishes on the boundary
and has no critical point outside a small interior box ``omega0``.  From it
two weight families are tabulated on the space-time grid:

* the classical family ``alpha``/``phi`` with time profile ``1/(t(T-t))^4``,
  singular at both endpoints;
* the refined family ``beta``/``gamma`` whose time profile uses the
  truncated function ``l(t)`` (constant ``T^2/4`` on ``[0, T/2]``), so it is
  regular at ``t = 0`` and singular only at ``t = T``.

Exponentials like ``exp(2 s alpha) * phi**k`` underflow to zero across most
of the grid for realistic ``s``; every consumer therefore works with the
stored logarithms (``2 s alpha`` and ``log phi``), combined per query by
:func:`log_weight`.  At singular time nodes the log is ``-inf`` by the limit
convention (the exponential factor wins against any power), so ``exp`` of a
query is always finite or exactly zero, never NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, box_mask

__all__ = [
    "Eta0",
    "WeightParams",
    "WeightTable",
    "RefinedWeightTable",
    "Eta0ConstructionError",
    "build_eta0",
    "weight_params",
    "carleman_weights",
    "refined_weights",
    "log_weight",
    "log_weight_profile",
]

POWER_RANGE = (-10.0, 18.0)


class Eta0ConstructionError(ValueError):
    """Raised when the numeric scan refutes one of the bump invariants."""


def _as_boxes(box, dim: int) -> np.ndarray:
    b = np.atleast_2d(np.asarray(box, dtype=float))
    if b.shape != (dim, 2):
        raise ValueError(f"expected {dim} (lo, hi) pairs, got {box}")
    if np.any(b[:, 0] >= b[:, 1]):
        raise ValueError(f"degenerate box {box}")
    return b


def _strictly_inside(inner: np.ndarray, outer: np.ndarray) -> bool:
    return bool(np.all(inner[:, 0] > outer[:, 0]) and np.all(inner[:, 1] < outer[:, 1]))


@dataclass(frozen=True)
class Eta0:
    """Auxiliary bump: positive inside, zero on the boundary, lone critical
    point inside ``omega0``."""

    values: np.ndarray          # flat node values, max normalised to 1
    gradient: np.ndarray        # (dim, num_nodes) analytic gradient at nodes
    omega0: tuple
    omega_prime: tuple
    omega: tuple
    grid: Grid
    critical_point: tuple       # coordinates of the interior critical point
    min_grad_outside: float     # min |grad| over scanned nodes outside omega0

    @property
    def sup(self) -> float:
        return float(self.values.max())


def _axis_bump(x: np.ndarray, L: float, xstar: float):
    """1D factor x(L-x)q(x), normalised to 1 at its critical point ``xstar``.

    ``q`` is affine when that keeps it safely positive on [0, L], otherwise a
    positive-definite quadratic with the same slope at ``xstar``.  Returns
    (values, derivative) on the nodes ``x``.
    """
    c1 = (2.0 * xstar - L) / (xstar * (L - xstar))
    # affine q must stay positive at both ends
    q_ends = min(1.0 - c1 * xstar, 1.0 + c1 * (L - xstar))
    c2 = 0.0 if q_ends > 0.05 else 0.5 * c1 * c1
    d = x - xstar
    q = 1.0 + c1 * d + c2 * d * d
    qp = c1 + 2.0 * c2 * d
    raw = x * (L - x) * q
    rawp = (L - 2.0 * x) * q + x * (L - x) * qp
    scale = xstar * (L - xstar)  # q(xstar) = 1
    return raw / scale, rawp / scale


def build_eta0(grid: Grid, omega0, omega_prime, omega) -> Eta0:
    """Construct the bump and verify its invariants by a full node scan.

    The three boxes must satisfy omega0 << omega_prime << omega << domain
    (strict nesting).  In 2D the bump is the tensor product of two 1D bumps;
    the four domain corners are excluded from the gradient scan because any
    C^2 function vanishing on the whole boundary of a rectangle has zero
    gradient there (deviation from the smooth-boundary setting, see README).
    """
    b0 = _as_boxes(omega0, grid.dim)
    bp = _as_boxes(omega_prime, grid.dim)
    bw = _as_boxes(omega, grid.dim)
    dom = np.array([[0.0, Li] for Li in grid.L])
    for inner_b, outer_b, names in (
        (b0, bp, "omega0 inside omega_prime"),
        (bp, bw, "omega_prime inside omega"),
        (bw, dom, "omega inside the domain"),
    ):
        if not _strictly_inside(inner_b, outer_b):
            raise ValueError(f"nesting violated: {names} must hold strictly")

    center = b0.mean(axis=1)
    vals_ax, grads_ax = [], []
    for ax in range(grid.dim):
        v, dv = _axis_bump(grid.axes[ax], grid.L[ax], center[ax])
        vals_ax.append(v)
        grads_ax.append(dv)

    if grid.dim == 1:
        values = vals_ax[0]
        gradient = grads_ax[0][None, :]
    else:
        vx, vy = vals_ax
        dx, dy = grads_ax
        values = np.multiply.outer(vx, vy).ravel()
        gradient = np.stack(
            [np.multiply.outer(dx, vy).ravel(), np.multiply.outer(vx, dy).ravel()]
        )

    # invariant scan
    interior = np.all(
        (grid.node_coords > 0.0) & (grid.node_coords < np.asarray(grid.L)), axis=1
    )
    if np.any(values[interior] <= 0.0):
        raise Eta0ConstructionError("eta0 not positive at an interior node")

    outside = ~box_mask(grid, b0)
    if grid.dim == 2:
        corners = np.zeros(grid.num_nodes, dtype=bool)
        nx, ny = grid.shape
        for idx in (0, ny - 1, (nx - 1) * ny, nx * ny - 1):
            corners[idx] = True
        outside &= ~corners
    gnorm = np.sqrt((gradient**2).sum(axis=0))
    min_grad = float(gnorm[outside].min())
    if min_grad <= 0.0:
        raise Eta0ConstructionError("grad eta0 vanishes at a node outside omega0")

    argmax = grid.node_coords[int(np.argmax(values))]
    if not np.all((argmax >= b0[:, 0]) & (argmax <= b0[:, 1])):
        raise Eta0ConstructionError(f"argmax eta0 at {argmax} escaped omega0 {omega0}")

    return Eta0(
        values=values,
        gradient=gradient,
        omega0=tuple(map(tuple, b0)),
        omega_prime=tuple(map(tuple, bp)),
        omega=tuple(map(tuple, bw)),
        grid=grid,
        critical_point=tuple(center),
        min_grad_outside=min_grad,
    )


@dataclass(frozen=True)
class WeightParams:
    """Carleman parameters.  ``s_threshold_ok`` records whether
    ``s >= s_cal * (T^4 + T^8)`` for the calibration constant used."""

    s: float
    lam: float
    T: float
    s_cal: float = 1.0

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.lam < 1.0:
            raise ValueError("lambda must be >= 1")

    @property
    def s_threshold_ok(self) -> bool:
        return self.s >= self.s_cal * (self.T**4 + self.T**8)


def weight_params(T: float, lam: float = 1.5, s: float | None = None,
                  sigma0: float = 1.0, s_cal: float = 1.0) -> WeightParams:
    """Default rule ``s = sigma0 * (T^4 + T^8)``; pass ``s`` to override."""
    if s is None:
        s = sigma0 * (T**4 + T**8)
    return WeightParams(s=float(s), lam=float(lam), T=float(T), s_cal=s_cal)


def _extrema(arr2d: np.ndarray):
    return arr2d.max(axis=1), arr2d.min(axis=1)


@dataclass(frozen=True)
class WeightTable:
    """Classical weights on the space-time grid, singular at t in {0, T}.

    ``alpha`` is negative everywhere; the starred/hatted arrays are the per
    time-step max/min over nodes.  Values at the two singular time nodes are
    the limits (-inf / +inf); log-domain products there are -inf, i.e. the
    product vanishes, which is the convention every integral below relies on.
    """

    params: WeightParams
    eta0: Eta0
    grid: Grid
    alpha: np.ndarray
    phi: np.ndarray
    log_phi: np.ndarray
    two_s_alpha: np.ndarray
    alpha_star: np.ndarray
    alpha_hat: np.ndarray
    phi_star: np.ndarray
    phi_hat: np.ndarray
    log_phi_star: np.ndarray
    log_phi_hat: np.ndarray
    singular_steps: tuple

    @property
    def interior_steps(self) -> np.ndarray:
        return np.arange(1, self.grid.m)


@dataclass(frozen=True)
class RefinedWeightTable:
    """Truncated-time weights: regular at t = 0, singular only at t = T."""

    params: WeightParams
    eta0: Eta0
    grid: Grid
    l_profile: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    log_gamma: np.ndarray
    two_s_beta: np.ndarray
    beta_star: np.ndarray
    beta_hat: np.ndarray
    gamma_star: np.ndarray
    gamma_hat: np.ndarray
    log_gamma_star: np.ndarray
    log_gamma_hat: np.ndarray
    singular_steps: tuple

    @property
    def interior_steps(self) -> np.ndarray:
        return np.arange(0, self.grid.m)


def _build_table(eta0: Eta0, p: WeightParams, grid: Grid, profile: np.ndarray,
                 singular: tuple, refined: bool):
    lam_eta = p.lam * eta0.values
    e_lam = np.exp(lam_eta)
    e_2max = np.exp(2.0 * p.lam * eta0.sup)
    ok = np.ones(grid.m + 1, dtype=bool)
    for k in singular:
        ok[k] = False
    p4 = np.where(ok, profile, 1.0) ** 4

    num = (e_lam - e_2max)[None, :]          # strictly negative
    alpha = np.where(ok[:, None], num / p4[:, None], -np.inf)
    phi = np.where(ok[:, None], e_lam[None, :] / p4[:, None], np.inf)
    log_phi = np.where(
        ok[:, None], lam_eta[None, :] - 4.0 * np.log(np.where(ok, profile, 1.0))[:, None],
        np.inf,
    )
    two_s_alpha = 2.0 * p.s * alpha

    a_star, a_hat = _extrema(alpha)
    ph_star, ph_hat = _extrema(phi)
    lph_star, lph_hat = _extrema(log_phi)
    common = dict(
        params=p, eta0=eta0, grid=grid, singular_steps=singular,
    )
    if refined:
        return RefinedWeightTable(
            l_profile=profile, beta=alpha, gamma=phi, log_gamma=log_phi,
            two_s_beta=two_s_alpha, beta_star=a_star, beta_hat=a_hat,
            gamma_star=ph_star, gamma_hat=ph_hat,
            log_gamma_star=lph_star, log_gamma_hat=lph_hat, **common,
        )
    return WeightTable(
        alpha=alpha, phi=phi, log_phi=log_phi, two_s_alpha=two_s_alpha,
        alpha_star=a_star, alpha_hat=a_hat, phi_star=ph_star, phi_hat=ph_hat,
        log_phi_star=lph_star, log_phi_hat=lph_hat, **common,
    )


def carleman_weights(eta0: Eta0, p: WeightParams, grid: Grid) -> WeightTable:
    """Tabulate alpha, phi and their per-step extrema; profile t(T - t)."""
    t = grid.times
    return _build_table(eta0, p, grid, t * (grid.T - t), (0, grid.m), refined=False)


def refined_weights(eta0: Eta0, p: WeightParams, grid: Grid) -> RefinedWeightTable:
    """Tabulate beta, gamma from the truncated profile l(t)."""
    t = grid.times
    l = np.where(t <= 0.5 * grid.T, 0.25 * grid.T**2, t * (grid.T - t))
    return _build_table(eta0, p, grid, l, (grid.m,), refined=True)


# kind -> (attribute holding 2s*w, attribute holding log w2, per-step only)
_KINDS = {
    "alpha": ("two_s_alpha", "log_phi", False),
    "alpha_star": (None, "log_phi_star", True),
    "alpha_hat": (None, "log_phi_hat", True),
    "beta": ("two_s_beta", "log_gamma", False),
    "beta_star": (None, "log_gamma_star", True),
    "beta_hat": (None, "log_gamma_hat", True),
}


def _check_power(power: float) -> None:
    if not (POWER_RANGE[0] <= power <= POWER_RANGE[1]):
        raise ValueError(
            f"power {power} outside the tabulated range {POWER_RANGE}"
        )


def log_weight(table, kind: str, power: float, node: int, step: int) -> float:
    """Natural log of exp(2 s w) * w2^power at one (node, step).

    ``kind`` picks the family: 'alpha'|'alpha_star'|'alpha_hat' pair with
    phi-powers, 'beta'|'beta_star'|'beta_hat' with gamma-powers.  At singular
    time nodes the result is -inf (the product vanishes in the limit);
    exponentiation is the caller's choice and never produces NaN.
    """
    if kind not in _KINDS:
        raise KeyError(f"unknown weight kind {kind!r}")
    _check_power(power)
    if step in table.singular_steps:
        return float("-inf")
    expname, logname, per_step = _KINDS[kind]
    if per_step:
        base = 2.0 * table.params.s * getattr(table, kind)[step]
        lw = getattr(table, logname)[step]
    else:
        base = getattr(table, expname)[step, node]
        lw = getattr(table, logname)[step, node]
    return float(base + power * lw)


def log_weight_profile(table, kind: str, power: float) -> np.ndarray:
    """Vectorised :func:`log_weight`: per-step array for starred/hatted kinds,
    full (steps, nodes) array otherwise.  Singular steps map to -inf."""
    if kind not in _KINDS:
        raise KeyError(f"unknown weight kind {kind!r}")
    _check_power(power)
    expname, logname, per_step = _KINDS[kind]
    with np.errstate(invalid="ignore"):
        if per_step:
            out = 2.0 * table.params.s * getattr(table, kind)  # the per-step extremum
            out = out + power * getattr(table, logname)
        else:
            out = getattr(table, expname) + power * getattr(table, logname)
    for k in table.singular_steps:
        out[k] = -np.inf
    return out


def _logsumexp(a, b=None) -> float:
    """log(sum(b * exp(a))) of a 1-D ``a`` (``-inf`` entries allowed), ``b > 0``:
    scipy.special.logsumexp's algorithm step for step, so bit for bit its result
    (the terms at the max are summed separately into ``m``)."""
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    if a_max == -np.inf:
        return float("-inf")
    at_max = a == a_max
    m = (at_max if b is None else b * at_max).sum(dtype=float)
    e = np.exp(np.where(at_max, -np.inf, a) - a_max)
    s = (e if b is None else b * e).sum()
    return float(np.log1p(s if s == 0 else s / m) + np.log(m) + a_max)
