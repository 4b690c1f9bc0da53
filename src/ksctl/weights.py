"""Carleman weight families built from an auxiliary bump function.

The bump ``eta0`` is positive inside the domain, vanishes on the boundary
and has no critical point outside a small interior box ``omega0``.  From it
two weight families are tabulated on the space-time grid:

* the classical family ``alpha``/``phi`` with time profile ``1/(t(T-t))^4``,
  singular at both endpoints;
* the refined family ``beta``/``gamma`` whose time profile uses the
  truncated function ``l(t)`` (constant ``T^2/4`` on ``[0, T/2]``), so it is
  regular at ``t = 0`` and singular only at ``t = T``.

Both families live in one :class:`WeightTable` type, tagged by family.
Exponentials like ``exp(2 s alpha) * phi**k`` underflow to zero across most
of the grid for realistic ``s``; every consumer therefore works with the
stored logarithms (``2 s alpha`` and ``log phi``), combined per query by
:func:`log_weight_profile`.  At singular time nodes the log is ``-inf`` by
the limit convention (the exponential factor wins against any power), so
``exp`` of a query is always finite or exactly zero, never NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .grid import ConfigError, Grid, _read_only, box_mask, check_all

__all__ = [
    "Eta0",
    "WeightParams",
    "WeightTable",
    "Eta0ConstructionError",
    "check_boxes",
    "build_eta0",
    "weight_params",
    "carleman_weights",
    "refined_weights",
    "log_weight_profile",
    "log_step_sum",
]

POWER_RANGE = (-10.0, 18.0)


class Eta0ConstructionError(ValueError):
    """Raised when the numeric scan refutes one of the bump invariants."""


def _strictly_inside(inner: np.ndarray, outer: np.ndarray) -> bool:
    return bool(np.all(inner[:, 0] > outer[:, 0]) and np.all(inner[:, 1] < outer[:, 1]))


def check_boxes(dim: int, L, omega0, omega_prime, omega) -> list[np.ndarray]:
    """The three control boxes as (dim, 2) arrays of (lo, hi) per axis,
    after checking the strict nesting omega0 << omega_prime << omega << the
    domain (0, L); ``L = None`` skips the domain.  Needs no grid, so the
    rule can be checked while the grid itself is invalid.  Every violation
    is reported, in one :class:`ConfigError`.
    """
    named = {"omega0": omega0, "omega_prime": omega_prime, "omega": omega}
    boxes, bad = {}, []
    for name, box in named.items():
        try:
            b = np.atleast_2d(np.asarray(box, dtype=float))
        except (TypeError, ValueError, OverflowError):   # or an int beyond double range
            b = None
        if b is None or b.shape != (dim, 2):
            bad.append(f"{name} must be one (lo, hi) pair per axis (dim={dim}), got {box!r}")
        elif not np.all(b[:, 0] < b[:, 1]):
            bad.append(f"{name} must have lo < hi on every axis, got {box!r}")
        else:
            boxes[name] = b
    if L is not None:
        boxes["the domain"] = np.array([[0.0, Li] for Li in L])
    for inner, outer in (("omega0", "omega_prime"), ("omega_prime", "omega"),
                         ("omega", "the domain")):
        if inner in boxes and outer in boxes and not _strictly_inside(
                boxes[inner], boxes[outer]):
            bad.append(f"{inner} must lie strictly inside {outer} (nesting rule)")
    if bad:
        raise ConfigError(bad)
    return [boxes[name] for name in named]


@dataclass(frozen=True)
class Eta0:
    """Auxiliary bump: positive inside, zero on the boundary, lone critical
    point inside ``omega0``."""

    values: np.ndarray          # flat node values, max normalised to 1
    omega_prime: tuple
    omega: tuple
    grid: Grid

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
    b0, bp, bw = check_boxes(grid.dim, grid.L, omega0, omega_prime, omega)
    center = b0.mean(axis=1)
    vals, grads = zip(*map(_axis_bump, grid.axes, grid.L, center))
    values = reduce(np.multiply.outer, vals).ravel()
    gradient = np.stack([reduce(np.multiply.outer, vals[:k] + grads[k:k + 1] + vals[k + 1:]).ravel()
                         for k in range(grid.dim)])

    # invariant scan
    inside = (grid.node_coords > 0.0) & (grid.node_coords < np.asarray(grid.L))
    if np.any(values[inside.all(axis=1)] <= 0.0):
        raise Eta0ConstructionError("eta0 not positive at an interior node")

    outside = ~box_mask(grid, b0)
    if grid.dim == 2:   # the four corners lie on the boundary along every axis
        outside &= inside.any(axis=1)
    gnorm = np.sqrt((gradient**2).sum(axis=0))
    if gnorm[outside].min() <= 0.0:
        raise Eta0ConstructionError("grad eta0 vanishes at a node outside omega0")

    argmax = grid.node_coords[int(np.argmax(values))]
    if not np.all((argmax >= b0[:, 0]) & (argmax <= b0[:, 1])):
        raise Eta0ConstructionError(f"argmax eta0 at {argmax} escaped omega0 {omega0}")

    return Eta0(
        values=values,
        omega_prime=tuple(map(tuple, bp)),
        omega=tuple(map(tuple, bw)),
        grid=grid,
    )


@dataclass(frozen=True)
class WeightParams:
    """Carleman parameters."""

    s: float
    lam: float

    def __post_init__(self):
        check_all([(0 < self.s < np.inf, f"s must be positive and finite, got {self.s} "
                    "(s = sigma0 * (T^4 + T^8) when not given)"),
                   (self.lam >= 1.0, f"lambda must be >= 1, got {self.lam}"),
                   (self.lam != np.inf, "lambda must be finite")])   # NaN fails only the rule above


def weight_params(T: float, lam: float = 1.5, s: float | None = None,
                  sigma0: float = 1.0) -> WeightParams:
    """Default rule ``s = sigma0 * (T^4 + T^8)``; pass ``s`` to override."""
    if s is None:
        check_all([(abs(sigma0) < np.inf, f"sigma0 must be finite, got {sigma0}")])
        try:
            s = sigma0 * (T**4 + T**8)
        except OverflowError:
            raise ConfigError([f"s = sigma0 * (T^4 + T^8) is beyond double range "
                               f"at grid.T = {T}"]) from None
    return WeightParams(s=float(s), lam=float(lam))


@dataclass(frozen=True)
class WeightTable:
    """One Carleman weight family on the space-time grid.

    ``family`` is "alpha" for the classical weights (time profile t(T - t),
    singular at t in {0, T}) or "beta" for the refined ones (truncated
    profile l(t), singular only at t = T).  ``profile`` is that time
    profile; the exponent (alpha or beta, negative everywhere) is kept as
    ``2 s`` times it and the factor (phi or gamma) as its log; the
    starred/hatted profiles take their per-step max/min over nodes per
    query.  Values at singular time nodes are the limits (-inf / +inf);
    log-domain products there are -inf, i.e. the product vanishes, which is
    the convention every integral below relies on.
    """

    family: str
    params: WeightParams
    grid: Grid
    profile: np.ndarray
    log_factor: np.ndarray
    two_s_exponent: np.ndarray
    singular_steps: tuple

    @cached_property
    def space_time_weights(self) -> np.ndarray:
        """Trapezoid weights in time times the node weights, (m+1, nodes),
        with zero rows on the singular steps."""
        grid = self.grid
        tw = np.full(grid.m + 1, grid.dt)
        tw[0] = tw[-1] = 0.5 * grid.dt
        tw[list(self.singular_steps)] = 0.0
        return _read_only(tw[:, None] * grid.quad_weights[None, :])


def _build_table(family: str, eta0: Eta0, p: WeightParams, profile: np.ndarray,
                 singular: tuple) -> WeightTable:
    lam_eta = p.lam * eta0.values
    e_lam = np.exp(lam_eta)
    e_2max = np.exp(2.0 * p.lam * eta0.sup)
    ok = np.ones(len(profile), dtype=bool)
    ok[list(singular)] = False
    p4 = np.where(ok, profile, 1.0) ** 4

    num = (e_lam - e_2max)[None, :]          # strictly negative
    exponent = np.where(ok[:, None], num / p4[:, None], -np.inf)
    log_factor = np.where(
        ok[:, None], lam_eta[None, :] - 4.0 * np.log(np.where(ok, profile, 1.0))[:, None],
        np.inf,
    )
    return WeightTable(family=family, params=p, grid=eta0.grid, profile=profile,
                       log_factor=log_factor, two_s_exponent=2.0 * p.s * exponent,
                       singular_steps=singular)


def carleman_weights(eta0: Eta0, p: WeightParams) -> WeightTable:
    """Tabulate the alpha family (alpha, phi) on ``eta0``'s grid; profile t(T - t)."""
    grid, t = eta0.grid, eta0.grid.times
    return _build_table("alpha", eta0, p, t * (grid.T - t), (0, grid.m))


def refined_weights(eta0: Eta0, p: WeightParams) -> WeightTable:
    """Tabulate the beta family (beta, gamma) from the truncated profile l(t)."""
    grid, t = eta0.grid, eta0.grid.times
    l = np.where(t <= 0.5 * grid.T, 0.25 * grid.T**2, t * (grid.T - t))
    return _build_table("beta", eta0, p, l, (grid.m,))


# kind -> (family, per-step reduction over the nodes or None for the full array)
_KINDS = {
    "alpha": ("alpha", None),
    "beta": ("beta", None),
    "beta_star": ("beta", np.max),
    "beta_hat": ("beta", np.min),
}


def log_weight_profile(table: WeightTable, kind: str, power: float) -> np.ndarray:
    """Natural log of exp(2 s w) * w2^power: a per-step array for the
    starred/hatted kinds, the full (steps, nodes) array otherwise.

    ``kind`` names the family and the extremum: 'alpha' pairs with
    phi-powers on a classical table, 'beta'|'beta_star'|'beta_hat' with
    gamma-powers on a refined one.  Singular steps map to -inf (the product
    vanishes in the limit); exponentiation is the caller's choice and never
    produces NaN.
    """
    if kind not in _KINDS:
        raise KeyError(f"unknown weight kind {kind!r}")
    family, extremum = _KINDS[kind]
    if family != table.family:
        raise KeyError(f"weight kind {kind!r} belongs to the {family} family; "
                       f"this table is of the {table.family} family")
    if not (POWER_RANGE[0] <= power <= POWER_RANGE[1]):
        raise ValueError(f"power {power} outside the tabulated range {POWER_RANGE}")
    with np.errstate(invalid="ignore"):
        if extremum is None:
            out = table.two_s_exponent + power * table.log_factor
        else:   # fl(2s x) is monotone in x, so the extremum of 2s x is 2s times x's
            out = extremum(table.two_s_exponent, axis=1) + power * extremum(table.log_factor, axis=1)
    out[list(table.singular_steps)] = -np.inf
    return out


def log_step_sum(log_w: np.ndarray, coeff: np.ndarray) -> float:
    """log(sum(coeff * exp(log_w))) over the terms with ``coeff > 0`` and a
    finite ``log_w``; -inf when there are none."""
    keep = (coeff > 0.0) & np.isfinite(log_w)
    return _logsumexp(log_w[keep], coeff[keep]) if keep.any() else float("-inf")


def _logsumexp(a, b=None) -> float:
    """log(sum(b * exp(a))) of a 1-D ``a`` (``-inf`` entries allowed), ``b > 0``:
    scipy.special.logsumexp's algorithm step for step, so bit for bit its result
    (the terms at the max are summed separately into ``m``)."""
    return float(_log_finish(_log_digest(a), b))


def _log_digest(a) -> tuple:
    """(max, entries at the max, exp(a - max) off them) per row of ``a``: the
    half that reads ``a``.  A lone row keeps up to two such entries as indices."""
    a = np.asarray(a, dtype=float)
    a_max = a.max(axis=-1, keepdims=True)
    at_max = a == a_max
    with np.errstate(invalid="ignore"):   # at an infinite max: -inf - -inf, inf - inf
        x = np.where(at_max, -np.inf, a - a_max)
    if a.ndim == 1 and np.count_nonzero(at_max) <= 2:
        at_max = np.flatnonzero(at_max)
    # exp below -746 is exactly 0, so skip it there; a NaN still goes through
    return a_max[..., 0], at_max, np.exp(x, out=np.zeros_like(x), where=~(x < -746.0))


def _log_finish(digest: tuple, b=None):
    """log(sum(b * exp(a))) from ``_log_digest(a)``, per row of a C-ordered
    2-D ``b``, or per row of ``a`` without ``b``; an all -inf row gives -inf."""
    a_max, at_max, e = digest
    b = np.ones_like(e) if b is None else b
    # at most two indices: one or two addends sum alike in any order, zeros or not
    m = (b * at_max if at_max.dtype == bool else np.take(b, at_max, axis=-1)).sum(axis=-1)
    return np.log1p((b * e).sum(axis=-1) / m) + np.log(m) + a_max   # m > 0: b > 0 at the max
