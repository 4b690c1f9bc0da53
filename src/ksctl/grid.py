"""Uniform space-time grids on rectangles with Neumann-compatible operators.

Fields are bare numpy arrays: a spatial field is a flat vector over the
``prod(n_i + 1)`` grid nodes (C order in 2D, axis 0 = x), a space-time field
is an ``(m + 1, nodes)`` array.  The grid carries trapezoid quadrature
weights and one face table, :attr:`Grid.faces`; every differential operator
below is built from that table so that

* the Laplacian matrix is self-adjoint for the weighted inner product,
  annihilates constants and has zero weighted column sums;
* the chemotaxis divergence has exactly zero weighted sum (discrete
  conservation): its face fluxes telescope, with no boundary faces.

Each per-axis array (weights, coordinates, eigenvalues) is one tensor
product over the axes, the same code in 1D and 2D.

These identities carry all the duality bookkeeping downstream, so they are
structural here, not accidental.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ConfigError",
    "Grid",
    "build_grid",
    "neumann_laplacian",
    "chemotaxis_divergence",
    "mass",
    "inner",
    "l2_norm",
    "l2_sq",
    "h1_seminorm_sq",
    "box_mask",
]


# the most n per axis and m: (m+1) (n+1)^2 doubles stay within np.intp's bytes
MAX_INTERVALS = 10**6
# the most (m+1) nodes: eps-sweep's stack, the largest array, is then 120 MB at 5 eps
MAX_SPACE_TIME = 3 * 10**6


class ConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def check_all(checks) -> None:
    """Raise one :class:`ConfigError` listing the message of every failed
    check; ``checks`` holds (passed, message) pairs."""
    failed = [msg for passed, msg in checks if not passed]
    if failed:
        raise ConfigError(failed)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on (0,L1)x(0,L2) x (0,T), boundary nodes included.

    ``n`` counts intervals per axis, so each axis carries ``n+1`` nodes and
    ``h = L/n``.  Time has ``m`` steps of size ``dt = T/m``.
    """

    dim: int
    L: tuple[float, ...]
    n: tuple[int, ...]
    T: float
    m: int
    h: tuple[float, ...] = field(init=False)
    dt: float = field(init=False)
    shape: tuple[int, ...] = field(init=False)
    num_nodes: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(Li / ni for Li, ni in zip(self.L, self.n)))
        object.__setattr__(self, "dt", self.T / self.m)
        object.__setattr__(self, "shape", tuple(ni + 1 for ni in self.n))
        object.__setattr__(self, "num_nodes", int(np.prod(self.shape)))

    # -- static geometry (built once per grid, shared read-only) ----------

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(np.linspace(0.0, Li, ni + 1))
                     for Li, ni in zip(self.L, self.n))

    @cached_property
    def times(self) -> np.ndarray:
        return _read_only(np.linspace(0.0, self.T, self.m + 1))

    @property
    def volume(self) -> float:
        return float(np.prod(self.L))

    def axis_weights(self, axis: int) -> np.ndarray:
        """Trapezoid weights along one axis (h/2 at the two end nodes)."""
        w = np.full(self.n[axis] + 1, self.h[axis])
        w[0] = w[-1] = 0.5 * self.h[axis]
        return w

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Flat quadrature weight per node (tensor product of axis weights)."""
        weights = map(self.axis_weights, range(self.dim))
        return _read_only(reduce(np.multiply.outer, weights).ravel())

    @cached_property
    def node_coords(self) -> np.ndarray:
        """(num_nodes, dim) array of node coordinates, flat node order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return _read_only(np.column_stack([x.ravel() for x in mesh]))

    @cached_property
    def faces(self) -> tuple[_Faces, ...]:
        """The faces along each axis, x first, in C order (see :class:`_Faces`)."""
        ijk = np.indices(self.shape).reshape(self.dim, self.num_nodes)
        faces = []
        for ax, n in enumerate(self.n):
            left = np.flatnonzero(ijk[ax] < n)
            stride = int(np.prod(self.shape[ax + 1:]))
            faces.append(_Faces(_read_only(left), _read_only(left + stride), self.h[ax],
                                _read_only(self.axis_weights(ax)[ijk[ax]])))
        return tuple(faces)

    # -- cached operator matrices ----------------------------------------

    @cached_property
    def _cache(self) -> dict:
        # per-grid store for the reused factors and the density patterns
        return {}

    def factor(self, key, build):
        """SuperLU factor of the constant sparse matrix ``build()``, made once per
        grid and ``key``: the factors the block marches reuse, I - dt A, C and C*."""
        if key not in self._cache:
            self._cache[key] = spla.splu(build().tocsc())
        return self._cache[key]

    @cached_property
    def axis_laplacians(self) -> tuple[sp.csr_matrix, ...]:
        """Per axis, x first, the Neumann second difference as a CSR matrix from
        :attr:`faces`: face (l, r) adds (f_j - f_i)/(h cw_i) to row i of (i, j) = (l, r), (r, l)."""
        per_axis = []
        for f in self.faces:
            row, col = np.r_[f.left, f.right], np.r_[f.right, f.left]
            c = 1.0 / (f.h * f.cw[row])
            per_axis.append(sp.csr_matrix((np.r_[-c, c], (np.r_[row, row], np.r_[row, col])),
                                          shape=(self.num_nodes,) * 2))
        return tuple(per_axis)

    @cached_property
    def laplacian_matrix(self) -> sp.csr_matrix:
        """Sparse Neumann Laplacian: the sum of :attr:`axis_laplacians`, x first."""
        return sum(self.axis_laplacians[1:], self.axis_laplacians[0])

    @cached_property
    def cosine_basis(self) -> _CosineBasis:
        """The eigenbasis of :attr:`laplacian_matrix` (see :class:`_CosineBasis`)."""
        axes = []
        for n, h, L in zip(self.n, self.h, self.L):
            k = np.arange(n + 1)
            c = np.where((k == 0) | (k == n), 1.0, 2.0)
            axes.append((np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n), c / L,
                         2.0 * (np.cos(np.pi * k / n) - 1.0) / (h * h)))
        q, inv_norm_sq, lam = zip(*axes)
        return _CosineBasis([_read_only(a) for a in q],
                            _read_only(reduce(np.multiply.outer, inv_norm_sq).ravel()),
                            _read_only(reduce(np.add.outer, lam).ravel()))


def build_grid(dim, L, n, T, m) -> Grid:
    """Validate sizes and assemble a :class:`Grid`.

    ``L`` and ``n`` may be scalars (1D) or length-2 sequences (2D).  Every
    violated rule is reported, in one :class:`ConfigError`.
    """
    Lt = tuple(float(x) for x in np.atleast_1d(L))
    nt = tuple(np.inf if abs(x) > sys.float_info.max else float(x) for x in np.atleast_1d(n))
    if dim == 2:
        Lt, nt = (t * 2 if len(t) == 1 else t for t in (Lt, nt))
    dim_ok = dim in (1, 2)
    points = np.prod([min(max(x, 0), MAX_INTERVALS) + 1 for x in (m, *nt)])
    check_all([
        (dim_ok, f"dim must be 1 or 2, got {dim}"),
        (not dim_ok or len(nt) == dim, f"n must have one entry per axis (dim={dim})"),
        (not dim_ok or len(Lt) == dim, f"L must have one entry per axis (dim={dim})"),
        (all(x >= 8 for x in nt), "n must be at least 8 intervals per axis"),
        (all(not x > MAX_INTERVALS for x in nt), f"n must be at most {MAX_INTERVALS} per axis"),
        (all(not x % 1 > 0 for x in nt), "n must be an integer per axis"),   # NaN % 1 > 0 is False
        (m >= 16, "m must be at least 16 time steps"),
        (not m > MAX_INTERVALS, f"m must be at most {MAX_INTERVALS} time steps"),
        (not m % 1 > 0, "m must be an integer"),
        (not points > MAX_SPACE_TIME, f"m and n must give (m+1) x nodes <= {MAX_SPACE_TIME}"),
        (all(x > 0 for x in Lt), "L must be positive"),
        (T > 0, "T must be > 0.0"),
        (T != np.inf, "T must be finite"),   # NaN fails only the rule above
    ])
    return Grid(dim=dim, L=Lt, n=tuple(int(x) for x in nt), T=float(T), m=int(m))


def _check_field(f, grid: Grid, rows: tuple = (), name: str = "field") -> None:
    if np.shape(f) != (*rows, grid.num_nodes):
        raise ValueError(f"{name} has shape {np.shape(f)}, grid expects {(*rows, grid.num_nodes)}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _CosineBasis:
    """The cosine (DCT-I) eigenbasis of the Neumann Laplacian (Strang, SIAM
    Review 41, 1999).  Per axis Q_jk = cos(pi j k / n) holds mode k at node
    j; it is symmetric, with Q^T W Q = L diag(1/c) under the trapezoid weights
    W, c = 1 at the two end modes and 2 inside, so Q^-1 = diag(c/L) Q W;
    ``inv_norm_sq`` holds c/L (in 2D its product over the axes) flat in the
    order of ``lam``.  The Laplacian is Q diag(lam) Q^-1, lam the sum over
    the axes of 2 (cos(pi k/n) - 1)/h^2."""

    q: list
    inv_norm_sq: np.ndarray
    lam: np.ndarray

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Q applied to the last axis of ``x``, into ``out``: in 2D axis 0
        from the left, then the last axis from the right."""
        y = x.reshape(-1, *(len(a) for a in self.q))
        if len(self.q) == 2:
            y = np.matmul(self.q[0], y)
        np.matmul(y, self.q[-1], out=out.reshape(y.shape))
        return out


@dataclass(frozen=True)
class _Faces:
    """The faces along one axis: face k joins node ``left[k]`` to its
    neighbour ``right[k]`` at distance ``h``; ``cw`` is every node's
    trapezoid cell width along this axis."""

    left: np.ndarray
    right: np.ndarray
    h: float
    cw: np.ndarray


def _divergence(faces, flux) -> np.ndarray:
    """Sum over the axes' ``faces``, x first, of the net outflow per cell
    width of the face flux ``flux(f)``: one field, or a row per slice when
    the flux is (slices, faces), each row summed as its slice alone would be.
    A face flux leaves its left node and enters its right node; with no
    boundary faces the weighted sum telescopes to zero."""
    out = None
    for f in faces:
        q, nn = flux(f), f.cw.size
        rows, left, right, size = q.shape[:-1], f.left, f.right, q.size // f.left.size * nn
        if rows:   # slice k's nodes offset by k nn: one bincount over all slices
            at = nn * np.arange(rows[0])[:, None]
            left, right, q = (left + at).ravel(), (right + at).ravel(), q.ravel()
        d = (np.bincount(left, q, size) - np.bincount(right, q, size)).reshape(*rows, nn) / f.cw
        out = d if out is None else out + d
    return out


def neumann_laplacian(f: np.ndarray, grid: Grid, axis: int | None = None) -> np.ndarray:
    """The Neumann Laplacian of one field or row by row of a (slices, nodes)
    array, or its second difference along ``axis`` alone: the package's one
    apply of :attr:`Grid.laplacian_matrix` and :attr:`Grid.axis_laplacians`."""
    _check_field(f, grid, f.shape[:-1][:1])
    A = grid.laplacian_matrix if axis is None else grid.axis_laplacians[axis]
    return (A @ f.T).T


def chemotaxis_divergence(u: np.ndarray, v: np.ndarray, grid: Grid) -> np.ndarray:
    """Flux-form div(u grad v) with zero normal flux, of one pair of fields or
    row by row of two (slices, nodes) arrays; each weighted sum is exactly 0."""
    _check_field(u, grid, u.shape[:-1][:1])
    _check_field(v, grid, u.shape[:-1][:1])
    return _divergence(grid.faces, lambda fc: 0.5 * (
        u[..., fc.left] + u[..., fc.right]) * (v[..., fc.right] - v[..., fc.left]) / fc.h)


def inner(f: np.ndarray, g: np.ndarray, grid: Grid) -> np.ndarray:
    """Weighted (trapezoid) L2 inner product of two fields or of each slice pair
    of two stacks: the one weighted node sum, in a fixed order (no BLAS), so a
    stacked row equals its single-slice call and no thread count moves a bit."""
    return np.einsum("...n,n,...n->...", f, grid.quad_weights, g)


def mass(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoid-rule integral of one field or of each slice of a stack:
    :func:`inner` with a unit third factor."""
    _check_field(f, grid, np.shape(f)[:-1])
    return inner(f, np.ones(grid.num_nodes), grid)


def check_zero_mass(f: np.ndarray, grid: Grid, name: str) -> None:
    """Reject ``f``, one field or a space-time array, unless every slice has
    zero mass to 1e-10 max(1, |f|_inf)."""
    worst = float(np.abs(mass(f, grid)).max())
    if worst > 1e-10 * max(1.0, float(np.abs(f).max())):
        where = " at every step" if f.ndim > 1 else ""
        raise ValueError(f"{name} must have zero mass{where}; worst |mass| = {worst:.3e}")


def l2_sq(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Weighted squared L2 norm of one field, or of each slice of a stack."""
    return inner(f, f, grid)


def l2_norm(f: np.ndarray, grid: Grid) -> np.ndarray:
    return np.sqrt(l2_sq(f, grid))


def h1_seminorm_sq(f: np.ndarray, grid: Grid, lap: np.ndarray | None = None) -> np.ndarray:
    """Discrete ``int |grad f|^2`` of one field or of each slice, computed as
    <-Lap f, f>_W with :func:`neumann_laplacian` (summation by parts), or
    with ``lap``, that apply already made."""
    lap = neumann_laplacian(f, grid) if lap is None else lap
    return np.maximum(-inner(lap, f, grid), 0.0)


def box_mask(grid: Grid, box) -> np.ndarray:
    """Boolean node mask of an open coordinate box ((lo, hi) per axis)."""
    b = np.atleast_2d(np.asarray(box, dtype=float))
    if b.shape != (grid.dim, 2):
        raise ValueError(f"box must be {grid.dim} (lo, hi) pairs, got {box}")
    pts = grid.node_coords
    m = np.ones(grid.num_nodes, dtype=bool)
    for ax in range(grid.dim):
        m &= (pts[:, ax] > b[ax, 0]) & (pts[:, ax] < b[ax, 1])
    return m
