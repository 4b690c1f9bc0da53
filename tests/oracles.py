"""Test oracles: independent solution paths and diagnostics that only the
tests call.

* the duality audit: both sides of the discrete transposition identity;
* the backward residual pair L* of a dual candidate, as a plain stencil;
* the exponent and factor of a weight table from their closed forms;
* the scalar weighted energy ``i_beta`` of one sample;
* the raw-coordinate normal-equations matrix of the dual problem and two
  dense direct solves of the dual problem;
* the eps-uniform elliptic-regularity scan;
* the measured smallness radius of the Picard loop and the continuity
  constant of the quadratic remainder;
* the chemotaxis matrix N(v) and the density matrix M(v) in grid order,
  built by diagonals (1D) or a COO double loop (2D) as they stood before
  the density step's CSC pattern;
* the implicitly coupled forward march with a fresh sparse LU of that
  M(v) per fixed-point iterate, as it stood before the chord method;
* the inverse cosine transform Q^-1, which production code no longer
  applies;
* the dual CG's backward march and its transpose on the sparse LU factor
  of the adjoint block step, in node coordinates as they stood before the
  cosine eigenbasis, taking and returning cosine modes as the CG does;
* the modal sweep of those marches as a plain step-by-step loop, as it
  stood before the chunked time scan;
* the Neumann Laplacian as the face table's flux divergence, as it stood
  before the sparse matrix became its one apply;
* the density march of one run, as it stood before the march took a
  stack of runs: scalar update sizes, a COLAMD factor of the v step and
  one check after the other;
* the parabolic-elliptic march on its own, as it stood before it became a
  block kind of the one density march: a plain factor of b I - A and a
  fresh M(v) per step;
* the Neumann Laplacian matrix as a ``lil`` tridiagonal per axis and a
  ``kron`` sum in 2D, and the quadrature weights, node coordinates, cosine
  eigenvalues and bump values forked on 1D and 2D, as they stood before the
  face table and one tensor product over the axes built them;
* the linearized step's block matrix C and its adjoint C* written out by
  hand as a ``bmat``, as they stood before ``ks_model.linearized_step``
  became the one source of their coefficients;
* the Carleman audit's per-axis second difference with its own ghost rule,
  as it stood before the audit took the grid's per-axis Laplacian.
"""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ksctl import ks_model
from ksctl.adjoint import AdjointTrajectory
from ksctl.carleman_check import _scan, _ScanEntry, gradient_sq, hessian_sq, time_derivative
from ksctl.grid import Grid, _divergence, chemotaxis_divergence, h1_seminorm_sq, inner
from ksctl.hum_control import ControlProblem, SolverSettings, _DualSystem
from ksctl.ks_model import Control, KSParams, StateTrajectory, block_step_factor
from ksctl.nonlinear_control import _capped, e_norm, picard_solve
from ksctl.weights import Eta0, WeightTable, _axis_bump, _logsumexp, log_step_sum


def face_flux_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """The Laplacian of one field, or row by row of a (slices, nodes) array,
    as the face table's divergence of the flux (f_r - f_l)/h."""
    return _divergence(grid.faces, lambda fc: (f[..., fc.right] - f[..., fc.left]) / fc.h)


def chem_matrix_oracle(v: np.ndarray, grid: Grid) -> sp.csr_matrix:
    """N(v) as it was built per step before the density pattern: diagonals
    in 1D, a COO double loop in 2D."""
    nn = grid.num_nodes
    if grid.dim == 1:
        h = grid.h[0]
        cw = grid.axis_weights(0)
        dv = (v[1:] - v[:-1]) / h
        lower = np.zeros(nn - 1)
        upper = np.zeros(nn - 1)
        main = np.zeros(nn)
        main[:-1] += 0.5 * dv / cw[:-1]
        upper[:] += 0.5 * dv / cw[:-1]
        main[1:] -= 0.5 * dv / cw[1:]
        lower[:] -= 0.5 * dv / cw[1:]
        return sp.diags([lower, main, upper], [-1, 0, 1], format="csr")
    v2 = v.reshape(grid.shape)
    nx, ny = grid.shape
    cwx, cwy = grid.axis_weights(0), grid.axis_weights(1)
    rows, cols, vals = [], [], []

    def flat(i, j):
        return i * ny + j

    dvx = (v2[1:, :] - v2[:-1, :]) / grid.h[0]
    for i in range(nx - 1):
        for j in range(ny):
            coeff = 0.5 * dvx[i, j]
            rows += [flat(i, j), flat(i, j), flat(i + 1, j), flat(i + 1, j)]
            cols += [flat(i, j), flat(i + 1, j), flat(i, j), flat(i + 1, j)]
            vals += [coeff / cwx[i], coeff / cwx[i],
                     -coeff / cwx[i + 1], -coeff / cwx[i + 1]]
    dvy = (v2[:, 1:] - v2[:, :-1]) / grid.h[1]
    for i in range(nx):
        for j in range(ny - 1):
            coeff = 0.5 * dvy[i, j]
            rows += [flat(i, j), flat(i, j), flat(i, j + 1), flat(i, j + 1)]
            cols += [flat(i, j), flat(i, j + 1), flat(i, j), flat(i, j + 1)]
            vals += [coeff / cwy[j], coeff / cwy[j],
                     -coeff / cwy[j + 1], -coeff / cwy[j + 1]]
    return sp.coo_matrix((vals, (rows, cols)), shape=(nn, nn)).tocsr()


def density_matrix_oracle(v: np.ndarray, grid: Grid) -> sp.csc_matrix:
    """M(v) = I - dt (A - N(v)) in grid order, N(v) from :func:`chem_matrix_oracle`."""
    N = chem_matrix_oracle(v, grid)
    return (sp.identity(grid.num_nodes, format="csr") - grid.dt * (grid.laplacian_matrix - N)).tocsc()


class DualityMismatchError(ValueError):
    """Primal and adjoint trajectories disagree on grid or relaxation."""


def duality_terms(primal: StateTrajectory, adj: AdjointTrajectory, c: Control,
                  h1: np.ndarray | None, h2: np.ndarray | None,
                  f1: np.ndarray | None, f2: np.ndarray | None):
    """Both sides of the discrete transposition identity, term by term, for
    the forward sources (h1, h2) and the adjoint sources (f1, f2) the two
    trajectories were marched with; the adjoint's terminal data is its slice m.

    Returns (lhs, rhs, scale): lhs collects the adjoint-source pairings plus
    terminal pairings, rhs the forward-source and initial pairings; scale is
    the sum of absolute values of every term (for relative gap reporting).
    """
    grid = primal.grid
    if adj.grid is not grid and (
        adj.grid.dim != grid.dim or adj.grid.n != grid.n
        or adj.grid.L != grid.L or adj.grid.m != grid.m
        or adj.grid.T != grid.T
    ):
        raise DualityMismatchError("primal and adjoint live on different grids")
    if adj.params.eps != primal.params.eps:
        raise DualityMismatchError(
            f"eps mismatch: primal {primal.params.eps}, adjoint {adj.params.eps}"
        )
    m = grid.m
    dt = grid.dt
    nn = grid.num_nodes
    zeros = np.zeros((m + 1, nn))
    h1, h2, f1, f2 = (zeros if f is None else f for f in (h1, h2, f1, f2))

    w = grid.quad_weights
    eps = primal.params.eps

    def pair(traj_slices, src_slices):
        # sum_k dt <a^k, b^k>_W over the given index pairs
        return dt * float(np.einsum("kn,n,kn->", traj_slices, w, src_slices))

    lhs_terms = [
        pair(primal.u[1:], f1[1:]),
        pair(primal.v[1:], f2[1:]),
        inner(primal.u[m], adj.phi[m], grid),
        eps * inner(primal.v[m], adj.xi[m], grid),
    ]
    gchi = c.g[1:] * c.chi[None, :]
    rhs_terms = [
        pair(adj.phi[:-1], h1[1:]),
        pair(adj.xi[:-1], gchi),
        pair(adj.xi[:-1], h2[1:]),
        inner(primal.u[0], adj.phi[0], grid),
        eps * inner(primal.v[0], adj.xi[0], grid),
    ]
    scale = sum(abs(t) for t in lhs_terms + rhs_terms)
    return sum(lhs_terms), sum(rhs_terms), scale


def duality_gap(primal: StateTrajectory, adj: AdjointTrajectory, c: Control,
                h1: np.ndarray | None, h2: np.ndarray | None,
                f1: np.ndarray | None, f2: np.ndarray | None) -> float:
    """Absolute residual of the transposition identity (machine-zero when the
    primal really solves the forward problem with the given data)."""
    lhs, rhs, _ = duality_terms(primal, adj, c, h1, h2, f1, f2)
    return abs(lhs - rhs)



def apply_Lstar(z: np.ndarray, w: np.ndarray, p: KSParams, grid: Grid):
    """Backward residual pair on slices 0..m-1 (anchored at the implicit level):

        F1^j = (z^j - z^{j+1})/dt - Lap z^j - a w^j
        F2^j = eps (w^j - w^{j+1})/dt - Lap w^j + b w^j + M1 Lap z^j
    """
    A = grid.laplacian_matrix
    dt = grid.dt
    Az = (A @ z[:-1].T).T
    Aw = (A @ w[:-1].T).T
    F1 = (z[:-1] - z[1:]) / dt - Az - p.a * w[:-1]
    F2 = p.eps * (w[:-1] - w[1:]) / dt - Aw + p.b * w[:-1] + p.M1 * Az
    return F1, F2


def closed_form_weights(eta0: Eta0, table: WeightTable):
    """(exponent, factor) of ``table`` on every (step, node): alpha and phi,
    or beta and gamma, from their closed forms

        (exp(lam eta0) - exp(2 lam sup eta0)) / profile^4,  exp(lam eta0) / profile^4.

    At the singular steps the profile vanishes and the two hold their
    limits, -inf and +inf.
    """
    lam = table.params.lam
    e_lam = np.exp(lam * eta0.values)
    p4 = (table.profile ** 4)[:, None]
    with np.errstate(divide="ignore"):
        return (e_lam - np.exp(2.0 * lam * eta0.sup))[None, :] / p4, e_lam[None, :] / p4


def i_beta(q: np.ndarray, beta_exp: float, sigma: float,
           table: WeightTable, grid: Grid) -> float:
    """The three-term weighted space-time energy of one scalar sample.

    Returned on the linear scale; for large ``s`` this may underflow to 0,
    which is why the inequality reports combine the log-domain terms
    directly instead of calling this.
    """
    if not (0.0 < sigma <= 1.0):
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    w = [_ScanEntry(table)]   # a scan of one table: each term is its [0, 0]
    return float(np.exp(_logsumexp([
        _scan(w, beta_exp + 3.0, "alpha", beta_exp + 3.0, q * q)[0, 0],
        _scan(w, beta_exp + 1.0, "alpha", beta_exp + 1.0, gradient_sq(q, grid))[0, 0],
        _scan(w, beta_exp - 1.0, "alpha", beta_exp - 1.0,
              sigma**2 * time_derivative(q, grid) ** 2 + hessian_sq(q, grid))[0, 0],
    ])))



def dual_matrix(sys_: _DualSystem) -> sp.csr_matrix:
    """The sparse matrix of the weighted normal equations in the raw
    space-time coordinates (Z flattened from its (2, m+1, nodes) layout)."""
    prob = sys_.prob
    p, grid = prob.params, prob.grid
    dt, W = grid.dt, grid.quad_weights
    rho1, rho2, rho3 = sys_.rho
    m, nn = grid.m, grid.num_nodes
    A = grid.laplacian_matrix
    I = sp.identity(nn, format="csr")
    K_cur = sp.eye(m, m + 1, k=0, format="csr")
    K_nxt = sp.eye(m, m + 1, k=1, format="csr")

    M1 = sp.hstack(
        [
            sp.kron(K_cur, I / dt - A) - sp.kron(K_nxt, I / dt),
            sp.kron(K_cur, -p.a * I),
        ]
    )
    M2 = sp.hstack(
        [
            sp.kron(K_cur, p.M1 * A),
            sp.kron(K_cur, (p.eps / dt + p.b) * I - A)
            - sp.kron(K_nxt, (p.eps / dt) * I),
        ]
    )
    D1 = sp.diags(np.kron(dt * rho1, W))
    D2 = sp.diags(np.kron(dt * rho2, W))
    A_e = (M1.T @ D1 @ M1 + M2.T @ D2 @ M2).tocsr()

    extra = np.zeros((2, m + 1, nn))
    extra[1, :m] = (dt * rho3)[:, None] * (W * prob.chi**2)[None, :]
    extra[0, -1] = prob.settings.tau * W
    extra[1, -1] = prob.settings.tau * p.eps * W
    return (A_e + sp.diags(extra.reshape(-1))).tocsr()


def dense_kkt_solve(sys_: _DualSystem) -> np.ndarray:
    """Dense direct solution of the constrained normal equations.

    Small-instance oracle only: densifies the assembled sparse matrix,
    augments the zero-mean constraint as a KKT border and solves with a
    dense factorization (a solution path sharing nothing with the CG
    solver beyond the quadratic form itself)."""
    m, nn = sys_.m, sys_.nn
    c = np.zeros((1, 2 * (m + 1) * nn))
    c[0, m * nn: (m + 1) * nn] = sys_.prob.grid.quad_weights   # zero mean of z^m
    dim = c.size
    kkt = np.block([[dual_matrix(sys_).toarray(), c.T], [c, np.zeros((1, 1))]])
    # symmetric diagonal equilibration for the dense factorization
    d = np.sqrt(np.abs(np.diag(kkt)))
    d[d == 0] = 1.0
    kkt_eq = kkt / d[:, None] / d[None, :]
    rhs = np.concatenate([sys_.raw_rhs().reshape(-1), [0.0]]) / d
    sol = np.linalg.solve(kkt_eq, rhs) / d
    return sol[:dim].reshape(2, m + 1, nn)


def dense_dual_solve(problem: ControlProblem) -> tuple[np.ndarray, np.ndarray]:
    """Small-instance oracle: densify the source/terminal normal system,
    solve it with a dense LAPACK factorization, and march back to the dual
    pair.  Shares the quadratic form with ``solve_dual`` but none of the
    iterative machinery."""
    sys_ = _DualSystem(problem)
    m, nn = problem.grid.m, problem.grid.num_nodes
    dim = 2 * m * nn + 2 * nn
    H = np.empty((dim, dim))
    e = np.zeros(dim)
    for i in range(dim):
        e[i] = 1.0
        gty = sys_.gramian_apply(e.reshape(2, m + 1, nn)).ravel()
        H[:, i] = gty
        e[i] = 0.0
    H += np.eye(dim)
    mode0 = np.zeros((1, dim))
    mode0.reshape(2, m + 1, nn)[0, m, 0] = 1.0   # zero mean of z^m: its mode 0
    kkt = np.block([[H, mode0.T], [mode0, np.zeros((1, 1))]])
    b = sys_.raw_rhs()
    rhs = np.concatenate([sys_.march_T(sys_.basis.apply(b, np.empty_like(b))).ravel(), [0.0]])
    y = np.linalg.solve(kkt, rhs)[:dim]
    Zh = sys_.march(sys_.project(y.reshape(2, m + 1, nn)))
    Z = sys_.raw_project(sys_.basis.apply(Zh, np.empty_like(Zh)))
    return Z[0], Z[1]



def elliptic_regularity_check(f: np.ndarray, z0: np.ndarray, eps_list,
                              grid: Grid) -> dict:
    """March eps z_t - Lap z + z = f and report the discrete H2-over-data
    ratio per eps (the continuum estimate is one Sobolev level higher; the
    finite-difference space carries two robust derivative levels)."""
    A = grid.laplacian_matrix
    nn, m, dt = grid.num_nodes, grid.m, grid.dt
    I = sp.identity(nn, format="csc")

    def h2_sq(field):
        return (
            inner(field, field, grid)
            + h1_seminorm_sq(field, grid)
            + inner(A @ field, A @ field, grid)
        )

    fnorm = np.sqrt(
        sum(dt * (inner(f[k], f[k], grid) + h1_seminorm_sq(f[k], grid))
            for k in range(1, m + 1))
    )
    data = fnorm + np.sqrt(h2_sq(z0))
    rows = []
    for eps in eps_list:
        lu = spla.splu((eps * I - dt * (A - I)).tocsc())
        z = np.empty((m + 1, nn))
        z[0] = z0
        for k in range(m):
            z[k + 1] = lu.solve(eps * z[k] + dt * f[k + 1])
        znorm = np.sqrt(sum(dt * h2_sq(z[k]) for k in range(1, m + 1)))
        rows.append(
            {"eps": float(eps), "solution_h2": float(znorm),
             "data_norm": float(data),
             "ratio": float(znorm / data) if data > 0 else 0.0,
             "final": z[m]}
        )
    ratios = [r["ratio"] for r in rows]
    return {
        "rows": rows,
        "max_ratio": max(ratios),
        "min_ratio": min(ratios),
        "spread": max(ratios) / min(ratios) if min(ratios) > 0 else float("inf"),
    }


def delta_radius(p: KSParams, weights: WeightTable, chi: np.ndarray,
                 grid: Grid, mode: int = 1, delta_lo: float = 0.0,
                 delta_hi: float = 0.64, bisections: int = 6,
                 settings: SolverSettings = SolverSettings()) -> dict:
    """Bisection estimate of the largest cosine-perturbation amplitude the
    Picard loop still controls.  The smallness radius is measured, never
    assumed; the bracket and per-probe outcomes are all reported."""
    x = grid.node_coords[:, 0]
    probes = []

    def attempt(delta: float) -> bool:
        u0 = p.M1 + delta * np.cos(mode * np.pi * x / grid.L[0])
        v0 = np.full_like(x, p.M2)
        if np.any(u0 < 0):
            return False
        try:
            r = picard_solve(p, u0, v0, weights, chi, grid, settings)
        except RuntimeError:  # blow-up, inner cap, extraction, singular factor
            return False
        probes.append({"delta": delta, "converged": r.converged,
                       "iterations": r.iterations})
        return r.converged

    lo, hi = delta_lo, delta_hi
    if attempt(hi):
        return {"radius_lo": hi, "radius_hi": float("inf"), "probes": probes}
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if attempt(mid):
            lo = mid
        else:
            hi = mid
    return {"radius_lo": lo, "radius_hi": hi, "probes": probes}


def bilinear_continuity_ratio(z: np.ndarray, w: np.ndarray,
                              weights: WeightTable, params: KSParams,
                              chi: np.ndarray, grid: Grid, settings: SolverSettings) -> float:
    """Measured continuity constant of the quadratic remainder: the weighted
    source-space norm of div(z grad w) over the product of the two
    regularity norms that bound it."""
    h1 = np.array(
        [-chemotaxis_divergence(z[k], w[k], grid) for k in range(grid.m + 1)]
    )
    comp = e_norm(z, w, np.zeros_like(z), weights, params, chi, grid, settings)
    with np.errstate(invalid="ignore"):
        w4 = _capped(-(weights.two_s_exponent.min(axis=1) + 3.0 * weights.log_factor.min(axis=1)),
                     settings.weight_floor)[:-1]
    sqs = np.einsum("kn,n,kn->k", h1[1:], grid.quad_weights, h1[1:])
    log_num = 0.5 * log_step_sum(w4, grid.dt * sqs)
    log_den = comp["state_u_h2"] + comp["state_v_h2"]
    if not (np.isfinite(log_num) and np.isfinite(log_den)):
        return 0.0 if np.isneginf(log_num) else float("inf")
    return float(np.exp(log_num - log_den))


def implicit_march_oracle(p: KSParams, u0: np.ndarray, v0: np.ndarray, c: Control,
                          grid: Grid, inner_tol: float = 1e-13,
                          inner_maxit: int = 60) -> StateTrajectory:
    """``solve_forward_pp(coupling="implicit")`` as a plain fixed point: each
    iterate assembles M(v_j) by :func:`density_matrix_oracle` and solves it
    with ``spsolve``."""
    m, nn, dt = grid.m, grid.num_nodes, grid.dt
    u = np.empty((m + 1, nn))
    v = np.empty((m + 1, nn))
    u[0], v[0] = u0, v0
    I = sp.identity(nn, format="csr")
    lu_v = spla.splu((p.eps * I - dt * grid.laplacian_matrix + dt * p.b * I).tocsc())
    for k in range(m):
        uk1, vk1 = u[k].copy(), v[k].copy()
        for _ in range(inner_maxit):
            M = density_matrix_oracle(vk1, grid)
            uk1_new = spla.spsolve(M, u[k])
            vk1_new = lu_v.solve(
                p.eps * v[k] + dt * (p.a * uk1_new + c.g[k + 1] * c.chi)
            )
            delta = max(
                float(np.abs(uk1_new - uk1).max()),
                float(np.abs(vk1_new - vk1).max()),
            )
            uk1, vk1 = uk1_new, vk1_new
            if delta < inner_tol:
                break
        else:
            raise RuntimeError(f"oracle fixed point unconverged at step {k + 1}")
        u[k + 1], v[k + 1] = uk1, vk1
    return StateTrajectory(u=u, v=v, params=p, grid=grid)


def cosine_modes_of(grid: Grid, X: np.ndarray) -> np.ndarray:
    """Q^-1 X on the last axis, from the identity Q^-1 = diag(c/L) Q W."""
    basis = grid.cosine_basis
    return basis.inv_norm_sq * basis.apply(X * grid.quad_weights, np.empty_like(X))


def source_terminal_march_oracle(sys_: _DualSystem, y: np.ndarray) -> np.ndarray:
    """``sys_.march`` by sparse LU: Z^j = C*^-1 (D Z^{j+1} + dt F^j) in node
    coordinates, one factor solve per step, from and to cosine modes."""
    m, nn, eps = sys_.m, sys_.nn, sys_.prob.params.eps
    lu = block_step_factor(sys_.prob.params, sys_.prob.grid, True)
    yd = y * sys_.diag
    Z = sys_.basis.apply(yd, np.empty_like(yd))   # dt F^j, then Z^m
    for j in range(m - 1, -1, -1):
        Z[:, j] = lu.solve(np.concatenate([Z[0, j + 1] + Z[0, j],
                                           eps * Z[1, j + 1] + Z[1, j]])).reshape(2, nn)
    return cosine_modes_of(sys_.prob.grid, Z)


def source_terminal_march_T_oracle(sys_: _DualSystem, V: np.ndarray) -> np.ndarray:
    """``sys_.march_T`` by sparse LU: a forward sweep with the transposed
    factor of the one-step matrix, in node coordinates between the cosine
    modes; the node-space transpose of S is Q^-1 (modal S)^T Q."""
    m, nn, eps = sys_.m, sys_.nn, sys_.prob.params.eps
    lu = block_step_factor(sys_.prob.params, sys_.prob.grid, True)
    V = cosine_modes_of(sys_.prob.grid, V)
    Y = np.empty((2, m + 1, nn))
    carry = np.zeros((2, nn))
    for j in range(m):
        Y[:, j] = lu.solve((V[:, j] + carry).ravel(), trans="T").reshape(2, nn)
        carry = Y[:, j] * np.array([[1.0], [eps]])
    Y[:, m] = V[:, m] + carry
    return sys_.basis.apply(Y, np.empty_like(Y)) * sys_.diag


def modal_sweep_oracle(sys_: _DualSystem, backward: bool) -> np.ndarray:
    """``sys_._sweep`` one time step at a time: out^j = out^j + inv D z, then
    z = out^j, on out = sys_.Z for j = m-1..0 from z = Z^m (inv = C*^-1), or
    on out = sys_.T for j = 0..m-1 from z = 0 (inv = C*^-T); the source slots
    hold inv src^j on entry."""
    out = sys_.Z if backward else sys_.T
    inv = sys_.inv if backward else sys_.inv.transpose(1, 0, 2)
    k0, k1 = (inv * sys_.d).transpose(1, 0, 2)   # the columns of inv D
    z = out[:, -1] if backward else np.zeros((2, sys_.nn))
    for j in (range(sys_.m - 1, -1, -1) if backward else range(sys_.m)):
        z = out[:, j] = out[:, j] + k0 * z[0] + k1 * z[1]
    return z


def single_march_oracle(p: KSParams, u0: np.ndarray, v0: np.ndarray, c: Control,
                        grid: Grid, implicit: bool) -> StateTrajectory:
    """``solve_forward_pp`` of one run as it stood before the block stacks,
    on the same density factor and matrix-free residual of one field."""
    m, nn, dt = grid.m, grid.num_nodes, grid.dt
    I = sp.identity(nn, format="csr")
    lu_v = spla.splu((p.eps * I - dt * grid.laplacian_matrix + dt * p.b * I).tocsc())

    def chem(k, u, v_prev):
        return lu_v.solve(p.eps * v_prev + dt * (p.a * u + c.g[k] * c.chi))

    def size(du, dv):
        a, b = float(np.abs(du).max()), float(np.abs(dv).max())
        return a if a > b or a != a else b

    u = np.empty((m + 1, nn))
    v = np.empty((m + 1, nn))
    u[0], v[0] = u0, v0
    for k in range(m):
        lu = ks_model._density_factor(v[k], grid)
        uk1 = lu.solve(u[k])
        vk1 = chem(k + 1, uk1, v[k])
        if implicit:
            delta, it = size(uk1 - u[k], vk1 - v[k]), 1
            while (not delta < ks_model.INNER_TOL and math.isfinite(delta)
                   and it < ks_model.INNER_MAXIT):
                u_next = uk1 + lu.solve(ks_model._density_residual(u[k], uk1, vk1, grid))
                v_next = chem(k + 1, u_next, v[k])
                delta = size(u_next - uk1, v_next - vk1)
                uk1, vk1, it = u_next, v_next, it + 1
        peak = float(np.abs(uk1).max())
        for name, finite in (("u", math.isfinite(peak)), ("v", np.isfinite(vk1).all())):
            if not finite:
                raise RuntimeError(f"non-finite {name} at step {k + 1}")
        if implicit and not delta < ks_model.INNER_TOL:
            raise ks_model.InnerIterationError(k + 1, delta, it)
        if peak > ks_model.BLOWUP_CAP:
            raise ks_model.BlowUpError(k + 1, peak, ks_model.BLOWUP_CAP)
        u[k + 1], v[k + 1] = uk1, vk1
    return StateTrajectory(u=u, v=v, params=p, grid=grid)


def elliptic_march_oracle(p: KSParams, u0: np.ndarray, c: Control,
                          grid: Grid) -> StateTrajectory:
    """The parabolic-elliptic march as it stood on its own: one plain ``splu``
    of b I - A for the chemical, v[0] its solve of a u0 + g[0] chi, and per
    step M(v[k]) by :func:`density_matrix_oracle`, solved by ``spsolve``."""
    m, nn = grid.m, grid.num_nodes
    lu_e = spla.splu((p.b * sp.identity(nn, format="csr") - grid.laplacian_matrix).tocsc())
    u = np.empty((m + 1, nn))
    v = np.empty((m + 1, nn))
    u[0], v[0] = u0, lu_e.solve(p.a * u0 + c.g[0] * c.chi)
    for k in range(m):
        u[k + 1] = spla.spsolve(density_matrix_oracle(v[k], grid), u[k])
        v[k + 1] = lu_e.solve(p.a * u[k + 1] + c.g[k + 1] * c.chi)
    return StateTrajectory(u=u, v=v, params=p, grid=grid)


def _axis_laplacian_oracle(grid: Grid, axis: int) -> sp.csr_matrix:
    n, h = grid.n[axis], grid.h[axis]
    A = sp.diags([np.ones(n), np.full(n + 1, -2.0), np.ones(n)], [-1, 0, 1], format="lil")
    A[0, 1] = 2.0
    A[n, n - 1] = 2.0
    return (A / (h * h)).tocsr()


def laplacian_matrix_oracle(grid: Grid) -> sp.csr_matrix:
    """The Neumann Laplacian as a tridiagonal per axis, summed by ``kron`` in 2D."""
    if grid.dim == 1:
        return _axis_laplacian_oracle(grid, 0)
    Ix = sp.identity(grid.n[0] + 1, format="csr")
    Iy = sp.identity(grid.n[1] + 1, format="csr")
    return (sp.kron(_axis_laplacian_oracle(grid, 0), Iy, format="csr")
            + sp.kron(Ix, _axis_laplacian_oracle(grid, 1), format="csr"))


def grid_arrays_oracle(grid: Grid) -> dict:
    """``quad_weights``, ``node_coords`` and the cosine basis's
    ``inv_norm_sq`` and ``lam``, each built by a 1D and a 2D branch."""
    ks = [np.arange(n + 1) for n in grid.n]
    inv_norm_sq = [np.where((k == 0) | (k == n), 1.0, 2.0) / L
                   for k, n, L in zip(ks, grid.n, grid.L)]
    lam = [2.0 * (np.cos(np.pi * k / n) - 1.0) / (h * h) for k, n, h in zip(ks, grid.n, grid.h)]
    if grid.dim == 1:
        return {"quad_weights": grid.axis_weights(0), "node_coords": grid.axes[0][:, None],
                "inv_norm_sq": inv_norm_sq[0], "lam": lam[0]}
    X, Y = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    return {"quad_weights": np.multiply.outer(grid.axis_weights(0), grid.axis_weights(1)).ravel(),
            "node_coords": np.column_stack([X.ravel(), Y.ravel()]),
            "inv_norm_sq": np.multiply.outer(*inv_norm_sq).ravel(),
            "lam": np.add.outer(*lam).ravel()}


def eta0_values_oracle(grid: Grid, omega0) -> np.ndarray:
    """The bump's node values: one axis factor in 1D, their outer product in 2D."""
    center = np.atleast_2d(np.asarray(omega0, dtype=float)).mean(axis=1)
    vals = [_axis_bump(grid.axes[ax], grid.L[ax], center[ax])[0] for ax in range(grid.dim)]
    return vals[0] if grid.dim == 1 else np.multiply.outer(vals[0], vals[1]).ravel()


def block_step_oracle(p: KSParams, grid: Grid, adjoint: bool) -> sp.csc_matrix:
    """C, or C* if ``adjoint``, block by block: [[I - dt A, dt M1 A], [-dt a I,
    (eps + dt b) I - dt A]]; C* swaps the off-diagonal pair."""
    A, I, dt = grid.laplacian_matrix, sp.identity(grid.num_nodes, format="csr"), grid.dt
    upper, lower = dt * p.M1 * A, -dt * p.a * I
    if adjoint:
        upper, lower = lower, upper
    return sp.bmat([[I - dt * A, upper],
                    [lower, (p.eps + dt * p.b) * I - dt * A]], format="csc")


def axis_second_oracle(q: np.ndarray, grid: Grid, ax: int) -> np.ndarray:
    """The second difference of a (..., nodes) array along axis ``ax``,
    (q_{i-1} - 2 q_i + q_{i+1})/h^2 inside and, with a reflected ghost node,
    2 (q_1 - q_0)/h^2 and 2 (q_{n-1} - q_n)/h^2 at the two ends."""
    qs = np.moveaxis(q.reshape(*q.shape[:-1], *grid.shape), ax - grid.dim, -1)
    out = np.empty_like(qs)
    h2 = grid.h[ax] ** 2
    out[..., 1:-1] = (qs[..., :-2] - 2.0 * qs[..., 1:-1] + qs[..., 2:]) / h2
    out[..., 0] = 2.0 * (qs[..., 1] - qs[..., 0]) / h2
    out[..., -1] = 2.0 * (qs[..., -2] - qs[..., -1]) / h2
    return np.moveaxis(out, -1, ax - grid.dim).reshape(q.shape)
