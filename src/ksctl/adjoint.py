"""Backward solver for the adjoint pair.

Discretize-then-transpose: the backward one-step operator is the exact
adjoint (with respect to the trapezoid inner product) of the forward
linearized block matrix.  Writing the forward step as

    C X^{k+1} = D X^k + dt F^{k+1},      D = diag(I, eps I),

the adjoint recursion is  C* P^k = D P^{k+1} + dt G^{k+1}  marched from the
terminal data, and summation by parts gives the exact identity

    sum_k dt <(z,w)^k, (F1,F2)^k>  +  <z^m, phiT> + eps <w^m, xiT>
      = sum_k dt <h1^k, phi^{k-1}> + dt <(g chi + h2)^k, xi^{k-1}>
        + <z^0, phi^0> + eps <w^0, xi^0>,

which the tests' duality audit checks to roundoff.  The one-step index
offset on the right is the footprint of implicit Euler; it is part of the
contract, not an approximation, and every consumer (the weighted
least-squares dual form in particular) pairs sources with states in
exactly this way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Grid, _check_field, mass
from .ks_model import KSParams, block_march, block_step_factor, heat_factor

__all__ = [
    "AdjointTrajectory",
    "solve_adjoint",
    "solve_backward_heat",
]


@dataclass
class AdjointTrajectory:
    """Adjoint pair marched backward from (phiT, xiT) with sources (f1, f2)."""

    phi: np.ndarray  # (m+1, nodes)
    xi: np.ndarray
    phiT: np.ndarray
    xiT: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    params: KSParams
    grid: Grid


def solve_adjoint(p: KSParams, phiT: np.ndarray, xiT: np.ndarray,
                  f1: np.ndarray | None, f2: np.ndarray | None,
                  grid: Grid) -> AdjointTrajectory:
    """Backward march of the adjoint system.

    The terminal datum phiT must have zero weighted mean; it is projected
    (mean subtracted) and a warning is emitted when the correction exceeds
    1e-10.  Source slice k+1 enters the step that produces time level k,
    mirroring the forward stepper (see module docstring).
    """
    nn, m = grid.num_nodes, grid.m
    zeros = np.zeros((m + 1, nn))
    f1 = zeros if f1 is None else f1
    f2 = zeros if f2 is None else f2
    for name, f, rows in (("phiT", phiT, ()), ("xiT", xiT, ()), ("f1", f1, (m + 1,)),
                          ("f2", f2, (m + 1,))):
        _check_field(f, grid, rows, name)

    mean = mass(phiT, grid) / grid.volume
    if abs(mean) > 1e-10 * max(1.0, float(np.abs(phiT).max())):
        warnings.warn(
            f"phiT mean {mean:.3e} projected out (zero-mean terminal constraint)",
            stacklevel=2,
        )
    phiT = phiT - mean

    X = np.empty((m + 1, 2, nn))
    X[m] = phiT, xiT
    block_march(block_step_factor(p, grid, True), X.reshape(m + 1, 2 * nn),
                np.concatenate([f1, f2], axis=1), np.repeat([1.0, p.eps], nn),
                grid.dt, True)
    return AdjointTrajectory(
        phi=X[:, 0], xi=X[:, 1], phiT=phiT, xiT=xiT, f1=f1, f2=f2, params=p, grid=grid
    )


def solve_backward_heat(phiT: np.ndarray, source: np.ndarray, grid: Grid) -> np.ndarray:
    """Backward heat march -phi_t - Lap phi = source with Neumann data.

    Used by the transposition-inequality sampler, where the source is the
    Laplacian of a smooth control field.
    """
    m = grid.m
    for name, f, rows in (("phiT", phiT, ()), ("source", source, (m + 1,))):
        _check_field(f, grid, rows, name)
    phi = np.empty((m + 1, grid.num_nodes))
    phi[m] = phiT
    return block_march(heat_factor(grid), phi, source, 1.0, grid.dt, True)
