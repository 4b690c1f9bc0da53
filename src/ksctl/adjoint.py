"""Backward solver for the adjoint pair.

Discretize-then-transpose: the backward one-step operator is the exact
adjoint (with respect to the trapezoid inner product) of the forward
linearized block matrix.  Writing the forward step as

    C X^{k+1} = D X^k + dt F^{k+1}     (C, D: ks_model.linearized_step),

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
from .ks_model import KSParams, block_march, block_step_factor, heat_factor, linearized_step

__all__ = [
    "AdjointTrajectory",
    "solve_adjoint",
    "solve_backward_heat",
]


@dataclass
class AdjointTrajectory:
    """Adjoint pair marched backward; slice m holds the projected terminal data."""

    phi: np.ndarray  # ([samples,] m+1, nodes)
    xi: np.ndarray
    params: KSParams
    grid: Grid


def solve_adjoint(p: KSParams, phiT: np.ndarray, xiT: np.ndarray,
                  f1: np.ndarray | None, f2: np.ndarray | None,
                  grid: Grid) -> AdjointTrajectory:
    """Backward march of the adjoint system.

    The terminal datum phiT must have zero weighted mean; it is projected
    (mean subtracted) and a warning is emitted when the correction exceeds
    1e-10.  Source slice k+1 enters the step that produces time level k,
    mirroring the forward stepper (see module docstring).  Samples on a
    leading axis march together, each projected alone and returned contiguous.
    """
    nn, m = grid.num_nodes, grid.m
    lead = np.shape(phiT)[:-1][:1]
    f1, f2 = (np.zeros((*lead, m + 1, nn)) if f is None else f for f in (f1, f2))
    for name, f, rows in (("phiT", phiT, lead), ("xiT", xiT, lead),
                          ("f1", f1, (*lead, m + 1)), ("f2", f2, (*lead, m + 1))):
        _check_field(f, grid, rows, name)

    means = np.reshape(mass(phiT, grid) / grid.volume, (*lead, 1))
    large = np.abs(means) > 1e-10 * np.maximum(1.0, np.abs(phiT).max(-1, keepdims=True))
    for mean in means[large]:
        warnings.warn(f"phiT mean {mean:.3e} projected out (zero-mean terminal "
                      "constraint)", stacklevel=2)
    phiT = phiT - means

    X = np.empty((len(means), m + 1, 2 * nn))
    X[:, m, :nn], X[:, m, nn:] = np.reshape(phiT, (-1, nn)), np.reshape(xiT, (-1, nn))
    block_march(block_step_factor(p, grid, True), _columns(X), _columns(np.concatenate(
        [np.reshape(f, (-1, m + 1, nn)) for f in (f1, f2)], axis=2)),   # freed before the copies
        np.repeat(linearized_step(p, grid.dt)[0], nn)[:, None], grid.dt, True)
    phi, xi = (np.ascontiguousarray(h).reshape(*lead, m + 1, nn) for h in np.split(X, 2, axis=2))
    return AdjointTrajectory(phi=phi, xi=xi, params=p, grid=grid)


def solve_backward_heat(phiT: np.ndarray, source: np.ndarray, grid: Grid) -> np.ndarray:
    """Backward heat march -phi_t - Lap phi = source with Neumann data, with
    an optional leading sample axis as in :func:`solve_adjoint`.

    Used by the transposition-inequality sampler, where the source is the
    Laplacian of a smooth control field.
    """
    m = grid.m
    lead = np.shape(phiT)[:-1][:1]
    for name, f, rows in (("phiT", phiT, lead), ("source", source, (*lead, m + 1))):
        _check_field(f, grid, rows, name)
    phi = np.empty((*lead, m + 1, grid.num_nodes))
    phi[..., m, :] = phiT
    block_march(heat_factor(grid), _columns(phi), _columns(source), 1.0, grid.dt, True)
    return phi


def _columns(a: np.ndarray) -> np.ndarray:
    """A ([samples,] m+1, width) array as block_march's (m+1, width, samples)."""
    return np.reshape(a, (-1, *a.shape[-2:])).transpose(1, 2, 0)
