import numpy as np
import pytest

from ksctl.grid import build_grid, mass
from ksctl.ks_model import KSParams, smooth_cutoff
from ksctl.weights import build_eta0, refined_weights, weight_params

OMEGA0 = (0.30, 0.40)
OMEGA_PRIME = (0.25, 0.45)
OMEGA = (0.20, 0.50)


@pytest.fixture(scope="session")
def grid_small():
    return build_grid(1, 1.0, 24, 2.4, 40)


@pytest.fixture(scope="session")
def grid_std():
    # the production-scale grid most acceptance criteria use: n=50, m=100
    return build_grid(1, 1.0, 50, 2.4, 100)


@pytest.fixture(scope="session")
def grid_2d():
    return build_grid(2, (1.0, 1.0), (12, 10), 1.2, 20)


@pytest.fixture(scope="session")
def params():
    return KSParams(a=10.0, b=1.0, eps=1.0, M1=1.0, M2=10.0)


@pytest.fixture(scope="session")
def eta_small(grid_small):
    return build_eta0(grid_small, OMEGA0, OMEGA_PRIME, OMEGA)


@pytest.fixture(scope="session")
def eta_std(grid_std):
    return build_eta0(grid_std, OMEGA0, OMEGA_PRIME, OMEGA)


@pytest.fixture(scope="session")
def chi_small(grid_small):
    return smooth_cutoff(grid_small, OMEGA_PRIME, OMEGA)


@pytest.fixture(scope="session")
def chi_std(grid_std):
    return smooth_cutoff(grid_std, OMEGA_PRIME, OMEGA)


@pytest.fixture(scope="session")
def weights_small(grid_small, eta_small):
    return refined_weights(eta_small, weight_params(grid_small.T, 1.5, sigma0=0.05))


@pytest.fixture(scope="session")
def weights_std(grid_std, eta_std):
    return refined_weights(eta_std, weight_params(grid_std.T, 1.5, sigma0=0.05))


def lowfreq_field(grid, rng, n_modes=8, zero_mean=False):
    pts = grid.node_coords
    f = np.zeros(grid.num_nodes)
    lo = 1 if zero_mean else 0
    for k in range(lo, n_modes):
        c = rng.standard_normal()
        mode = np.cos(k * np.pi * pts[:, 0] / grid.L[0])
        if grid.dim == 2:
            mode = mode * np.cos(
                int(rng.integers(0, n_modes)) * np.pi * pts[:, 1] / grid.L[1]
            )
        f += c * mode
    if zero_mean:
        f -= mass(f, grid) / grid.volume
    return f


def lowfreq_space_time(grid, rng, n_modes=6, zero_mean=False):
    t = grid.times / grid.T
    f = np.zeros((grid.m + 1, grid.num_nodes))
    for _ in range(3):
        env = np.polyval(rng.standard_normal(3), t)
        f += env[:, None] * lowfreq_field(grid, rng, n_modes, zero_mean)[None, :]
    return f
