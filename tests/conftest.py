import numpy as np
import pytest

from saddle_forge.mesh import build_grid, integrate_piece
from saddle_forge.params import SurfaceParams
from saddle_forge.periods import solve_periods


def draw_params(rng, near_degenerate: bool = False) -> SurfaceParams:
    """Random valid moduli; near_degenerate keeps (x, X) within 0.05 of (a, a)
    (the regime where the implicit residue solve is guaranteed)."""
    a = rng.uniform(0.5, 0.95)
    b = rng.uniform(1.1, 2.2)
    if near_degenerate:
        x = a - rng.uniform(0.005, 0.05)
        X = a + rng.uniform(0.0, min(0.05, 0.9*(1.0 - a)))
        y = 1.0 + rng.uniform(0.05, 0.9)*(b - 1.0)
    else:
        x = a*rng.uniform(0.2, 0.95)
        X = a + rng.uniform(0.0, 0.9)*(1.0 - a)
        y = 1.0 + rng.uniform(0.1, 0.9)*(b - 1.0)
    return SurfaceParams(a=a, b=b, x=x, X=X, y=y).validate()


@pytest.fixture(scope="session")
def solved():
    """The reference family member t = 0.02, X_offset = 0, solved tightly."""
    return solve_periods(0.02, 0.0, tol=1e-11)


@pytest.fixture(scope="session")
def solved_params(solved) -> SurfaceParams:
    return solved.params


@pytest.fixture(scope="session")
def piece32(solved_params):
    return integrate_piece(build_grid(solved_params, 32))


@pytest.fixture(scope="session")
def piece64(solved_params):
    return integrate_piece(build_grid(solved_params, 64))


@pytest.fixture(scope="session")
def piece128(solved_params):
    return integrate_piece(build_grid(solved_params, 128))
