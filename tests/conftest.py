import numpy as np
import pytest

from gibbsflow.system import system_from_config

# T(x) = 2x + 0.12 sin(2 pi x) mod 1: Markov on {0, 1/2, 1} with nonlinear
# branches, roof (2 + cos 2 pi x)/3 and potential -log T', so J_w depends on x
NL_DOUBLING = {
    "partition": [0.0, 0.5, 1.0],
    "branches": [{"expr": "2*x+0.12*sin(2*pi*x)", "image": [0, 2]},
                 {"expr": "2*x-1+0.12*sin(2*pi*x)", "image": [0, 2]}],
    "roof": ["(2+cos(2*pi*x))/3"] * 2,
    "potential": ["-log(2+0.24*pi*cos(2*pi*x))"] * 2,
}


@pytest.fixture(scope="session")
def nl_doubling():
    return system_from_config(NL_DOUBLING)


def itineraries(sys, x, n: int) -> np.ndarray:
    """(len(x), n) array of symbol sequences along forward orbits."""
    z = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    out = np.empty((len(z), n), dtype=int)
    for j in range(n):
        out[:, j] = sys.element_of(z)
        if j < n - 1:
            z = sys.apply_T(z)
            z = np.where(z >= 1.0, np.nextafter(1.0, 0.0), np.maximum(z, 0.0))
    return out
