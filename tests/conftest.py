import numpy as np
import pytest
from hypothesis import strategies as st

import photonfield as pf


@st.composite
def unit_vectors(draw):
    v = np.array(
        [
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
            draw(st.floats(-1.0, 1.0, allow_nan=False)),
        ]
    )
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.array([0.0, 0.0, 1.0])
        norm = 1.0
    return v / norm


STANDARD_MODES = (
    (1, (0, 0, 1)),
    (-1, (0, 0, 1)),
    (1, (0, 0, -1)),
    (-1, (0, 0, -1)),
)

# One dump-operator name per operator family, each with stored entries on the standard lattice.
DUMP_OPERATORS = ("N", "H", "Pz", "Sz", "a@0", "adag@1", "N@0", "Ex@0.3,-0.2,0.15,0.1", "By@0,0,0,0", "Ax@1,2,3,0.5")


@pytest.fixture(scope="session")
def standard_basis():
    """Both helicities of +/- z momentum, n_max = 3, dimension 256."""
    cfg = pf.LatticeConfig(length=2 * np.pi, n_max=3, modes=STANDARD_MODES)
    return pf.build_basis(cfg)


@pytest.fixture(scope="session")
def single_mode_basis():
    """One mode (s = +1, n = z-hat), n_max = 3, omega = 1."""
    cfg = pf.LatticeConfig(length=2 * np.pi, n_max=3, modes=((1, (0, 0, 1)),))
    return pf.build_basis(cfg)


@pytest.fixture(scope="session")
def helicity_pair_basis():
    """Both helicities of the single momentum z-hat (vacuum fluctuation reference)."""
    cfg = pf.LatticeConfig(
        length=2 * np.pi, n_max=3, modes=((1, (0, 0, 1)), (-1, (0, 0, 1)))
    )
    return pf.build_basis(cfg)


@pytest.fixture(scope="session")
def offaxis_basis():
    """Unit-frequency modes with momentum off every axis (L = 6 pi, |n| = 3).

    On axis-aligned momenta the second-order stencil errors cancel between
    the two sides of each Maxwell equation; this set keeps them visible.
    """
    cfg = pf.LatticeConfig(
        length=6 * np.pi,
        n_max=2,
        modes=((1, (1, 2, 2)), (-1, (1, 2, 2)), (1, (-1, -2, -2)), (-1, (-1, -2, -2))),
    )
    return pf.build_basis(cfg)


@pytest.fixture(scope="session")
def three_mode_basis():
    """Three modes of distinct helicity and momentum, n_max = 2, dimension 27."""
    cfg = pf.LatticeConfig(
        length=2 * np.pi,
        n_max=2,
        modes=((1, (0, 0, 1)), (-1, (1, 0, 0)), (1, (0, -1, 1))),
    )
    return pf.build_basis(cfg)
