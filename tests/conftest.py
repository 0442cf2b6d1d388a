import contextlib

import numpy as np
import pytest

import strainkp as sk
from strainkp import kp_bulk


@pytest.fixture(scope="session")
def table():
    return sk.default_parameter_table()


@pytest.fixture(scope="session")
def gaas(table):
    return table["GaAs"]


@pytest.fixture(scope="session")
def alas(table):
    return table["AlAs"]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def random_strain(rng):
    """Factory for random small strain states (shears included)."""

    def make(scale=0.01, shear=True):
        v = rng.uniform(-scale, scale, size=6)
        if not shear:
            v[3:] = 0.0
        return sk.StrainState(*v)

    return make


@contextlib.contextmanager
def _recording_kramers_solves():
    seen = []
    inner = kp_bulk._kramers_solve

    def spy(blocks, solve, k):
        def recorded(bands, count):
            energies, vectors = solve(bands, count)
            seen.append((vectors.shape, vectors.dtype))
            return energies, vectors

        return inner(blocks, recorded, k)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(kp_bulk, "_kramers_solve", spy)
        yield seen


@pytest.fixture(scope="session")
def kramers_solves():
    """Context manager factory: inside ``with kramers_solves() as seen``,
    every solve that ``kp_bulk._kramers_solve`` makes, bulk or well,
    appends the shape (..., bands, count) and dtype of its vectors to
    ``seen``: the path taken, and whether it ran real."""
    return _recording_kramers_solves
