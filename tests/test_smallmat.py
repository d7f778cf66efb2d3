import numpy as np
import pytest

from polymg import spectral_radius
from polymg.smallmat import spectral_radii

from oracles import eigenvalues_by_roots


def test_validation():
    with pytest.raises(ValueError, match="2-D"):
        spectral_radius(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="non-finite"):
        spectral_radius(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError, match="cap"):
        spectral_radius(np.eye(513))


def test_spectral_radius_simple():
    assert spectral_radius(np.eye(7)) == pytest.approx(1.0)
    d = np.diag([0.5, -0.2, 0.1j])
    assert spectral_radius(d) == pytest.approx(0.5)


def test_spectral_radius_against_root_finder():
    rng = np.random.default_rng(9)
    a = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(8)
    want = np.max(np.abs(eigenvalues_by_roots(a)))
    assert spectral_radius(a) == pytest.approx(want, abs=1e-6)


def test_similarity_invariance():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    sim = s @ m @ np.linalg.inv(s)
    assert spectral_radius(sim) == pytest.approx(spectral_radius(m), abs=1e-6)


def test_power_identity():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 5)) / 2
    r = spectral_radius(m)
    for p in (2, 3):
        assert spectral_radius(np.linalg.matrix_power(m, p)) \
            == pytest.approx(r**p, abs=1e-6)


def test_spectral_radii_batched():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((10, 4, 4))
    batched = spectral_radii(stack)
    single = np.array([spectral_radius(m) for m in stack])
    assert np.allclose(batched, single, atol=1e-12)
