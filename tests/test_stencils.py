import json
import math

import numpy as np
import pytest

from polymg import (Stencil, build_fd_laplace, build_fem_tri_laplace,
                    rectangular, triangular)


@pytest.mark.parametrize("dimension,center", [(2, 4.0), (3, 6.0)])
def test_fd_laplace_unit_width(dimension, center):
    st = build_fd_laplace(rectangular(1.0, dimension))
    assert st.center == pytest.approx(center)
    off_center = [c for o, c in zip(st.offsets, st.coefficients) if any(o)]
    assert off_center == pytest.approx([-1.0] * 2 * dimension)


def test_fd_laplace_scaling():
    st = build_fd_laplace(rectangular(0.5, 2))
    assert st.center == pytest.approx(16.0)
    assert min(st.coefficients) == pytest.approx(-4.0)


def test_fd_laplace_rejects_triangular():
    with pytest.raises(ValueError):
        build_fd_laplace(triangular(math.pi / 3, math.pi / 3))


def test_fem_tri_row_sum_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha = rng.uniform(0.2, 2.0)
        beta = rng.uniform(0.2, min(2.0, math.pi - alpha - 0.2))
        st = build_fem_tri_laplace(alpha, beta, h=rng.uniform(0.1, 2.0))
        assert sum(st.coefficients) == pytest.approx(0.0, abs=1e-12)
        assert st.is_symmetric()


def test_fem_tri_rejects_degenerate_angles():
    with pytest.raises(ValueError):
        build_fem_tri_laplace(2.0, math.pi - 2.0)  # gamma = 0
    with pytest.raises(ValueError):
        build_fem_tri_laplace(-0.1, 1.0)


def test_geometry_invariants():
    with pytest.raises(ValueError):
        rectangular([1.0, -1.0])
    with pytest.raises(ValueError):
        rectangular(1.0, 4)
    with pytest.raises(ValueError):
        triangular(1.0, 1.0, h=0.0)


def test_stencil_invariants():
    geo = rectangular(1.0, 2)
    with pytest.raises(ValueError):  # duplicate offsets
        Stencil(geo, ((0, 0), (0, 0)), (4.0, -1.0))
    with pytest.raises(ValueError):  # missing center
        Stencil(geo, ((1, 0),), (-1.0,))
    with pytest.raises(ValueError):  # non-positive center
        Stencil(geo, ((0, 0),), (-1.0,))


def test_json_round_trip(tmp_path):
    for st in (build_fd_laplace(rectangular([0.5, 0.25], 2)),
               build_fem_tri_laplace(math.pi / 3, math.pi / 4, 0.7)):
        path = tmp_path / "stencil.json"
        path.write_text(json.dumps(st.to_dict()))
        with open(path) as f:
            doc = json.load(f)
        assert {"geometry", "entries"} <= doc.keys()
        again = Stencil.load(path)
        assert again == st


def test_with_mesh_width_regenerates_family():
    st = build_fd_laplace(rectangular(1.0, 2))
    coarse = st.with_mesh_width(4.0)
    assert coarse.center == pytest.approx(4.0 / 16.0)
    tri = build_fem_tri_laplace(math.pi / 3, math.pi / 3, 1.0)
    tri_coarse = tri.with_mesh_width(2.0)
    assert tri_coarse.center == pytest.approx(tri.center / 4.0)
    assert tri_coarse.offsets == tri.offsets
    # power-of-two factors reproduce the builders bit for bit
    for k in (1, 2, 3):
        f = 2.0**k
        for h, d in ((1 / 256, 2), (1 / 64, 3), ((1 / 128, 1 / 32), 2)):
            g = rectangular(h, d)
            want = build_fd_laplace(rectangular([w * f for w in g.h]))
            assert build_fd_laplace(g).with_mesh_width(f) == want
        alpha, beta = 80 * math.pi / 180, 50 * math.pi / 180
        assert build_fem_tri_laplace(alpha, beta, 0.1).with_mesh_width(f) \
            == build_fem_tri_laplace(alpha, beta, 0.1 * f)


def test_with_mesh_width_keeps_stencil_entries():
    # a 9-point stencil stays 9-point on the coarse mesh, scaled by 1/f^2
    offsets = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
    coeffs = tuple(8.0 / 3 if o == (0, 0) else -1.0 / 3 for o in offsets)
    nine = Stencil(rectangular(0.5, 2), offsets, coeffs)
    coarse = nine.with_mesh_width(4.0)
    assert coarse.offsets == offsets
    assert coarse.coefficients == tuple(c / 16 for c in coeffs)
    assert coarse.geometry.h == (2.0, 2.0)


@pytest.mark.parametrize("scale", [1.0, 3.0, 2.0**-1070, 1e-300, 2.0**1000])
def test_normalized_is_a_power_of_four(scale):
    st = build_fem_tri_laplace(math.pi / 3, math.pi / 3)
    st = Stencil(st.geometry, st.offsets,
                 tuple(c * scale for c in st.coefficients))
    norm = st.normalized()
    assert 0.5 <= norm.center < 2.0
    assert norm.offsets == st.offsets and norm.geometry == st.geometry
    (f, e), (f0, e0) = math.frexp(norm.center), math.frexp(st.center)
    assert f == f0 and (e - e0) % 2 == 0
    assert norm.coefficients == tuple(math.ldexp(c, e - e0)
                                      for c in st.coefficients)
    assert norm.normalized() == norm


def test_normalized_cannot_overflow():
    # a coefficient within a factor 4 of overflow, relative to the centre,
    # is refused, since the normalized centre may reach 2
    geometry = rectangular(1.0, 2)
    offsets = ((0, 0), (1, 0), (-1, 0))
    with pytest.raises(ValueError, match="relative to the center"):
        Stencil(geometry, offsets, (1.0, -3e307, -3e307))
    st = Stencil(geometry, offsets, (1.9e-20, -1e287, -1e287))
    assert max(map(abs, st.normalized().coefficients)) < 2e307
