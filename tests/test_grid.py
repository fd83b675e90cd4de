import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pipl.grid import (
    BoundaryPortion,
    Field,
    GridError,
    SpaceTimeGrid,
    classify_boundary,
    field_from_function,
    load_field_csv,
    norm,
    resolve_portion,
    save_field_csv,
    zero_field,
)


def grid1d(nx=33, nt=16, T=1.0):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def grid2d(nx=9, ny=7, nt=8, T=0.5):
    return SpaceTimeGrid.make([0.0, 0.0], [1.0, 2.0], [nx, ny], nt, T)


def test_spacing_and_coords_reproducible():
    g = grid1d(nx=11)
    assert g.h[0] == pytest.approx(0.1)
    x = g.axis(0)
    assert x[3] == 0.0 + 3 * g.h[0]  # bit-exact from indices
    assert g.dt == 1.0 / 16


def test_grid_validation():
    with pytest.raises(GridError):
        SpaceTimeGrid.make([0.0], [1.0], [2], 4, 1.0)
    with pytest.raises(GridError):
        SpaceTimeGrid.make([0.0], [1.0], [5], 1, 1.0)
    with pytest.raises(GridError):
        SpaceTimeGrid.make([1.0], [0.0], [5], 4, 1.0)


def test_classify_1d_directional():
    g = grid1d()
    right = classify_boundary(g, BoundaryPortion.directional([1.0], 0.0, +1))
    assert right == {g.nx[0] - 1}
    left = classify_boundary(g, BoundaryPortion.directional([1.0], 0.0, -1))
    assert left == {0}


def test_classify_2d_aperture_selects_right_face_only():
    g = grid2d()
    got = classify_boundary(g, BoundaryPortion.directional([1.0, 0.0], 0.5, +1))
    expected = {g.flat_index(mi) for mi in g.face_multi_indices((0, 1))}
    assert got == expected


def test_classify_2d_minus_covers_left_top_bottom():
    # faces with nu . omega <= 0 for omega = (1, 0): left, bottom, top
    g = grid2d()
    got = resolve_portion(g, BoundaryPortion.directional([1.0, 0.0], 0.0, -1))
    assert set(got.faces) == {(0, 0), (1, 0), (1, 1)}


def test_portion_partition_covers_boundary():
    g = grid2d()
    plus = classify_boundary(g, BoundaryPortion.directional([1.0, 0.0], 0.0, +1))
    minus = classify_boundary(g, BoundaryPortion.directional([1.0, 0.0], 0.0, -1))
    full = classify_boundary(g, BoundaryPortion.full())
    assert plus | minus == full
    # overlap only on tangential faces (nu . omega = 0)
    tang = {g.flat_index(mi) for f in [(1, 0), (1, 1)] for mi in g.face_multi_indices(f)}
    assert plus & minus == tang
    # the interior mask is the complement of the boundary nodes, 1D and 2D
    for gg in (grid1d(), g):
        mask = gg.interior_mask()
        assert mask.shape == (gg.n_space,)
        assert set(np.flatnonzero(~mask)) == set(gg.boundary_flat_indices())


def test_non_unit_omega_rejected():
    g = grid1d()
    with pytest.raises(GridError):
        classify_boundary(g, BoundaryPortion.directional([2.0], 0.0, +1))


def test_norm_zero_and_constant():
    g = grid1d()
    z = zero_field(g, "Omega")
    assert norm(z, "L2Omega") == 0.0
    ones = Field(g, np.ones(g.nx), "Omega")
    assert norm(ones, "L2Omega") == pytest.approx(1.0)  # |Omega| = 1


def test_norm_sine():
    g = grid1d(nx=201)
    f = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    assert norm(f, "L2Omega") == pytest.approx(1 / math.sqrt(2), abs=2e-4)


def test_norm_tag_mismatch_rejected():
    g = grid1d()
    z = zero_field(g, "Omega")
    with pytest.raises(GridError):
        norm(z, "L2Q")


def test_quadrature_exact_for_linear():
    # trapezoid integrates piecewise-linear integrands exactly; x^2 = (x)^2
    # is linear per cell only after squaring a linear field, which trapezoid
    # of u^2 with u linear is NOT exact for; use u = constant and u = step-1
    g = grid1d(nx=9)
    x = g.axis(0)
    f = Field(g, 2.0 * np.ones_like(x), "Omega")
    assert norm(f, "L2Omega") == pytest.approx(2.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=7.5, allow_nan=False))
def test_norm_scales_linearly(c):
    g = grid1d(nx=17, nt=4)
    f = field_from_function(g, lambda x, t: np.cos(x) + t, "Q")
    base = norm(f, "L2Q")
    assert norm(c * f, "L2Q") == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


def test_norm_refinement_second_order():
    # discrete L2 norm of 1/(1+x) converges at order >= 2:
    # integral of (1+x)^-2 over (0,1) is 1/2
    errs = []
    for nx in (17, 33, 65):
        g = grid1d(nx=nx)
        f = field_from_function(g, lambda x: 1.0 / (1.0 + x), "Omega")
        errs.append(abs(norm(f, "L2Omega") - math.sqrt(0.5)))
    rate = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert rate >= 2.0 - 0.1


def test_field_shape_checked():
    g = grid1d()
    with pytest.raises(GridError):
        Field(g, np.zeros(5), "Omega")


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from((1, 2)),
    nx=st.lists(st.integers(3, 9), min_size=2, max_size=2),
    nt=st.integers(2, 6),
    lower=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 10.0),
    T=st.floats(0.01, 5.0),
    domain=st.sampled_from(("Q", "Omega")),
)
def test_csv_roundtrip_q_field(data, dim, nx, nt, lower, width, T, domain, tmp_path_factory):
    # Q and Omega fields on random grids, with any finite values (signed
    # zeros and subnormals included), come back bitwise
    g = SpaceTimeGrid.make([lower] * dim, [lower + width] * dim, nx[:dim], nt, T)
    shape = (g.n_levels, *g.nx) if domain == "Q" else g.nx
    values = data.draw(arrays(np.float64, shape,
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    f = Field(g, values, domain)
    p = tmp_path_factory.mktemp("csv") / "field.csv"
    save_field_csv(f, p)
    back = load_field_csv(g, p, domain)
    assert back.domain == domain
    assert back.values.shape == shape and back.values.tobytes() == values.tobytes()
    assert p.read_text().splitlines()[0] == "# shape: " + ",".join(map(str, (*g.nx, nt)))
