import math

import numpy as np
import pytest

from pipl.grid import Field, SpaceTimeGrid, field_from_function
from pipl.model import (
    CLASS_A,
    CLASS_ANALYTIC,
    CLASS_LINEAR,
    DiffusionTensor,
    ModelError,
    Nonlinearity,
    check_growth,
)


def grid1d(nx=17, nt=8, T=1.0):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def test_evaluate_cubic():
    nl = Nonlinearity.parse("u^3")
    assert nl(0.0, 0.0, 2.0, k=2) == 12.0


def test_evaluate_linear_potential():
    nl = Nonlinearity.parse("(x*t + 1)*u", tag=CLASS_LINEAR)
    for u in (-3.0, 0.0, 5.0):
        assert nl(0.5, 2.0, u, k=1) == pytest.approx(2.0)


def test_evaluate_sin_exp_third_derivative():
    nl = Nonlinearity.parse("sin(x)*exp(u)")
    assert nl(math.pi / 2, 0.0, 0.0, k=3) == pytest.approx(1.0)


def test_derivative_matches_central_difference():
    nl = Nonlinearity.parse("tanh(u)*x + u^2*t")
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, t, u = rng.uniform(0, 1, 3)
        du = 1e-5
        fd = (nl(x, t, u + du) - nl(x, t, u - du)) / (2 * du)
        assert abs(nl(x, t, u, k=1) - fd) < 1e-8


def test_analytic_class_gating():
    g = grid1d()
    bad = Nonlinearity.parse("u^2 + 1", tag=CLASS_ANALYTIC)
    with pytest.raises(ModelError):
        bad.validate(g)
    good = Nonlinearity.parse("u^2", tag=CLASS_ANALYTIC)
    good.validate(g)


def test_bt_tail_gating():
    from pipl.recon import horizon_level

    g = grid1d()
    # the B_T tail, glued on at T - eps, must vanish at u = 0
    with pytest.raises(ModelError):
        horizon_level(g, 0.25, Nonlinearity.parse("u + 1"))
    assert horizon_level(g, 0.25, Nonlinearity.parse("u^3")) == 6


def test_growth_bounded_derivative_satisfied():
    g = grid1d()
    rep = check_growth(Nonlinearity.parse("sin(u)", tag=CLASS_A), g)
    assert rep.satisfies


def test_growth_sublog_satisfied():
    # derivative grows like ln^(1/4); ratio to ln^(1/2) decays
    g = grid1d()
    rep = check_growth(Nonlinearity.parse("u*ln(1 + u^2)^0.25", tag=CLASS_A), g, y_max=1e8)
    # d/du ~ ln^(1/4)(1+u^2): ratio ~ ln^(-1/4) -> 0
    assert rep.satisfies


def test_growth_quadratic_violated_with_witness():
    g = grid1d()
    rep = check_growth(Nonlinearity.parse("u^2", tag=CLASS_A), g)
    assert not rep.satisfies
    # the witness: (y, value) pairs along the sampled decay curve
    assert rep.curve.shape == rep.y_samples.shape and np.all(np.diff(rep.y_samples) > 0)


@pytest.mark.parametrize(
    "source, affine",
    [
        ("0", True),
        ("2*x", True),
        ("(1 + x)*u", True),
        ("u/2 + sin(t)*u - exp(x)", True),
        ("u^3", False),
        ("u^2 + x", False),
        ("sin(u)", False),
        ("abs(u)", False),   # d_u = sign(u) differentiates to 0, but is not constant in u
    ],
)
def test_is_affine_reads_the_expression(source, affine):
    # the class tag plays no part: the CLI default tag is linear-potential
    assert Nonlinearity.parse(source, tag="linear-potential").is_affine() is affine
    assert Nonlinearity.parse(source, tag=CLASS_A).is_affine() is affine


def test_diffusion_symmetry_and_ellipticity():
    g2 = SpaceTimeGrid.make([0, 0], [1, 1], [7, 7], 4, 0.5)
    gamma = DiffusionTensor.matrix2d("1", "0.2", "1 + 0.1*x", rho0=0.5)
    gamma.check_ellipticity(g2)
    assert np.allclose(
        gamma.component(0, 1, 0.3, 0.7, 0.1), gamma.component(1, 0, 0.3, 0.7, 0.1)
    )
    bad = DiffusionTensor.matrix2d("1", "2", "1", rho0=0.5)  # eigenvalues 3, -1
    with pytest.raises(ModelError):
        bad.check_ellipticity(g2)


def test_taylor_table_base_consistency():
    g = grid1d(nx=9, nt=4)
    nl = Nonlinearity.parse("u^3 + u*t")
    base = field_from_function(g, lambda x, t: 0.3 * np.sin(x) + 0.1 * t, "Q")
    x = g.meshes()[0]
    k0 = nl.along(base, 0)
    for lvl, t in enumerate(g.times()):
        ref = nl(x, t, base.values[lvl], k=0)
        assert np.allclose(k0.values[lvl], ref)
    assert np.allclose(nl.along(base, 3).values, 6.0)
