import math

import numpy as np
import pytest

from pipl.analysis import (
    AnalysisError,
    CarlemanConfig,
    carleman_check_1,
    carleman_check_2,
    default_weight_base,
    max_principle_check,
    nonuniqueness_demo,
)
from pipl.forward import solve_linear
from pipl.grid import (
    BoundaryPortion,
    Field,
    SpaceTimeGrid,
    field_from_function,
    norm,
    resolve_portion,
    zero_field,
)


def grid1d(nx=65, nt=64, T=0.5):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def heat_pair(grid, A=1.0):
    """u = exp(-pi^2 t) sin(pi x) solves u_t - u_xx + A u = F with F = A u."""
    u = field_from_function(
        grid, lambda x, t: np.exp(-math.pi**2 * t) * np.sin(math.pi * x), "Q"
    )
    F = Field(grid, A * u.values, "Q")
    return u, F


LEFT = BoundaryPortion.named("left")


def test_default_weight_base_conditions_1d():
    g = grid1d()
    cfg = CarlemanConfig(default_weight_base(g, ("left",)))
    psi = cfg.psi_values(g)
    assert np.min(psi) > 0 and np.max(psi) <= 1.0
    checks = cfg.check_weight_conditions(g, None, resolve_portion(g, LEFT))
    assert checks["grad_nonvanishing"]
    assert checks["flux_condition_holds"]


def test_carleman_config_constraint_enforced():
    g = grid1d()
    with pytest.raises(AnalysisError):
        CarlemanConfig(default_weight_base(g), K=0.4, t0=0.3, L=1.0)  # K+t0 >= 1/(2L)... 0.7 >= 0.5


def test_carleman1_zero_solution():
    g = grid1d(33, 32)
    cfg = CarlemanConfig(default_weight_base(g))
    rep = carleman_check_1(zero_field(g), zero_field(g), cfg, LEFT)
    assert all(e["ratio"] == 0.0 for e in rep.entries)


def test_carleman1_heat_oracle_finite_ratios():
    g = grid1d()
    u, F = heat_pair(g)
    cfg = CarlemanConfig(default_weight_base(g))
    rep = carleman_check_1(u, F, cfg, LEFT)
    assert not rep.degenerate
    assert rep.all_finite()
    assert rep.max_ratio() > 0


def test_carleman1_scaling_invariance():
    g = grid1d(33, 32)
    u, F = heat_pair(g)
    cfg = CarlemanConfig(default_weight_base(g))
    r1 = carleman_check_1(u, F, cfg, LEFT)
    c = 3.7
    r2 = carleman_check_1(Field(g, c * u.values, "Q"), Field(g, c * F.values, "Q"), cfg, LEFT)
    for a, b in zip(r1.entries, r2.entries):
        assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-10)


def test_carleman1_refinement_stability():
    cfg_ratio = []
    for nx, nt in ((65, 64), (129, 128)):
        g = grid1d(nx, nt)
        u, F = heat_pair(g)
        cfg = CarlemanConfig(default_weight_base(g))
        rep = carleman_check_1(u, F, cfg, LEFT)
        cfg_ratio.append([e["ratio"] for e in rep.entries])
    for a, b in zip(*cfg_ratio):
        assert abs(b - a) / a < 0.20


def test_carleman2_heat_oracle():
    g = grid1d(65, 100, T=0.5)
    u, F = heat_pair(g)
    cfg = CarlemanConfig(default_weight_base(g), K=0.05, t0=0.15, L=1.0)
    rep = carleman_check_2(u, F, cfg)
    assert rep.all_finite()
    ratios = [e["ratio"] for e in rep.entries]
    assert all(r >= 0 for r in ratios)


def test_carleman2_zero_case():
    g = grid1d(33, 40)
    cfg = CarlemanConfig(default_weight_base(g), K=0.05, t0=0.15)
    rep = carleman_check_2(zero_field(g), zero_field(g), cfg)
    assert all(e["ratio"] == 0.0 for e in rep.entries)


def test_carleman2_scaling_invariance():
    g = grid1d(33, 40)
    u, F = heat_pair(g, A=2.0)
    cfg = CarlemanConfig(default_weight_base(g), K=0.05, t0=0.15)
    r1 = carleman_check_2(u, F, cfg)
    r2 = carleman_check_2(Field(g, 2 * u.values, "Q"), Field(g, 2 * F.values, "Q"), cfg)
    for a, b in zip(r1.entries, r2.entries):
        assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-10)


def test_max_principle_ramped_data():
    g = grid1d(33, 32)
    cert = max_principle_check(g, None, None)
    assert cert.nonnegative and cert.strictly_positive_later
    assert cert.min_after_first_level > 0


def test_max_principle_large_positive_potential():
    g = grid1d(33, 32)
    cert = max_principle_check(g, None, 50.0)
    assert cert.nonnegative and cert.strictly_positive_later


def test_max_principle_zero_data():
    g = grid1d(17, 8)
    from pipl.linearize import probe_trace
    from pipl.forward import solve_linear as sl

    rep = sl(g, None, None, f=probe_trace(g, lambda x: np.zeros_like(x)))
    assert np.all(rep.solution.values == 0.0)


def test_nonuniqueness_demo_passes():
    g = grid1d(129, 16)
    demo = nonuniqueness_demo(g)
    assert demo.g_gap >= 0.1
    assert demo.trace_sup <= 1e-8 * (1 + demo.sup_fields)


def test_nonuniqueness_solver_crosscheck():
    # the constructed state is an exact discrete solution of the linear
    # problem with source -A_j, so the solver must reproduce it
    g = grid1d(65, 16)
    demo = nonuniqueness_demo(g)
    rep = solve_linear(g, None, None, g=demo.g1, source=Field(g, -demo.source1.values, "Q"))
    assert norm(rep.solution - Field(g, np.repeat(demo.g1.values[None], g.n_levels, 0), "Q"), "L2Q") < 1e-10


def test_nonuniqueness_degenerate_rejected():
    g = grid1d(65, 8)
    with pytest.raises(AnalysisError):
        nonuniqueness_demo(g, centers=(0.5, 0.5), amplitudes=(1.0, 1.0))


def test_nonuniqueness_narrow_collar():
    g = grid1d(129, 8)
    demo = nonuniqueness_demo(g, collar=0.075)
    assert demo.g_gap >= 0.1
    assert demo.trace_sup <= 1e-8 * (1 + demo.sup_fields)


def test_nonuniqueness_2d():
    g2 = SpaceTimeGrid.make([0, 0], [1, 1], [33, 33], 8, 0.25)
    demo = nonuniqueness_demo(g2, collar=0.2, centers=(0.42, 0.58), amplitudes=(1.0, -1.0))
    assert demo.g_gap >= 0.1
    assert demo.trace_sup <= 1e-8 * (1 + demo.sup_fields)
