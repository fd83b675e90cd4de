import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import carleman_check_1_levels, carleman_check_2_levels, weight_conditions_nodes

from pipl import cli
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
from pipl.model import DiffusionTensor
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
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _same_report(new, old):
    assert (new.degenerate, new.notes) == (old.degenerate, old.notes)
    for a, b in zip(new.entries, old.entries, strict=True):
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == pytest.approx(b[key], rel=1e-12, abs=0.0), key


GAMMAS = {
    "identity": None,
    "scalar": DiffusionTensor.scalar("1 + 0.3*x*(1 + t)"),
    "matrix": DiffusionTensor.matrix2d("1 + 0.2*x", "0.1*y + 0.05*t", "1.2 - 0.1*x*y"),
}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_carleman_checks_match_the_level_by_level_oracles(data):
    # the array products against HEAD-era sums level by level and node by
    # node, on random grids, portions, K, t0, gamma and fields
    dim = data.draw(st.sampled_from([1, 2]), "dim")
    nx = data.draw(st.lists(st.integers(4, 12), min_size=dim, max_size=dim), "nx")
    nt = data.draw(st.integers(6, 24), "nt")
    T = data.draw(st.sampled_from([0.5, 1.0]), "T")
    upper = data.draw(st.lists(st.sampled_from([1.0, 1.5, 2.0]), min_size=dim, max_size=dim))
    g = SpaceTimeGrid.make([0.0] * dim, upper, nx, nt, T)
    names = ["left", "right", "bottom", "top"][: 2 * dim]
    faces = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2 * dim,
                               unique=True), "faces")
    L = data.draw(st.sampled_from([0.5, 1.0]), "L")
    bound = min(1.0, 1.0 / (2 * L))
    k_t0 = data.draw(st.integers(1, max(1, min(nt - 1, int(0.6 * bound / g.dt)))), "k_t0")
    t0 = k_t0 * g.dt
    K = data.draw(st.floats(0.01, bound - t0 - 0.01), "K")
    gamma = GAMMAS[data.draw(st.sampled_from(["identity", "scalar"]
                                             + ["matrix"] * (dim == 2)), "gamma")]
    cfg = CarlemanConfig(default_weight_base(g, faces), K=K, t0=t0, L=L)
    portion = BoundaryPortion.named(*faces)
    if data.draw(st.booleans(), "zero"):
        u, F = zero_field(g), zero_field(g)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        u = Field(g, rng.standard_normal((g.n_levels, *g.nx)), "Q")
        F = Field(g, rng.standard_normal((g.n_levels, *g.nx)), "Q")
    _same_report(carleman_check_1(u, F, cfg, portion), carleman_check_1_levels(u, F, cfg, portion))
    _same_report(carleman_check_2(u, F, cfg, gamma), carleman_check_2_levels(u, F, cfg, gamma))
    resolved = resolve_portion(g, portion)
    new = cfg.check_weight_conditions(g, gamma, resolved)
    old = weight_conditions_nodes(cfg, g, gamma, resolved)
    assert (new["grad_nonvanishing"], new["flux_condition_holds"]) == (
        old["grad_nonvanishing"], old["flux_condition_holds"])
    if new["max_flux_on_unobserved"] is None:
        assert old["max_flux_on_unobserved"] == -np.inf
    else:  # psi is about 1e-4, so its gradient rounds at about 1e-20
        assert new["max_flux_on_unobserved"] == pytest.approx(
            old["max_flux_on_unobserved"], rel=1e-12, abs=1e-16)


def test_first_weight_is_scaled_to_peak_one():
    g = grid1d(33, 32)
    psi = CarlemanConfig(default_weight_base(g)).psi_values(g)
    theta2, eta, phi = CarlemanConfig.first_weight(psi, g.level_times()[1:-1], g.T, 2.0, 0.5)
    assert theta2.shape == eta.shape == phi.shape == (31, 33)
    assert np.max(theta2) == 1.0 and np.all(eta < 0) and np.all(phi > 0)


def test_carleman_2d_checks_and_cli_gates(tmp_path):
    # on 17x17x64 both checks are finite and the CLI refinement gate holds
    # (drift 0.064); on 17x17x16 the same run drifts 3.29, as a 1D grid of
    # 16 steps does (3.30): the time grid, not the 2D weight
    text = (CONFIGS / "carleman.ini").read_text().replace(
        "nx = 65\nnt = 64", "dim = 2\nnx = 17 17\nnt = 64")
    cfg = tmp_path / "carleman2d.ini"
    cfg.write_text(text)
    c = cli.load_config(cfg, "carleman")
    g = c.grid
    assert (g.dim, g.nx, g.nt) == (2, (17, 17), 64)
    u = field_from_function(g, lambda x, y, t: np.exp(-math.pi**2 * t) * np.sin(math.pi * x))
    F = Field(g, u.values, "Q")
    rep1, rep2 = carleman_check_1(u, F, c.weights, LEFT), carleman_check_2(u, F, c.weights)
    assert rep1.all_finite() and rep2.all_finite()
    assert rep1.max_ratio() > 0 and rep2.max_ratio() > 0
    assert cli.run("carleman", cfg, tmp_path / "out", check=True) == cli.EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["metrics"]["refinement_drift"] == pytest.approx(0.064, abs=5e-4)


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
