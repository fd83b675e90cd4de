import math

import numpy as np
import pytest

from pipl.grid import Field, SpaceTimeGrid, field_from_function, norm
from pipl.linearize import LinearizationSetup, higher_orders, probe_trace
from pipl.model import Nonlinearity


def make_setup(source="u^3", nx=33, nt=32, T=0.5, g_amp=0.0):
    grid = SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)
    g0 = None
    if g_amp:
        g0 = field_from_function(grid, lambda x: g_amp * np.sin(math.pi * x), "Omega")
    return LinearizationSetup(grid, None, Nonlinearity.parse(source), g0)


def ramp_probe(grid, which="both"):
    if which == "left":
        return probe_trace(grid, lambda x: (x < 0.5).astype(float))
    if which == "right":
        return probe_trace(grid, lambda x: (x > 0.5).astype(float))
    return probe_trace(grid, lambda x: np.ones_like(x))


def test_probe_trace_compatible():
    grid = SpaceTimeGrid.make([0.0], [1.0], [9], 8, 1.0)
    f = ramp_probe(grid)
    # zero first level, O(dt^2)-small second level
    assert np.all(f.values[0] == 0.0)
    scale = 1 + np.max(np.abs(f.values))
    assert np.max(np.abs(f.values[1])) <= 4 * (grid.dt / grid.T) ** 2 * scale


def test_first_order_linear_model_exact():
    setup = make_setup("(1 + x)*u")
    probe = ramp_probe(setup.grid)
    res = higher_orders(setup, [([probe], (1e-1, 1e-2))])[0]
    assert res.rate.linear_exact
    assert norm(res.quotient - res.direct, "L2Q") < 1e-9


def test_first_order_quadratic_free_heat():
    # b = u^2, g = 0: base is 0, frozen potential 0, so the direct solve is
    # the free heat equation with the probe data
    setup = make_setup("u^2")
    probe = ramp_probe(setup.grid)
    res = higher_orders(setup, [([probe], (1e-2, 1e-3, 1e-4))])[0]
    from pipl.forward import solve_linear

    free = solve_linear(setup.grid, None, None, f=probe).solution
    assert norm(res.direct - free, "L2Q") == 0.0
    assert res.rate.slope is not None and 0.9 <= res.rate.slope <= 1.1


def test_first_order_rate_in_band_cubic_base():
    setup = make_setup("u^3", g_amp=0.3)
    probe = ramp_probe(setup.grid)
    res = higher_orders(setup, [([probe], (1e-2, 1e-3, 1e-4))])[0]
    assert res.rate.slope is not None
    # O(eps^2)-clean quotients appear for odd nonlinearities; cubic at a
    # nonzero base has a genuine second-order term, slope ~ 1
    assert 0.8 <= res.rate.slope <= 1.2


def test_second_order_linear_model_vanishes():
    setup = make_setup("2*u")
    f1 = ramp_probe(setup.grid, "left")
    f2 = ramp_probe(setup.grid, "right")
    res = higher_orders(setup, [([f1, f2], [(1e-2, 1e-2)])])[0]
    assert norm(res.direct, "L2Q") < 1e-12
    assert norm(res.quotient, "L2Q") < 1e-6


def test_second_order_quadratic_source_structure():
    # b = u^2, base 0: w solves heat eq with source -2 v1 v2
    setup = make_setup("u^2")
    f1 = ramp_probe(setup.grid, "left")
    f2 = ramp_probe(setup.grid, "right")
    res = higher_orders(setup, [([f1, f2], [(1e-3, 1e-3)])])[0]
    from pipl.forward import solve_linear

    v1 = solve_linear(setup.grid, None, None, f=f1).solution
    v2 = solve_linear(setup.grid, None, None, f=f2).solution
    src = Field(setup.grid, -2.0 * v1.values * v2.values, "Q")
    ref = solve_linear(setup.grid, None, None, source=src).solution
    assert norm(res.direct - ref, "L2Q") < 1e-12
    assert res.gap < 5e-4 * max(1.0, norm(ref, "L2Q"))


def test_second_order_symmetry():
    setup = make_setup("u^2 + u^3")
    f1 = ramp_probe(setup.grid, "left")
    f2 = ramp_probe(setup.grid, "right")
    a = higher_orders(setup, [([f1, f2], [(1e-3, 2e-3)])])[0]
    b = higher_orders(setup, [([f2, f1], [(2e-3, 1e-3)])])[0]
    assert norm(a.quotient - b.quotient, "L2Q") < 1e-9


def test_second_order_mixed_gap_rate():
    setup = make_setup("u^2")
    f1 = ramp_probe(setup.grid, "left")
    f2 = ramp_probe(setup.grid, "right")
    res = higher_orders(setup, [([f1, f2], [1e-2, 1e-3])])[0]
    assert res.rate is not None and res.rate.slope is not None
    assert 0.8 <= res.rate.slope <= 1.3


def test_third_order_cubic_source():
    # M=3, b=u^3, base 0: direct source is -6 v1 v2 v3
    setup = make_setup("u^3", nx=25, nt=24)
    probes = [
        ramp_probe(setup.grid, "left"),
        ramp_probe(setup.grid, "right"),
        ramp_probe(setup.grid, "both"),
    ]
    res = higher_orders(setup, [(probes, [3e-2])])[0]
    from pipl.forward import solve_linear

    vs = [solve_linear(setup.grid, None, None, f=f).solution for f in probes]
    src = Field(setup.grid, -6.0 * vs[0].values * vs[1].values * vs[2].values, "Q")
    ref = solve_linear(setup.grid, None, None, source=src).solution
    assert norm(res.direct - ref, "L2Q") < 1e-12
    rel = res.gap / max(norm(ref, "L2Q"), 1e-30)
    assert rel < 0.05


def test_third_order_quartic_term_invisible():
    # u^3 + u^4 at base 0 has the same M=3 source as pure u^3
    setup3 = make_setup("u^3", nx=17, nt=16)
    setup34 = make_setup("u^3 + u^4", nx=17, nt=16)
    probes = [
        ramp_probe(setup3.grid, "left"),
        ramp_probe(setup3.grid, "right"),
        ramp_probe(setup3.grid, "both"),
    ]
    r3 = higher_orders(setup3, [(probes, [1e-2])])[0]
    r34 = higher_orders(setup34, [(probes, [1e-2])])[0]
    assert norm(r3.direct - r34.direct, "L2Q") < 1e-12
    # quotients differ only by the higher-order influence, O(eps)
    assert norm(r3.quotient - r34.quotient, "L2Q") < 1e-1 * max(norm(r3.quotient, "L2Q"), 1e-12)


def test_zero_probe_annihilates():
    setup = make_setup("u^2", nx=17, nt=8)
    z = Field(setup.grid, np.zeros((setup.grid.n_levels, ramp_probe(setup.grid).portion.n_nodes)),
              "Sigma", ramp_probe(setup.grid).portion)
    res = higher_orders(setup, [([ramp_probe(setup.grid), z], [1e-2])])[0]
    assert norm(res.quotient, "L2Q") == 0.0


def test_linearize_work_counts(monkeypatch):
    # one Propagator per setup, shared by the direct fields of every order,
    # which it marches in one sweep per subset size over the distinct subsets
    # of all orders (3 sweeps of 3, 3 and 1 columns, not 6); one batched
    # Newton per higher_orders call, which solves the base too
    from pipl import forward

    built, newton_iterations, sweeps = [], [], []
    real_init, real_newton, real_run = (forward.Propagator.__init__, forward._newton,
                                        forward.Propagator.run)

    def init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def run(self, g0=None, f=None, source=None):
        sweeps.append(np.shape(f if source is None else source)[-1])
        return real_run(self, g0, f, source)

    def newton(*args, **kwargs):
        res = real_newton(*args, **kwargs)
        newton_iterations.append(res.iterations)
        return res

    monkeypatch.setattr(forward.Propagator, "__init__", init)
    monkeypatch.setattr(forward, "_newton", newton)
    monkeypatch.setattr(forward.Propagator, "run", run)
    setup = make_setup("u^3", nx=17, nt=16, g_amp=0.5)
    probes = [probe_trace(setup.grid, lambda x, s=s: np.cos(s * x) + 1.5) for s in (1.0, 2.0, 3.0)]
    higher_orders(setup, [(probes[:order], [3e-3, 1e-3]) for order in (1, 2, 3)])
    setup.base_solution()  # solved in the batch, not again
    assert len(built) == 1
    assert sweeps == [3, 3, 1]
    assert len(newton_iterations) == 1
    assert setup.newton_calls == 1
    assert setup.newton_iterations == sum(newton_iterations)


def test_higher_orders_matches_separate_calls(monkeypatch):
    # one batch over orders 1-3, base included, gives each order bitwise
    # what a base solve of its own and one higher_order call per order give
    from pipl import forward

    calls = []
    real_newton = forward._newton
    monkeypatch.setattr(forward, "_newton", lambda *a, **k: calls.append(1) or real_newton(*a, **k))
    separate, batched = (make_setup("u^3", nx=17, nt=16, g_amp=0.5) for _ in range(2))
    probes = [probe_trace(separate.grid, lambda x, s=s: np.cos(s * x) + 1.5)
              for s in (1.0, 2.0, 3.0)]
    schedules = {1: [1e-2, 1e-3], 2: [(1e-2, 2e-2), 1e-3], 3: [3e-3, 0.0, 1e-3]}
    separate.base_solution()
    refs = [higher_orders(separate, [(probes[:order], schedules[order])])[0] for order in (1, 2, 3)]
    assert len(calls) == 4
    calls.clear()
    results = higher_orders(batched, [(probes[:order], schedules[order]) for order in (1, 2, 3)])
    assert len(calls) == 1
    assert batched.base_solution().values.tobytes() == separate.base_solution().values.tobytes()
    for res, ref in zip(results, refs):
        assert res.quotient.values.tobytes() == ref.quotient.values.tobytes()
        assert res.direct.values.tobytes() == ref.direct.values.tobytes()
        assert (res.gap, res.rate.gaps, res.rate.slope) == (ref.gap, ref.rate.gaps, ref.rate.slope)
        assert res.corner_solves == ref.corner_solves
    assert [res.corner_solves for res in results] == [2, 3 * 2, 7 * 2]


def test_stalled_corner_names_order_amplitudes_and_level():
    from pipl.forward import SolverError

    setup = make_setup("u^3", nx=9, nt=8, g_amp=0.5)
    setup.base_solution()
    setup.tol = -1.0  # no update can meet it: every corner stalls at level 1
    with pytest.raises(SolverError, match=r"order-2 corner \(0,\) at amplitudes \(0\.01, 0\.02\): "
                                          r"newton stalled at time level 1"):
        higher_orders(setup, [([ramp_probe(setup.grid, "left"), ramp_probe(setup.grid, "right")],
                               [(1e-2, 2e-2)])])
