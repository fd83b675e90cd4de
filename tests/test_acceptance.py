"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from pipl.analysis import (
    CarlemanConfig,
    carleman_check_1,
    carleman_check_2,
    default_weight_base,
    max_principle_check,
    nonuniqueness_demo,
)
from pipl.cgo import CGOFactory, CGOParameters, fourier_integral, pairing
from pipl.dnmap import measure, passive_map
from pipl.forward import Propagator, solve_linear
from pipl.grid import (
    BoundaryPortion,
    Field,
    SpaceTimeGrid,
    field_from_function,
    norm,
    resolve_portion,
)
from pipl.linearize import LinearizationSetup, higher_order, probe_trace
from pipl.model import Nonlinearity
from pipl.recon import (
    BTStructure,
    RegionMask,
    null_control,
    positive_solution,
    reciprocity_report,
    recover_initial,
    recover_potential,
    recover_taylor,
    runge_fit,
    stability_curve,
    synthesize_potential_probes,
    synthesize_taylor_probes,
)


def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {description}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def heat_oracle(grid):
    return field_from_function(
        grid, lambda x, t: np.exp(-math.pi**2 * t) * np.sin(math.pi * x), "Q"
    )


LEFT = BoundaryPortion.named("left")


def test_criterion_01_forward_convergence():
    t0 = time.time()
    errs, hs = [], []
    for nx, nt in ((33, 32), (65, 64), (129, 128), (257, 256)):
        g = SpaceTimeGrid.make([0.0], [1.0], [nx], nt, 0.5)
        rep = solve_linear(
            g, g=field_from_function(g, lambda x: np.sin(math.pi * x), "Omega"), scheme="cn"
        )
        errs.append(norm(rep.solution - heat_oracle(g), "L2Q"))
        hs.append(g.h[0])
    elapsed = time.time() - t0
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    _criterion(
        1,
        "forward convergence order >= 1.8 within 10 s",
        order >= 1.8 and elapsed < 10.0,
        f"order {order:.3f}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_dn_trace_accuracy():
    errs, hs = [], []
    for nx, nt in ((33, 32), (65, 64), (129, 128), (257, 256)):
        g = SpaceTimeGrid.make([0.0], [1.0], [nx], nt, 0.5)
        m = measure(heat_oracle(g), LEFT)
        expected = -math.pi * np.exp(-math.pi**2 * g.times())
        errs.append(float(np.max(np.abs(m.values[:, 0] - expected))))
        hs.append(g.h[0])
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    _criterion(2, "DN trace max-norm order >= 1.8", order >= 1.8, f"order {order:.3f}")


@pytest.fixture(scope="module")
def cgo_grid_and_factory():
    g = SpaceTimeGrid.make([0.0], [1.0], [129], 256, 1.0)
    q = field_from_function(g, lambda x, t: np.exp(-40 * (x - 0.5) ** 2) + 0 * t, "Q")
    return g, CGOFactory(g, q)


def test_criterion_03_cgo_remainder_decay(cgo_grid_and_factory):
    g, factory = cgo_grid_and_factory
    norms, peaks = [], []
    for rho in (8.0, 16.0, 32.0, 64.0):
        sol = factory.build(CGOParameters.make(rho, [1.0]))
        norms.append(sol.remainder_norm)
        peaks.append(float(np.max(np.abs(sol.profile().values))))
    decreasing = all(b < a for a, b in zip(norms, norms[1:]))
    ratio = norms[-1] / norms[0]
    no_overflow = max(peaks) < math.exp(50)
    _criterion(
        3,
        "CGO remainders strictly decreasing with final/initial < 0.5, no overflow",
        decreasing and ratio < 0.5 and no_overflow,
        f"norms {['%.4f' % n for n in norms]}, ratio {ratio:.3f}, peak {max(peaks):.3g}",
    )


def test_criterion_04_pairing_monotone(cgo_grid_and_factory):
    g, factory = cgo_grid_and_factory
    f = field_from_function(
        g, lambda x, t: np.exp(-30 * (x - 0.5) ** 2) * np.exp(-20 * (t - 0.5) ** 2), "Q"
    )
    lattice = [2 * math.pi * l for l in (-3, -2, -1, 1, 2, 3)]
    bad = []
    for tau in lattice:
        ref = fourier_integral(f, (0.0,), tau)
        gaps = []
        for rho in (8.0, 16.0, 32.0, 64.0):
            fwd = factory.build(CGOParameters.make(rho, [1.0], tau=tau))
            bwd = factory.build(CGOParameters.make(rho, [1.0], direction="backward"))
            value, _ = pairing(f, fwd, bwd)
            gaps.append(abs(value - ref))
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            bad.append((tau, gaps))
    _criterion(
        4,
        f"pairing error decreases monotonically along the rho sweep at {len(lattice)} lattice points",
        not bad,
        f"violations: {bad}" if bad else "all monotone",
    )


def test_criterion_05_integral_identity_reciprocity():
    g = SpaceTimeGrid.make([0.0], [1.0], [129], 128, 1.0)
    dq = field_from_function(
        g, lambda x, t: (1 + 0.4 * np.sin(math.pi * x)) * np.exp(-25 * (t - 0.5) ** 2), "Q"
    )
    probes = synthesize_potential_probes(
        g, dq, None, rho=32.0, n_tau=2, keep_diagnostics=True
    )
    rep = reciprocity_report(g, probes, None)
    _criterion(
        5,
        "volume vs boundary functional gap <= 5% on the 128x128 twin",
        rep["max"] <= 0.05,
        f"max relative gap {rep['max']:.4f}",
    )


def test_criterion_06_linearization_rates():
    g = SpaceTimeGrid.make([0.0], [1.0], [49], 48, 0.5)
    g0 = field_from_function(g, lambda x: 0.8 * np.sin(math.pi * x), "Omega")
    setup = LinearizationSetup(g, None, Nonlinearity.parse("u^3"), g0)
    shapes = [probe_trace(g, lambda x, s=s: np.cos(s * x) + 1.5) for s in (1.0, 2.0, 3.0)]
    schedules = {1: [1e-2, 1e-3], 2: [1e-2, 1e-3], 3: [3e-3, 1e-3]}
    slopes = {}
    for order in (1, 2, 3):
        res = higher_order(setup, shapes[:order], schedules[order])
        slopes[order] = res.rate.slope
    ok = all(s is not None and 0.8 <= s <= 1.2 for s in slopes.values())
    _criterion(
        6,
        "quotient-vs-direct gap slopes within [0.8, 1.2] for orders 1-3",
        ok,
        ", ".join(f"order {k}: {v:.3f}" for k, v in slopes.items()),
    )


def test_criterion_07_potential_recovery():
    g = SpaceTimeGrid.make([0.0], [1.0], [129], 128, 1.0)
    dq = field_from_function(
        g, lambda x, t: (1 + 0.4 * np.sin(math.pi * x)) * np.exp(-25 * (t - 0.5) ** 2), "Q"
    )
    probes = synthesize_potential_probes(g, dq, None, rho=32.0, n_tau=4)
    res = recover_potential(g, probes, None, truth_difference=Field(g, -dq.values, "Q"))
    probes0 = synthesize_potential_probes(g, dq, dq, rho=32.0, n_tau=1)
    res0 = recover_potential(g, probes0, dq)
    zero_err = norm(res0.recovered, "L2Q") / norm(dq, "L2Q")
    _criterion(
        7,
        "potential recovery error <= 20% and zero-difference control <= 1e-6",
        res.truth_error <= 0.20 and zero_err <= 1e-6,
        f"rel error {res.truth_error:.4f}, control {zero_err:.2e}",
    )


def test_criterion_08_taylor_recovery():
    g = SpaceTimeGrid.make([0.0], [1.0], [129], 128, 1.0)
    nl1 = Nonlinearity.parse("(1 + 0.2*sin(pi*x))*exp(-16*(t-0.65)^2)*u^3")
    nl2 = Nonlinearity.zero()
    v2, _ = positive_solution(g, None, None, ramp_time=0.15)
    v3, _ = positive_solution(g, None, None, ramp_time=0.15)
    probes = synthesize_taylor_probes(g, nl1, nl2, 3, [v2, v3], rho=32.0, n_tau=4)
    truth = field_from_function(
        g,
        lambda x, t: 6 * (1 + 0.2 * np.sin(math.pi * x)) * np.exp(-16 * (t - 0.65) ** 2),
        "Q",
    )
    res = recover_taylor(g, probes, nl2, 3, [v2, v3], truth_difference=truth)
    _criterion(
        8,
        "cubic Taylor coefficient recovered within 25% (noiseless twin)",
        res.truth_error <= 0.25,
        f"rel error {res.truth_error:.4f}",
    )


def test_criterion_09_initial_recovery_and_stability_shape():
    g = SpaceTimeGrid.make([0.0], [1.0], [49], 48, 0.5)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    data = passive_map(g, None, Nonlinearity.zero(), truth, LEFT)
    res = recover_initial(g, None, Nonlinearity.zero(), data, truth=truth)
    noiseless_ok = res.truth_error <= 0.10

    gs = SpaceTimeGrid.make([0.0], [1.0], [41], 40, 0.5)
    truth_s = field_from_function(gs, lambda x: np.sin(math.pi * x), "Omega")
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    curve = stability_curve(
        gs, None, Nonlinearity.zero(), truth_s, LEFT, deltas, trials=5, seed=20260809
    )
    means = [curve.mean_errors[d] for d in deltas]  # deltas descending
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(means, means[1:]))
    rank = float(spearmanr(curve.magnitudes, curve.errors).statistic)
    fit_ok = curve.fit_two_term["residual"] <= curve.fit_linear["residual"] + 1e-12
    _criterion(
        9,
        "initial-data recovery <= 10% noiseless; stability curve monotone "
        "(rank corr >= 0.9) with two-term fit dominating the linear fit",
        noiseless_ok and monotone and rank >= 0.9 and fit_ok,
        f"noiseless {res.truth_error:.4f}, means {['%.3g' % m for m in means]}, "
        f"rank {rank:.3f}, residuals two-term {curve.fit_two_term['residual']:.3g} "
        f"vs linear {curve.fit_linear['residual']:.3g}",
    )


def test_criterion_10_carleman_ratio_stability():
    ratios = []
    for nx, nt in ((65, 64), (129, 128)):
        g = SpaceTimeGrid.make([0.0], [1.0], [nx], nt, 0.5)
        u = heat_oracle(g)
        F = Field(g, u.values, "Q")  # A = 1
        cfg = CarlemanConfig(default_weight_base(g), K=0.15, t0=0.15625, L=1.0)
        rep1 = carleman_check_1(u, F, cfg, LEFT)
        rep2 = carleman_check_2(u, F, cfg)
        assert rep1.all_finite() and rep2.all_finite()
        ratios.append([e["ratio"] for e in rep1.entries + rep2.entries])
    drift = max(
        abs(b - a) / a for a, b in zip(ratios[0], ratios[1]) if a > 0
    )
    _criterion(
        10,
        "Carleman ratios finite at all sampled parameters, refinement drift < 20%",
        drift < 0.20,
        f"max drift {drift:.4f} across {len(ratios[0])} parameter points",
    )


def test_criterion_11_maximum_principle():
    g = SpaceTimeGrid.make([0.0], [1.0], [65], 64, 0.5)
    cert = max_principle_check(g, None, None)
    ok = cert.interior_min >= -1e-8 * cert.sup and cert.min_after_first_level > 0
    _criterion(
        11,
        "ramped nonnegative data: interior min >= -1e-8 sup and positive beyond level 1",
        ok,
        f"interior min {cert.interior_min:.3g}, later min {cert.min_after_first_level:.3g}",
    )


def test_criterion_12_nonuniqueness():
    g = SpaceTimeGrid.make([0.0], [1.0], [129], 16, 0.5)
    demo = nonuniqueness_demo(g)
    ok = demo.g_gap >= 0.1 and demo.trace_sup <= 1e-8 * (1 + demo.sup_fields)
    _criterion(
        12,
        "constructed pair: ||g1-g2|| >= 0.1 with negligible passive DN traces",
        ok,
        f"gap {demo.g_gap:.3f}, trace sup {demo.trace_sup:.3g}",
    )


def test_criterion_13_null_control():
    g = SpaceTimeGrid.make([0.0], [1.0], [65], 96, 1.0)
    g0 = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    portion = resolve_portion(g, LEFT)
    bt = BTStructure(Nonlinearity.zero(), Nonlinearity.parse("u^3"), 0.25)
    res = null_control(g, None, None, g0, eps=0.25, portion=portion, n_time=12, bt=bt)
    factor = res.uncontrolled_norm / res.terminal_norm
    tail_ok = res.continuation["sup_norm_over_tail"] <= 10 * res.terminal_norm
    _criterion(
        13,
        "terminal norm reduced >= 100x; continued free solution within 10x terminal",
        factor >= 100 and tail_ok,
        f"reduction {factor:.1f}x, tail sup {res.continuation['sup_norm_over_tail']:.3g} "
        f"vs terminal {res.terminal_norm:.3g}",
    )


def test_criterion_14_runge_gaps():
    g = SpaceTimeGrid.make([0.0], [1.0], [65], 64, 0.5)
    q = field_from_function(g, lambda x, t: 0.5 * np.exp(-30 * (x - 0.4) ** 2) + 0 * t, "Q")
    factory = CGOFactory(g, q)
    sol = factory.build(CGOParameters.make(2.0, [1.0], tau=2 * math.pi / g.T))
    x = g.axis(0)
    carrier = np.array([np.exp(2.0 * x + 4.0 * t) for t in g.times()])
    vals = (carrier * sol.profile().values).real
    target = Field(g, vals / np.max(np.abs(vals)), "Q")
    results = {}
    prop = Propagator(g, None, q)
    for mode, kw in (
        ("full", {}),
        ("partial", {"omega": [1.0], "region": RegionMask.subinterval(g, 0.55, 1.0)}),
    ):
        gaps = [runge_fit(g, target, prop, n_basis=N, mode=mode, **kw).gap for N in (4, 8, 16, 32)]
        results[mode] = gaps
    ok = all(
        all(b < a for a, b in zip(gaps, gaps[1:])) for gaps in results.values()
    )
    _criterion(
        14,
        "Runge gaps strictly decreasing over nested bases in full and partial modes",
        ok,
        "; ".join(f"{m}: {['%.4f' % v for v in g]}" for m, g in results.items()),
    )
