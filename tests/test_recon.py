import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipl.cgo import CGOFactory, CGOParameters
from pipl.dnmap import DNMeasurement, add_noise, passive_map
from pipl.forward import Propagator
from pipl.grid import (
    BoundaryPortion,
    Field,
    SpaceTimeGrid,
    field_from_function,
    norm,
    resolve_portion,
)
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
from pipl.recon.potential import assemble_samples


def grid1d(nx=65, nt=64, T=1.0):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def bump_dq(grid):
    return field_from_function(
        grid,
        lambda x, t: (1 + 0.4 * np.sin(math.pi * x)) * np.exp(-25 * (t - 0.5) ** 2),
        "Q",
    )


# -- potential recovery ------------------------------------------------------


def test_reciprocity_gap_small():
    g = grid1d(129, 128)
    dq = bump_dq(g)
    probes = synthesize_potential_probes(g, dq, None, rho=32.0, n_tau=2, keep_diagnostics=True)
    rep = reciprocity_report(g, probes, None)
    assert rep["max"] <= 0.05


def test_recover_potential_zero_difference():
    g = grid1d()
    q = field_from_function(g, lambda x, t: 0.5 + 0.3 * np.sin(2 * x) + 0 * t, "Q")
    probes = synthesize_potential_probes(g, q, q, rho=32.0, n_tau=3)
    res = recover_potential(g, probes, q)
    assert norm(res.recovered, "L2Q") < 1e-6


def test_recover_potential_bump_twin():
    g = grid1d(129, 128)
    dq = bump_dq(g)
    probes = synthesize_potential_probes(g, dq, None, rho=32.0, n_tau=4)
    res = recover_potential(g, probes, None, truth_difference=Field(g, -dq.values, "Q"))
    assert res.truth_error <= 0.20
    assert res.residuals["conjugate_symmetry_defect"] < 1e-3


def test_recover_potential_constant_mean():
    g = grid1d(129, 128)
    c = 0.8
    qt = field_from_function(g, lambda x, t: 0 * x + 0 * t, "Q")
    qr = field_from_function(g, lambda x, t: c + 0 * x + 0 * t, "Q")
    probes = synthesize_potential_probes(g, qt, qr, rho=32.0, n_tau=4)
    res = recover_potential(g, probes, qr)
    w = g.space_weights().reshape(-1)
    tw = g.time_weights()
    mean = float(np.dot(tw, res.recovered.values.reshape(g.n_levels, -1) @ w)) / g.T
    assert abs(mean - c) / c <= 0.10


def test_recover_potential_partial_mode():
    g = grid1d(129, 128)

    def cut(x):
        band = (x > 0.15) & (x < 0.85)
        return np.where(band, np.exp(-0.02 / np.maximum((x - 0.15) * (0.85 - x), 1e-12)), 0.0)

    dq = field_from_function(g, lambda x, t: 1.2 * cut(x) * np.exp(-25 * (t - 0.5) ** 2), "Q")
    probes = synthesize_potential_probes(g, dq, None, rho=32.0, n_tau=4, mode="partial")
    # 1D partial data: observation at the single face x = 0
    assert probes[0].portion.n_nodes == 1
    w = g.space_weights().reshape(-1)
    xmean = dq.values.reshape(g.n_levels, -1) @ w
    dq_mean = np.repeat(xmean[:, None], g.nx[0], axis=1)
    res = recover_potential(
        g, probes, None, mode="partial", truth_difference=Field(g, -dq_mean, "Q")
    )
    assert res.truth_error <= 0.15


def test_recover_potential_2d_temporal_truth():
    # dimension-general path: axis-aligned omegas, xi orthogonal per omega;
    # desk-scale 2D resolution limits the extraction bias to ~20-25%
    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [33, 33], 64, 1.0)
    dq = field_from_function(
        g, lambda x, y, t: 0 * x + 0 * y + np.exp(-25 * (t - 0.5) ** 2), "Q"
    )
    probes = synthesize_potential_probes(g, dq, None, rho=16.0, n_xi=1, n_tau=2)
    assert len(probes) == 30  # 2 omegas x (3 xi) x (5 tau)
    res = recover_potential(g, probes, None, truth_difference=Field(g, -dq.values, "Q"))
    assert res.truth_error <= 0.30


def test_probe_sweep_work_counts_2d(monkeypatch):
    # the 2D temporal-truth lattice: 15 points per omega go in batches of at
    # most cgo.batch_width columns (7 here), each one build_columns call and
    # one difference sweep: two Propagator.run calls per batch, one plane
    # wave per forward probe, and no batch buffer above cgo.BATCH_CAP
    from pipl import cgo, forward

    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [33, 33], 64, 1.0)
    dq = field_from_function(g, lambda x, y, t: 0 * x + 0 * y + np.exp(-25 * (t - 0.5) ** 2), "Q")
    events = []
    real_run, real_build, real_wave = (forward.Propagator.run, cgo.CGOFactory.build_columns,
                                       cgo.plane_wave)

    def run(self, *args, **kwargs):
        u = real_run(self, *args, **kwargs)
        events.append(("run", u.size))
        return u

    def build_columns(self, params_list):
        events.append(("batch", params_list[0].omega, len(params_list)))
        return real_build(self, params_list)

    def plane_wave(*args):
        events.append(("wave",))
        return real_wave(*args)

    monkeypatch.setattr(forward.Propagator, "run", run)
    monkeypatch.setattr(cgo.CGOFactory, "build_columns", build_columns)
    monkeypatch.setattr(cgo, "plane_wave", plane_wave)
    probes = synthesize_potential_probes(g, dq, None, rho=16.0, n_xi=1, n_tau=2)
    assert len(probes) == 30
    assert cgo.batch_width(g) == 7
    batches = [e for e in events if e[0] == "batch"]
    assert [m for _, _, m in batches] == [5, 5, 5, 5, 5, 5]
    runs, omega = {}, None
    for e in events:  # a run belongs to the omega of the batch before it
        omega = e[1] if e[0] == "batch" else omega
        runs[omega] = runs.get(omega, 0) + (e[0] == "run")
    assert runs == {(1.0, 0.0): 6, (0.0, 1.0): 6}
    assert sum(e[0] == "run" for e in events) == 2 * len(batches)
    assert sum(e[0] == "wave" for e in events) == len(probes)
    assert max(e[1] for e in events if e[0] == "run") <= cgo.BATCH_CAP


def test_recover_potential_reports_distinct_modes_2d():
    # both omegas share the xi = 0 column of the lattice: 30 samples, 25 modes
    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [9, 9], 8, 1.0)
    dq = field_from_function(g, lambda x, y, t: 0 * x + 0 * y + np.sin(math.pi * t), "Q")
    probes = synthesize_potential_probes(g, dq, None, rho=8.0, n_xi=1, n_tau=2)
    res = recover_potential(g, probes, None)
    assert len(res.samples) == 30
    assert res.regularization["modes"] == len(res.samples.modes()) == 25


def _per_probe_pairing(g, probes, q_ref, mode):
    # reference: the per-probe loop that builds the backward CGO for every probe
    fac = CGOFactory(g, q_ref, "be", partial=(mode == "partial"))
    values = []
    for p in probes:
        bwd = fac.build(
            CGOParameters.make(
                p.params.rho, p.params.omega, direction="backward", aperture=p.params.aperture
            )
        )
        w_bwd = bwd.profile().values.reshape(g.n_levels, -1)[:, p.portion.flat]
        per_level = ((w_bwd * p.dn_difference) @ p.portion.weights).astype(complex)
        values.append(-complex(np.dot(g.time_weights(), per_level)))
    return values


@pytest.mark.parametrize("mode", ["full", "partial"])
def test_assemble_samples_match_per_probe_pairing(mode):
    g = grid1d(33, 32)
    dq = bump_dq(g)
    probes = synthesize_potential_probes(g, dq, 0.3, rho=16.0, n_tau=2, mode=mode)
    sset = assemble_samples(g, probes, 0.3, mode=mode)
    assert [s.value for s in sset.samples] == _per_probe_pairing(g, probes, 0.3, mode)


def test_recover_potential_one_backward_build_per_direction(monkeypatch):
    builds = []
    real_build = CGOFactory.build

    def counting_build(self, params):
        builds.append(params)
        return real_build(self, params)

    monkeypatch.setattr(CGOFactory, "build", counting_build)
    g2 = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [9, 9], 8, 1.0)
    for g, expected in ((grid1d(17, 16), 1), (g2, 2)):
        dq = field_from_function(g, lambda *args: 0 * args[0] + np.sin(math.pi * args[-1]), "Q")
        builds.clear()
        probes = synthesize_potential_probes(g, dq, None, rho=8.0, n_xi=1, n_tau=1)
        assert all(p.direction == "forward" for p in builds)
        builds.clear()
        recover_potential(g, probes, None)
        backward = [p for p in builds if p.direction == "backward"]
        assert len(backward) == len({(p.rho, p.omega, p.aperture) for p in backward}) == expected


def test_underresolved_lattice_rejected():
    from pipl.recon.fourier import FourierSample, FourierSampleSet

    g = grid1d(17, 8)
    sset = FourierSampleSet(g)
    sset.add(FourierSample((1.0,), (0.0,), 0.0, 1.0 + 0j, 8.0))
    # duplicate modes collapse: two samples sharing one mode are fine
    sset.add(FourierSample((1.0,), (0.0,), 0.0, 1.1 + 0j, 16.0))
    f = sset.synthesize()
    assert f.values.shape == (g.n_levels, *g.nx)


# -- positive solutions ------------------------------------------------------


def test_positive_solution_certificate():
    g = grid1d(33, 32)
    v, cert = positive_solution(g, None, None)
    assert cert.min_after_first_level > 0
    assert cert.interior_min >= -1e-8 * cert.sup


def test_positive_solution_rejects_zero_data():
    from pipl.grid import GridError

    g = grid1d(17, 8)
    with pytest.raises(GridError):
        positive_solution(g, None, None, shape_fn=lambda x: np.zeros_like(x))


def test_positive_solution_with_potential():
    g = grid1d(33, 32)
    q = field_from_function(g, lambda x, t: 2.0 + np.sin(3 * x) + 0 * t, "Q")
    v, cert = positive_solution(g, None, q, ramp_time=0.2)
    assert cert.min_after_first_level > 0


# -- Taylor recovery ---------------------------------------------------------


def test_recover_taylor_identical_models():
    g = grid1d(65, 64)
    nl = Nonlinearity.parse("0.5*u^3")
    v2, _ = positive_solution(g, None, None, ramp_time=0.15)
    probes = synthesize_taylor_probes(g, nl, nl, 3, [v2, v2], rho=32.0, n_tau=2)
    res = recover_taylor(g, probes, nl, 3, [v2, v2])
    assert norm(res.recovered, "L2Q") < 1e-8


def test_recover_taylor_cubic_twin():
    g = grid1d(129, 128)
    nl1 = Nonlinearity.parse("(1 + 0.2*sin(pi*x))*exp(-16*(t-0.65)^2)*u^3")
    nl2 = Nonlinearity.zero()
    v2, _ = positive_solution(g, None, None, ramp_time=0.15)
    v3, _ = positive_solution(g, None, None, ramp_time=0.15)
    probes = synthesize_taylor_probes(g, nl1, nl2, 3, [v2, v3], rho=32.0, n_tau=4)
    truth = field_from_function(
        g, lambda x, t: 6 * (1 + 0.2 * np.sin(math.pi * x)) * np.exp(-16 * (t - 0.65) ** 2), "Q"
    )
    res = recover_taylor(g, probes, nl2, 3, [v2, v3], truth_difference=truth)
    assert res.truth_error <= 0.25


def test_recover_taylor_quadratic_constant_mean():
    g = grid1d(65, 64)
    c = 0.7
    nl1 = Nonlinearity.parse("0.7*u^2")
    nl2 = Nonlinearity.zero()
    v2, _ = positive_solution(g, None, None, ramp_time=0.15)
    probes = synthesize_taylor_probes(g, nl1, nl2, 2, [v2], rho=32.0, n_tau=4)
    res = recover_taylor(g, probes, nl2, 2, [v2])
    vals = res.recovered.values
    mean = float(np.mean(vals[vals != 0.0]))
    assert abs(mean - 2 * c) / (2 * c) <= 0.15


def test_taylor_probe_one_sweep_matches_two_sweep_difference():
    from pipl.dnmap import normal_derivative_matrix

    g = grid1d(33, 32)
    rho = 32.0
    nl_truth = Nonlinearity.parse("0.7*u^2")
    nl_ref = Nonlinearity.parse("(0.3 + 0.2*x)*u^2")
    v2, _ = positive_solution(g, None, None, ramp_time=0.15)
    probes = synthesize_taylor_probes(g, nl_truth, nl_ref, 2, [v2], rho=rho, n_tau=2)
    x = g.axis(0)
    deltas = [
        np.array([np.broadcast_to(nl(x, t, 0.0, k=2), g.nx) for t in g.times()])
        for nl in (nl_truth, nl_ref)
    ]
    B = normal_derivative_matrix(g, resolve_portion(g, BoundaryPortion.full()))
    fac = CGOFactory(g, None)
    prop = Propagator(g, None, None, "be", (-2.0 * rho,))
    for p in probes:
        profile = fac.build(p.params).profile().values
        traces = []
        for delta in deltas:
            W = prop.run(source=(-delta * profile * v2.values).reshape(g.n_levels, -1))
            traces.append((B @ W.T).T)
        ref = traces[0] - traces[1]
        assert np.max(np.abs(p.dn_difference - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_taylor_rejects_mismatched_base_potential():
    from pipl.grid import GridError

    g = grid1d(33, 16)
    nl1 = Nonlinearity.parse("u + u^3")       # d_u at 0 is 1
    nl2 = Nonlinearity.zero()                 # d_u at 0 is 0
    v2, _ = positive_solution(g, None, None)
    with pytest.raises(GridError):
        synthesize_taylor_probes(g, nl1, nl2, 3, [v2, v2])


# -- initial data ------------------------------------------------------------


LEFT = BoundaryPortion.named("left")


def test_recover_initial_zero_data():
    g = grid1d(33, 32, T=0.5)
    z = Field(g, np.zeros(g.nx), "Omega")
    data = passive_map(g, None, Nonlinearity.zero(), z, LEFT)
    res = recover_initial(g, None, Nonlinearity.zero(), data)
    assert norm(res.recovered, "L2Omega") < 1e-10


def test_recover_initial_linear_twin():
    g = grid1d(49, 48, T=0.5)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    data = passive_map(g, None, Nonlinearity.zero(), truth, LEFT)
    res = recover_initial(g, None, Nonlinearity.zero(), data, truth=truth)
    assert res.truth_error <= 0.10


def test_recover_initial_affine_source_term():
    # a(x,t,0) = 2x drives the solution even for zero initial data; the
    # misfit must keep it whatever the class tag says
    g = grid1d(49, 48, T=0.5)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    nl = Nonlinearity.parse("2*x", tag="linear-potential")
    res = recover_initial(g, None, nl, passive_map(g, None, nl, truth, LEFT), truth=truth)
    assert res.truth_error < 0.01


def test_recover_initial_nonlinear_graceful():
    g = grid1d(49, 48, T=0.5)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    lin = recover_initial(
        g, None, Nonlinearity.zero(),
        passive_map(g, None, Nonlinearity.zero(), truth, LEFT), truth=truth,
    )
    nl = Nonlinearity.parse("0.1*u^3")
    got = recover_initial(g, None, nl, passive_map(g, None, nl, truth, LEFT), truth=truth)
    assert got.truth_error <= max(2 * lin.truth_error, 0.02)


def test_recover_initial_morozov_selects_alpha():
    g = grid1d(41, 40, T=0.5)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    clean = passive_map(g, None, Nonlinearity.zero(), truth, LEFT)
    noisy = add_noise(clean, "gaussian-relative", 0.01, seed=3)
    diff = noisy.values - clean.values
    per_level = (np.abs(diff) ** 2) @ clean.portion.weights
    m = float(np.sqrt(np.dot(g.time_weights(), per_level)))
    res = recover_initial(g, None, Nonlinearity.zero(), noisy, noise_norm=m, truth=truth)
    assert res.regularization["selection"] == "morozov"
    # discrepancy should sit near the noise level, not far below it
    assert res.residuals["data_misfit"] <= 1.1 * m
    assert res.truth_error < 0.5


def test_stability_curve_shapes():
    g = grid1d(41, 40, T=0.5)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    curve = stability_curve(
        g, None, Nonlinearity.zero(), truth, LEFT, deltas=[1e-1, 1e-2, 1e-3], trials=3, seed=5
    )
    means = [curve.mean_errors[d] for d in [1e-1, 1e-2, 1e-3]]
    assert means[0] >= means[1] >= means[2]
    assert curve.fit_two_term["residual"] <= curve.fit_linear["residual"] + 1e-12


# -- null control ------------------------------------------------------------


def test_null_control_zero_initial():
    g = grid1d(33, 48, T=1.0)
    z = Field(g, np.zeros(g.nx), "Omega")
    res = null_control(g, None, None, z, eps=0.25, n_time=6)
    assert res.terminal_norm <= 1e-14
    assert float(np.max(np.abs(res.control))) <= 1e-9


def test_null_control_reduction_and_monotonicity():
    g = grid1d(65, 96, T=1.0)
    g0 = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    portion = resolve_portion(g, BoundaryPortion.named("left"))
    res = null_control(g, None, None, g0, eps=0.25, portion=portion, n_time=12)
    assert res.uncontrolled_norm / res.terminal_norm >= 100
    hist = res.terminal_history
    assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))


def test_null_control_bt_continuation():
    g = grid1d(65, 96, T=1.0)
    g0 = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    bt = BTStructure(Nonlinearity.zero(), Nonlinearity.parse("u^3"), 0.25)
    res = null_control(
        g, None, None, g0, eps=0.25,
        portion=resolve_portion(g, BoundaryPortion.named("left")), n_time=12, bt=bt,
    )
    assert res.continuation["sup_norm_over_tail"] <= 10 * res.terminal_norm


# -- Runge fitting -----------------------------------------------------------


def _cgo_target(g, q, rho=2.0, tau=2 * math.pi):
    fac = CGOFactory(g, q)
    sol = fac.build(CGOParameters.make(rho, [1.0], tau=tau))
    x = g.axis(0)
    carrier = np.array([np.exp(rho * x + rho**2 * t) for t in g.times()])
    vals = (carrier * sol.profile().values).real
    return Field(g, vals / np.max(np.abs(vals)), "Q")


def test_runge_exact_member_recovered(monkeypatch):
    from pipl.forward import solve_linear
    from pipl.recon import runge_basis

    g = grid1d(33, 32, T=0.5)
    basis = runge_basis(g, 6)
    target = solve_linear(g, None, None, f=basis[2]).solution
    prop = Propagator(g)
    runs = []
    real_run = Propagator.run

    def run(self, *args, **kwargs):
        runs.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "run", run)
    fit = runge_fit(g, target, prop, n_basis=6)
    assert fit.gap < 1e-8 * max(1.0, fit.target_norm)
    assert runs == [prop]   # all basis columns in one sweep of the given Propagator


def test_runge_nested_gaps_decrease_full_and_partial():
    g = grid1d(65, 64, T=0.5)
    q = field_from_function(g, lambda x, t: 0.5 * np.exp(-30 * (x - 0.4) ** 2) + 0 * t, "Q")
    target = _cgo_target(g, q)
    prop = Propagator(g, None, q)
    for mode, kw in (
        ("full", {}),
        ("partial", {"omega": [1.0], "region": RegionMask.subinterval(g, 0.55, 1.0)}),
    ):
        gaps = [runge_fit(g, target, prop, n_basis=N, mode=mode, **kw).gap for N in (4, 8, 16, 32)]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), (mode, gaps)


def test_synthesis_and_morozov_work_counts(monkeypatch):
    from pipl import cgo
    from pipl.recon import initial, potential

    g = grid1d(17, 16, T=0.5)
    v2, _ = positive_solution(g, None, None, ramp_time=0.15)
    built = []

    class Counting(cgo.Propagator):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cgo, "Propagator", Counting)
    monkeypatch.setattr(potential, "Propagator", Counting)
    # a Taylor sweep runs on the factory's own potential: one stepper per omega
    nl = Nonlinearity.parse("0.7*u^2")
    synthesize_taylor_probes(g, nl, Nonlinearity.zero(), 2, [v2], rho=8.0, n_xi=1, n_tau=2)
    assert len(built) == 1
    # potential synthesis sweeps q_truth, not the factory's q_ref: two per omega
    built.clear()
    synthesize_potential_probes(g, bump_dq(g), None, rho=8.0, n_xi=1, n_tau=1)
    assert len(built) == 2

    # an affine Morozov recovery: one linearization, one batched sweep for its
    # dense columns, and every discrepancy in closed form
    maps, trials, sweeps = [], [], {"batched": 0}
    real_map, real_discrepancy = initial.InitialDataMap, initial._discrepancy
    real_run = initial.Propagator.run

    def counting_map(*args, **kwargs):
        maps.append(1)
        return real_map(*args, **kwargs)

    def counting_discrepancy(*args, **kwargs):
        trials.append(1)
        return real_discrepancy(*args, **kwargs)

    def counting_run(self, g0=None, **kwargs):
        sweeps["batched"] += np.ndim(g0) == 2
        return real_run(self, g0=g0, **kwargs)

    monkeypatch.setattr(initial, "InitialDataMap", counting_map)
    monkeypatch.setattr(initial, "_discrepancy", counting_discrepancy)
    monkeypatch.setattr(initial.Propagator, "run", counting_run)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    clean = passive_map(g, None, Nonlinearity.zero(), truth, LEFT)
    noisy = add_noise(clean, "gaussian-relative", 0.01, seed=3)
    m = float(np.sqrt(np.dot(g.time_weights(), (np.abs(noisy.values - clean.values) ** 2)
                             @ clean.portion.weights)))
    res = recover_initial(g, None, Nonlinearity.zero(), noisy, noise_norm=m)
    assert res.regularization["selection"] == "morozov"
    assert res.regularization["alpha"] < 1e-1 * res.regularization["operator_scale"]
    assert len(maps) == 1
    assert sweeps == {"batched": 1}
    assert trials == []


def test_stability_curve_shares_one_linearization(monkeypatch):
    # the shipped stability curve (41 x 40, 4 noise levels x 5 trials) builds
    # the clean passive map, then one g = 0 base solve, map F and SVD for all
    # 20 trials
    from pipl import forward
    from pipl.recon import initial

    built, dense, svds, zero_maps = [], [], [], []
    real_init, real_dense = forward.Propagator.__init__, initial.InitialDataMap.dense
    real_svd, real_map = np.linalg.svd, initial.InitialDataMap

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def counting_dense(self):
        dense.append(1)
        return real_dense(self)

    def counting_svd(*args, **kwargs):
        svds.append(1)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(forward.Propagator, "__init__", counting_init)
    monkeypatch.setattr(initial.InitialDataMap, "dense", counting_dense)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    g = grid1d(41, 40, T=0.5)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    curve = stability_curve(
        g, None, Nonlinearity.zero(), truth, LEFT, [1e-1, 1e-2, 1e-3, 1e-4], trials=5, seed=1
    )
    assert len(curve.errors) == 20
    assert (len(built), len(dense), len(svds)) == (3, 1, 1)

    # a cubic term relinearizes per trial, but around g = 0 (base u = 0, so
    # q = 1.5 u^2 = 0) only once per curve
    def counting_map(grid, gamma, q, *args, **kwargs):
        zero_maps.append(not np.any(q.values))
        return real_map(grid, gamma, q, *args, **kwargs)

    monkeypatch.setattr(initial, "InitialDataMap", counting_map)
    g = grid1d(17, 12, T=0.3)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    stability_curve(g, None, Nonlinearity.parse("0.5*u^3"), truth, LEFT, [1e-2], trials=2)
    assert sum(zero_maps) == 1 and len(zero_maps) > 1


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_stability_trials_equal_standalone_recoveries(seed):
    # each trial of a curve, on its shared g = 0 linearization, is bitwise the
    # recover_initial call on the same noisy data
    g = grid1d(17, 12, T=0.3)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    deltas, trials = [1e-1, 1e-2], 1
    for nl in (
        Nonlinearity.zero(),
        Nonlinearity.parse("2*x", tag="linear-potential"),
        Nonlinearity.parse("0.5*u^3"),
    ):
        curve = stability_curve(g, None, nl, truth, LEFT, deltas, trials=trials, seed=seed)
        clean = passive_map(g, None, nl, truth, LEFT)
        for k, err in enumerate(curve.errors):
            i, trial = divmod(k, trials)
            noisy = add_noise(clean, "gaussian-relative", deltas[i], seed + 1000 * i + trial)
            m = DNMeasurement(g, clean.portion, noisy.values - clean.values).l2()
            rec = recover_initial(g, None, nl, noisy, noise_norm=m)
            assert curve.magnitudes[k] == m
            assert err == norm(rec.recovered - truth, "L2Omega")


def test_stability_morozov_choices_unchanged(monkeypatch):
    # the stability config (41 x 40, seed 20260809) picks alpha / scale =
    # 1e-4, 1e-5, 1e-6, 1e-7 for its four noise levels, five trials each, as
    # the matrix-free CG solver did
    from pipl.recon import initial

    chosen = []
    real = initial._recover

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        chosen.append(res.regularization["alpha"] / res.regularization["operator_scale"])
        return res

    monkeypatch.setattr(initial, "_recover", recording)
    g = grid1d(41, 40, T=0.5)
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    stability_curve(
        g, None, Nonlinearity.zero(), truth, LEFT, [1e-1, 1e-2, 1e-3, 1e-4],
        trials=5, seed=20260809,
    )
    expected = np.repeat([1e-4, 1e-5, 1e-6, 1e-7], 5)
    assert np.allclose(chosen, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_dense_columns_match_forward_sweep(dim):
    from pipl.recon import InitialDataMap

    if dim == 1:
        g, portion = grid1d(17, 12, T=0.3), LEFT
    else:
        g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [7, 8], 6, 0.2)
        portion = BoundaryPortion.named("left", "top")
    q = field_from_function(g, lambda *a: 1.0 + a[0] * a[-1] + 0.5 * a[-2], "Q")
    lin = InitialDataMap(g, None, q, resolve_portion(g, portion))
    F = lin.dense()
    interior = lin.prop.interior_mask
    assert F.shape == (g.n_levels * lin.portion.n_nodes, int(interior.sum()))
    rng = np.random.default_rng(dim)
    g_vec = np.where(interior, rng.standard_normal(g.n_space), 0.0)
    fwd = (lin.B @ lin.prop.run(g0=g_vec).T).T.reshape(-1)
    assert np.linalg.norm(F @ g_vec[interior] - fwd) <= 1e-12 * np.linalg.norm(fwd)


def test_filter_factor_solution_solves_normal_equations():
    # g(alpha) from the SVD solves (F^T W F + alpha D) g = F^T W (data - base),
    # the system the matrix-free CG solved; a(x,t,0) = 2x gives a nonzero base
    from pipl.recon import InitialDataMap

    g = grid1d(17, 12, T=0.3)
    nl = Nonlinearity.parse("2*x", tag="linear-potential")
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    noisy = add_noise(passive_map(g, None, nl, truth, LEFT), "gaussian-relative", 0.01, seed=2)
    base = passive_map(g, None, nl, Field(g, np.zeros(g.nx), "Omega"), LEFT)
    lin = InitialDataMap(g, None, None, resolve_portion(g, LEFT))
    F, interior = lin.dense(), lin.prop.interior_mask
    W = np.outer(lin.w_time, lin.w_portion).reshape(-1)
    for alpha in (1e-2, 1e-5):
        normal = F.T @ (W[:, None] * F) + alpha * np.diag(lin.w_space[interior])
        expected = np.linalg.solve(normal, F.T @ (W * (noisy.values - base.values).reshape(-1)))
        got = recover_initial(g, None, nl, noisy, alpha=alpha).recovered.values.reshape(-1)
        assert not np.any(got[~interior])
        assert np.max(np.abs(got[interior] - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_gauss_newton_reaches_a_stationary_point():
    # at the Gauss-Newton limit the gradient F^T W r + alpha D g of the
    # Tikhonov functional, taken around the nonlinear solve, vanishes
    from pipl.dnmap import measure
    from pipl.forward import solve_semilinear
    from pipl.model import taylor_table
    from pipl.recon import InitialDataMap

    g = grid1d(17, 12, T=0.3)
    nl = Nonlinearity.parse("0.5*u^3")
    truth = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    data = passive_map(g, None, nl, truth, LEFT)
    alpha = 1e-4
    rec = recover_initial(g, None, nl, data, alpha=alpha, outer_iters=6).recovered
    base = solve_semilinear(g, None, nl, g=rec).solution
    lin = InitialDataMap(g, None, taylor_table(nl, base, 1).coefficient(1), resolve_portion(g, LEFT))
    F, interior = lin.dense(), lin.prop.interior_mask
    W = np.outer(lin.w_time, lin.w_portion).reshape(-1)
    reg = (alpha * lin.w_space * rec.values.reshape(-1))[interior]
    grad = F.T @ (W * (measure(base, LEFT).values - data.values).reshape(-1)) + reg
    assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(reg)


def test_dense_map_size_cap(monkeypatch):
    from pipl.forward import SolverError
    from pipl.recon import InitialDataMap, initial

    g = grid1d(17, 12, T=0.3)
    lin = InitialDataMap(g, None, None, resolve_portion(g, LEFT))
    held = g.n_levels * g.n_space * (g.n_space - 2)
    monkeypatch.setattr(initial, "DENSE_CAP", held)
    assert lin.dense().shape == (g.n_levels, g.n_space - 2)
    monkeypatch.setattr(initial, "DENSE_CAP", held - 1)
    with pytest.raises(SolverError, match=f"{g.n_levels} rows x 15 columns .* cap of {held - 1}"):
        lin.dense()


def test_bspline_element_matches_scipy():
    from scipy.interpolate import BSpline

    from pipl.recon.control import bspline_element

    for n_time in (3, 6, 12):
        for horizon, nt in ((0.4, 40), (0.75, 48), (1.0, 33)):
            times = np.linspace(0.0, 1.0, nt + 1)
            inner = np.linspace(0.0, horizon, n_time - 1)
            knots = np.concatenate([[0.0, 0.0], inner, [horizon, horizon]])
            for j in range(n_time):
                element = BSpline.basis_element(knots[j : j + 4], extrapolate=False)
                ref = np.nan_to_num(element(np.clip(times, 0, horizon)), nan=0.0)
                ref[times > horizon] = 0.0
                got = bspline_element(knots[j : j + 4], times)
                assert np.max(np.abs(got - ref)) <= 1e-15
            # half-open support: the last element is 0 at the horizon itself
            assert bspline_element(knots[-4:], np.array([horizon]))[0] == 0.0
