import math

import numpy as np
import pytest

from oracles import fourier_integral, pairing, product_symbol
from pipl.cgo import CGOError, CGOFactory, CGOParameters
from pipl.forward import Propagator, SolverError
from pipl.grid import Field, SpaceTimeGrid, field_from_function


def grid1d(nx=129, nt=256, T=1.0):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def bump_q(grid, amp=1.0):
    return field_from_function(
        grid, lambda x, t: amp * np.exp(-40 * (x - 0.5) ** 2) + 0 * t, "Q"
    )


def test_parameter_validation():
    with pytest.raises(CGOError):
        CGOParameters.make(8.0, [2.0])  # not unit
    with pytest.raises(CGOError):
        CGOParameters.make(-1.0, [1.0])
    with pytest.raises(CGOError):
        CGOParameters.make(8.0, [1.0, 0.0], xi=[1.0, 0.0])  # xi not orthogonal
    CGOParameters.make(8.0, [1.0, 0.0], xi=[0.0, 2.0], tau=1.0)


@pytest.mark.parametrize("key", ["rho", "xi", "tau", "aperture"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_rejected(key, value):
    # an infinite tau used to build, with a nan remainder norm and residual;
    # a nan rho surfaced as an exactly singular step matrix
    args = dict(rho=8.0, omega=[1.0, 0.0], xi=[0.0, 2.0], tau=1.0, aperture=0.1)
    args[key] = [0.0, value] if key == "xi" else value
    with pytest.raises(CGOError, match="finite"):
        CGOParameters.make(**args)


def test_overflow_guard_trips_on_non_finite_remainder(monkeypatch):
    # a remainder step gone nan fails no "peak > e^50" comparison; the guard
    # asks for peak <= e^50 instead
    real_step = Propagator.step

    def step(self, *args, **kwargs):
        return real_step(self, *args, **kwargs) * np.nan

    monkeypatch.setattr(Propagator, "step", step)
    g = grid1d(17, 8)
    with pytest.raises(SolverError, match="overflow guard.*peak nan"):
        CGOFactory(g, 1.0).build(CGOParameters.make(8.0, [1.0], tau=1.0))


def test_carrier_identity():
    # psi = exp(+-(rho w.x + rho^2 t)) in d_t - Lap leaves rho^2 (1 - |w|^2) psi,
    # which vanishes for the unit omega CGOParameters enforces
    for rho, omega in ((64.0, [1.0]), (32.0, [0.6, 0.8])):
        p = CGOParameters.make(rho, omega)
        assert abs(p.rho**2 * (1.0 - float(np.dot(p.omega, p.omega)))) < 1e-10


def test_theta_vanishes_at_endpoints():
    g = grid1d(nx=17, nt=8)
    fwd = CGOFactory(g, None).build(CGOParameters.make(16.0, [1.0], tau=2 * math.pi)).theta
    assert np.all(fwd[0] == 0.0)
    bwd = CGOFactory(g, None).build(CGOParameters.make(16.0, [1.0], direction="backward")).theta
    assert np.all(bwd[-1] == 0.0)


def test_remainder_zero_data_exact():
    g = grid1d(nx=33, nt=32)
    sol = CGOFactory(g, None).build(CGOParameters.make(16.0, [1.0]))
    assert np.all(sol.z.values[0] == 0.0)
    bwd = CGOFactory(g, None).build(CGOParameters.make(16.0, [1.0], direction="backward"))
    assert np.all(bwd.z.values[-1] == 0.0)


def test_remainder_decay_along_rho_sweep():
    g = grid1d(nx=129, nt=256)
    q = bump_q(g)
    factory = CGOFactory(g, q)
    norms = []
    for rho in (8.0, 16.0, 32.0, 64.0):
        sol = factory.build(CGOParameters.make(rho, [1.0]))
        norms.append(sol.remainder_norm)
        assert not sol.warnings
        assert np.max(np.abs(sol.z.values)) < np.exp(50.0)
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] / norms[0] < 0.5


def test_backward_remainder_decays_too():
    g = grid1d(nx=129, nt=256)
    q = bump_q(g)
    factory = CGOFactory(g, q)
    norms = [
        factory.build(CGOParameters.make(rho, [1.0], direction="backward")).remainder_norm
        for rho in (8.0, 32.0)
    ]
    assert norms[1] < norms[0]


def test_discrete_residual_small():
    g = grid1d(nx=65, nt=64)
    factory = CGOFactory(g, bump_q(g))
    assert factory.residual(factory.build(CGOParameters.make(16.0, [1.0], tau=2 * math.pi))) < 1e-10


def test_resolution_warning():
    g = grid1d(nx=33, nt=8, T=1.0)  # dt = 0.125
    sol = CGOFactory(g, None).build(CGOParameters.make(64.0, [1.0]))  # rho^(3/4) dt = 2.8
    assert sol.warnings


def test_product_symbol_properties():
    g = grid1d(nx=17, nt=64)
    fwd = CGOParameters.make(4096.0, [1.0], tau=0.0)
    bwd = fwd.matched_backward()
    sym = product_symbol(fwd, bwd, g)
    # t=0: phi_rho(0) = 0 by the telescoping of the exponentials
    assert np.max(np.abs(sym.values[0])) < 1e-12
    # interior time, huge rho: phi -> 1
    mid = g.nt // 2
    assert np.max(np.abs(sym.values[mid] - 1.0)) < 1e-8
    # xi = tau = 0: real-valued
    assert np.max(np.abs(sym.values.imag)) == 0.0


def test_product_symbol_requires_match():
    g = grid1d(nx=17, nt=8)
    fwd = CGOParameters.make(8.0, [1.0])
    with pytest.raises(CGOError):
        product_symbol(fwd, CGOParameters.make(16.0, [1.0], direction="backward"), g)


def test_pairing_zero_f():
    g = grid1d(nx=33, nt=32)
    factory = CGOFactory(g, None)
    fwd = factory.build(CGOParameters.make(16.0, [1.0]))
    bwd = factory.build(CGOParameters.make(16.0, [1.0], direction="backward"))
    f = Field(g, np.zeros((g.n_levels, *g.nx)), "Q")
    value, leading = pairing(f, fwd, bwd)
    assert value == 0 and leading == 0


def test_pairing_approaches_fourier_integral():
    g = grid1d(nx=129, nt=256)
    f = field_from_function(
        g,
        lambda x, t: np.exp(-30 * (x - 0.5) ** 2) * np.exp(-20 * (t - 0.5) ** 2),
        "Q",
    )
    q = bump_q(g, 0.5)
    factory = CGOFactory(g, q)
    tau = 2 * math.pi
    ref = fourier_integral(f, (0.0,), tau)
    gaps = []
    for rho in (8.0, 16.0, 32.0, 64.0):
        fwd = factory.build(CGOParameters.make(rho, [1.0], tau=tau))
        bwd = factory.build(CGOParameters.make(rho, [1.0], direction="backward"))
        value, _ = pairing(f, fwd, bwd)
        gaps.append(abs(value - ref))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_remainder_decay_2d():
    g2 = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [33, 33], 64, 0.5)
    q = field_from_function(
        g2, lambda x, y, t: np.exp(-30 * ((x - 0.5) ** 2 + (y - 0.5) ** 2)) + 0 * t, "Q"
    )
    factory = CGOFactory(g2, q)
    norms = [
        factory.build(CGOParameters.make(rho, [1.0, 0.0], xi=[0.0, 2 * math.pi])).remainder_norm
        for rho in (8.0, 16.0)
    ]
    assert norms[1] < norms[0]


def test_partial_variant_pins_profile_on_aperture():
    g = grid1d(nx=65, nt=64)
    factory = CGOFactory(g, bump_q(g, 0.5), partial=True)
    sol = factory.build(CGOParameters.make(16.0, [1.0], tau=0.0))
    prof = sol.profile()
    # forward partial data: profile vanishes on Gamma_- = {x=0}
    assert np.max(np.abs(prof.values[:, 0])) < 1e-12
    bwd = factory.build(CGOParameters.make(16.0, [1.0], direction="backward"))
    # backward partial data: profile vanishes on Gamma_+ = {x=1}
    assert np.max(np.abs(bwd.profile().values[:, -1])) < 1e-12
