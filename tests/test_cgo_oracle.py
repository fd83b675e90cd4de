"""Broadcast CGO fields, column-batched CGO marches and probe sweeps, and the
separable Fourier synthesis against reference code on random grids.

The reference functions below build each plane wave once per time level,
as the space wave times the time wave, sweep the probes one at a time, and
build the synthesis design matrix by a samples x modes x levels loop: the
plain code the production code batches and factors.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import plane_wave, product_symbol, system
from pipl import cgo
from pipl.cgo import (
    CGOError,
    CGOFactory,
    CGOParameters,
    phi_rho,
    ramp,
)
from pipl.dnmap import normal_derivative_matrix
from pipl.forward import Propagator, potential_values
from pipl.grid import (
    BoundaryPortion,
    Field,
    SpaceTimeGrid,
    complement_portion,
    l2q_inner,
    resolve_portion,
)
from pipl.recon.fourier import FourierSample, FourierSampleSet, frequency_lattice
from pipl.recon.potential import _sweep_probes, synthesize_potential_probes


def ref_spatial_phase(params, grid):
    meshes = grid.meshes()
    s = params.xi[0] * meshes[0]
    if grid.dim == 2:
        s = s + params.xi[1] * meshes[1]
    return s


def ref_phase(params, s, t):
    return np.exp(-1j * s) * np.exp(-1j * (params.tau * t))


def ref_theta(grid, params):
    if params.direction == "forward":
        s = ref_spatial_phase(params, grid)
        levels = [ramp(params, t) * ref_phase(params, s, t) for t in grid.times()]
    else:
        levels = [ramp(params, grid.T - t) * np.ones(grid.nx) for t in grid.times()]
    vals = np.array(levels)
    return vals.astype(float) if params.direction == "backward" else vals


def ref_source(grid, q_levels, params):
    rho34 = params.rho**0.75
    xi2 = float(np.dot(params.xi, params.xi))
    s = ref_spatial_phase(params, grid)
    levels = []
    for k, t in enumerate(grid.times()):
        qk = q_levels[k]
        if params.direction == "forward":
            phi = ramp(params, t)
            dphi = rho34 * np.exp(-rho34 * t)
            E = ref_phase(params, s, t)
            levels.append(-(dphi + (xi2 - 1j * params.tau + qk) * phi) * E)
        else:
            phi = ramp(params, grid.T - t)
            dphi = rho34 * np.exp(-rho34 * (grid.T - t))
            levels.append(-(dphi + qk * phi) * np.ones(grid.nx))
    return np.array(levels).reshape(grid.n_levels, -1)


def ref_product_symbol(fwd, grid):
    s = ref_spatial_phase(fwd, grid)
    return np.array([phi_rho(fwd.rho, t, grid.T) * ref_phase(fwd, s, t) for t in grid.times()])


def ref_synthesize(sset, alpha):
    grid = sset.grid
    seen = {}
    for s in sset.samples:
        seen.setdefault((tuple(np.round(s.xi, 12)), round(s.tau, 12)), (s.xi, s.tau))
    modes = list(seen.values())
    meshes = grid.meshes()
    w_space = grid.space_weights().reshape(-1)
    w_time = grid.time_weights()
    times = grid.times()

    def mode_phase(xi, tau, sign):
        s = xi[0] * meshes[0]
        if grid.dim == 2:
            s = s + xi[1] * meshes[1]
        return [np.exp(sign * 1j * (s + tau * t)).reshape(-1) for t in times]

    basis_levels = [mode_phase(xi, tau, +1) for xi, tau in modes]
    G = np.zeros((len(sset.samples), len(modes)), dtype=complex)
    rhs = np.array([s.value for s in sset.samples])
    for m, s in enumerate(sset.samples):
        kern = mode_phase(s.xi, s.tau, -1)
        wt = np.array([phi_rho(s.rho, t, grid.T) for t in times])
        for j in range(len(modes)):
            G[m, j] = sum(
                w_time[k] * wt[k] * np.dot(basis_levels[j][k] * kern[k], w_space)
                for k in range(grid.n_levels)
            )
    scale = float(np.max(np.abs(G))) or 1.0
    lhs = G.conj().T @ G + alpha * scale**2 * np.eye(len(modes))
    coeff = np.linalg.solve(lhs, G.conj().T @ rhs)
    out = np.zeros((grid.n_levels, grid.n_space))
    for j, c in enumerate(coeff):
        for k in range(grid.n_levels):
            out[k] += (c * basis_levels[j][k]).real
    return out.reshape(grid.n_levels, *grid.nx)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_march(got, ref, params):
    """_same, except that a probe with xi = 0 and tau = 0 marches real: got
    is then the real part of the complex reference, whose imaginary part is
    exactly zero."""
    if not np.any(params.xi) and params.tau == 0.0 and np.iscomplexobj(ref):
        return not np.any(ref.imag) and _same(got, ref.real)
    return _same(got, ref)


def _zero_or(floats):
    """floats, with exactly zero drawn often: a probe with xi = 0 and tau = 0
    is the real march."""
    return st.one_of(st.just(0.0), floats)


@st.composite
def grids(draw):
    dim = draw(st.sampled_from((1, 2)))
    lower = [draw(st.floats(-1.0, 1.0)) for _ in range(dim)]
    upper = [lo + draw(st.floats(0.5, 2.0)) for lo in lower]
    nx = [draw(st.integers(4, 10)) for _ in range(dim)]
    return SpaceTimeGrid.make(lower, upper, nx, draw(st.integers(2, 10)), draw(st.floats(0.1, 1.0)))


def ref_sweep_probes(grid, factory, q_sweep, coefficient, rho, n_xi, n_tau, partial, aperture,
                     dq=None):
    """One probe at a time: per lattice point (both probes of each conjugate
    pair) a forward CGO build and a one-column sweep of coefficient *
    profile; returns (params, DN difference, volume functional or None,
    forward remainder norm, warnings) per probe."""
    omegas = [(1.0,)] if grid.dim == 1 else [(1.0, 0.0), (0.0, 1.0)]
    out = []
    for omega in omegas:
        portion = (
            complement_portion(grid, BoundaryPortion.directional(omega, aperture, +1))
            if partial
            else resolve_portion(grid, BoundaryPortion.full())
        )
        B = normal_derivative_matrix(grid, portion)
        advection = tuple(-2.0 * rho * w for w in omega)
        prop = Propagator(grid, None, q_sweep, factory.scheme, advection)
        for xi, tau in frequency_lattice(grid, omega, n_xi, n_tau):
            fwd = factory.build(CGOParameters.make(rho, omega, xi=xi, tau=tau, aperture=aperture))
            profile = fwd.profile().values
            d = prop.run(source=(coefficient * profile).reshape(grid.n_levels, -1))
            volume = None
            if dq is not None:
                w_bwd = factory.build(fwd.params.matched_backward()).profile().values
                volume = l2q_inner(Field(grid, dq * w_bwd, "Q"),
                                   Field(grid, profile + d.reshape(profile.shape), "Q"))
            out.append((fwd.params, (B @ d.T).T, volume, fwd.remainder_norm,
                        tuple(fwd.warnings)))
    return out


@st.composite
def cgo_batches(draw):
    """A random grid and scheme, a t-dependent potential and 1-4 CGO
    parameters sharing rho, omega, direction and aperture."""
    grid = draw(grids())
    if grid.dim == 1:
        omega, perp = (draw(st.sampled_from((1.0, -1.0))),), (0.0,)
    else:
        angle = draw(st.floats(0.0, 2 * math.pi))
        omega, perp = (math.cos(angle), math.sin(angle)), (-math.sin(angle), math.cos(angle))
    rho = draw(st.floats(1.0, 64.0))
    direction = draw(st.sampled_from(("forward", "backward")))
    aperture = draw(st.floats(0.0, 0.5))
    frequencies = draw(st.lists(st.tuples(_zero_or(st.floats(-8.0, 8.0)),
                                          _zero_or(st.floats(-20.0, 20.0))),
                                min_size=1, max_size=4))
    params = [
        CGOParameters.make(rho, omega, xi=tuple(k * p for p in perp), tau=tau,
                           direction=direction, aperture=aperture)
        for k, tau in frequencies
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q = Field(grid, rng.uniform(0.0, 2.0, (grid.n_levels, *grid.nx)), "Q")
    return grid, draw(st.sampled_from(("be", "cn"))), q, params, draw(st.booleans())


@st.composite
def cgo_cases(draw):
    """A random grid, a t-dependent potential and CGO parameters of either
    direction, with xi a multiple of the vector orthogonal to omega."""
    grid = draw(grids())
    if grid.dim == 1:
        omega = (draw(st.sampled_from((1.0, -1.0))),)
        xi = (0.0,)
    else:
        angle = draw(st.floats(0.0, 2 * math.pi))
        omega = (math.cos(angle), math.sin(angle))
        k = draw(_zero_or(st.floats(-8.0, 8.0)))
        xi = (-k * omega[1], k * omega[0])
    params = CGOParameters.make(
        draw(st.floats(1.0, 64.0)), omega, xi=xi, tau=draw(_zero_or(st.floats(-20.0, 20.0))),
        direction=draw(st.sampled_from(("forward", "backward"))),
        aperture=draw(st.floats(0.0, 0.5)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q = Field(grid, rng.uniform(0.0, 2.0, (grid.n_levels, *grid.nx)), "Q")
    return grid, q, params, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(case=cgo_cases())
def test_cgo_fields_match_level_loop(case):
    grid, q, params, partial = case
    factory = CGOFactory(grid, q, partial=partial)
    march = cgo.RemainderMarch(factory, [params])
    # level by level, as the probe sweep forms them, and every level at once,
    # as a build does; real where xi = 0 and tau = 0
    per_level = [march.fields(level) for level in range(grid.n_levels)]
    every = march.fields(slice(None))
    for i, ref in enumerate((ref_theta(grid, params).reshape(grid.n_levels, -1),
                             ref_source(grid, factory.q_levels, params))):
        assert _same_march(np.array([f[i][:, 0] for f in per_level]), ref, params)
        assert _same_march(every[i][..., 0], ref, params)
    if params.direction == "forward":
        bwd = params.matched_backward()
        assert _same(product_symbol(params, bwd, grid).values, ref_product_symbol(params, grid))
    # the factored wave is the summed-phase one up to rounding (|E| = 1),
    # and equal to it where xi = 0, as on every 1D grid (where tau t = 0 and
    # x < 0, the zero imaginary part may differ in sign)
    t, s = grid.level_times(), ref_spatial_phase(params, grid)
    summed = np.exp(-1j * (s + params.tau * t))
    assert np.max(np.abs(plane_wave(grid, params.xi, params.tau) - summed)) <= 1e-14
    still = CGOParameters.make(params.rho, params.omega, tau=params.tau)
    assert np.array_equal(plane_wave(grid, still.xi, still.tau),
                          np.exp(-1j * (ref_spatial_phase(still, grid) + still.tau * t)))


@settings(max_examples=40, deadline=None)
@given(case=cgo_cases())
def test_cgo_discrete_residual_small(case):
    grid, q, params, partial = case
    factory = CGOFactory(grid, q, partial=partial)
    assert factory.residual(factory.build(params)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(case=cgo_batches())
def test_remainder_march_columns_match_single_builds(case):
    # the probes of a batch marched together level by level, as the probe
    # sweep marches them: each column's remainder, its norm and the warnings
    # are bitwise its own build's
    grid, scheme, q, params, partial = case
    factory = CGOFactory(grid, q, scheme, partial=partial)
    march = cgo.RemainderMarch(factory, params)
    z = np.empty((grid.n_levels, grid.n_space, len(params)), dtype=complex)
    for level, _, z_level in march.steps(march.fields):
        march.tally(level, z_level)
        z[level] = z_level
    # a forward batch is complex unless every probe has xi = 0 and tau = 0
    real = params[0].direction == "backward" or not any(np.any(p.xi) or p.tau for p in params)
    assert np.iscomplexobj(z_level) != real
    for j, (p, remainder) in enumerate(zip(params, march.finish())):
        ref = factory.build(p)
        assert ref.params == p
        assert np.array_equal(z[..., j], ref.z.values.reshape(grid.n_levels, -1))
        assert remainder == ref.remainder_norm
        assert march.warnings == ref.warnings


@settings(max_examples=40, deadline=None)
@given(case=cgo_batches())
def test_build_residual_is_scaled_step_residual(case):
    # the residual on request of a build is the largest step |A_k z_(k+1) -
    # rhs_k| over its kept levels in marching order, one step at a time as
    # below, over max(1, max |source|), the source a column of the batch's
    grid, scheme, q, params, partial = case
    factory = CGOFactory(grid, q, scheme, partial=partial)
    batch = [factory.build(p) for p in params]
    order = slice(None) if params[0].direction == "forward" else slice(None, None, -1)
    _, src, trace = cgo.RemainderMarch(factory, params).fields(slice(None))
    prop = factory.propagator(params[0])
    for j, sol in enumerate(batch):
        z, source = sol.z.values.reshape(grid.n_levels, -1)[order], src[order, :, j]
        worst = 0.0
        for k in range(grid.nt):
            A, M, _ = system(prop, k)
            s = source[k + 1] if scheme == "be" else 0.5 * source[k + 1] + 0.5 * source[k]
            rhs = M @ z[k] + grid.dt * s
            rhs[prop.boundary_idx] = 0.0 if trace is None else trace[order, :, j][k + 1]
            worst = max(worst, np.max(np.abs(A @ z[k + 1] - rhs)))
        assert _same(factory.residual(sol), float(worst / max(1.0, np.max(np.abs(source)))))


def test_remainder_march_rejects_mixed_probes():
    grid = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [5, 5], 4, 0.5)
    factory = CGOFactory(grid, 1.0)
    first = CGOParameters.make(8.0, (1.0, 0.0))
    for other in (
        CGOParameters.make(16.0, (1.0, 0.0)),
        CGOParameters.make(8.0, (0.0, 1.0)),
        CGOParameters.make(8.0, (1.0, 0.0), aperture=0.2),
        first.matched_backward(),
    ):
        with pytest.raises(CGOError, match="one \\(rho, omega, direction, aperture\\)"):
            cgo.RemainderMarch(factory, [first, other])


@settings(max_examples=25, deadline=None)
@given(grid=grids(), scheme=st.sampled_from(("be", "cn")), partial=st.booleans(),
       aperture=st.floats(0.0, 0.5), rho=st.floats(1.0, 32.0), n_xi=st.integers(0, 2),
       n_tau=st.integers(0, 2), shared_q=st.booleans(), seed=st.integers(0, 2**16))
def test_batched_sweep_matches_probe_loop(grid, scheme, partial, aperture, rho, n_xi, n_tau,
                                          shared_q, seed):
    # the level-by-level march of every marched probe of an omega against
    # the one-probe-at-a-time sweep: the potential path (truth-side stepper,
    # volume diagnostics) and the Taylor path (the factory's own stepper);
    # the reference marches every lattice point, so the probes copied as
    # conjugates meet independently marched twins
    rng = np.random.default_rng(seed)
    q_truth = Field(grid, rng.uniform(0.0, 2.0, (grid.n_levels, *grid.nx)), "Q")
    q_ref = Field(grid, rng.uniform(0.0, 2.0, (grid.n_levels, *grid.nx)), "Q")
    factory = CGOFactory(grid, q_ref, scheme, partial=partial)
    if shared_q:
        coefficient = rng.standard_normal((grid.n_levels, *grid.nx))
        got = _sweep_probes(grid, factory, factory.q, coefficient, rho, n_xi, n_tau, partial,
                            aperture)
        ref = ref_sweep_probes(grid, factory, q_ref, coefficient, rho, n_xi, n_tau, partial,
                               aperture)
    else:
        coefficient = potential_values(grid, q_ref) - potential_values(grid, q_truth)
        got = synthesize_potential_probes(
            grid, q_truth, q_ref, rho=rho, scheme=scheme,
            mode="partial" if partial else "full", aperture=aperture, n_xi=n_xi,
            n_tau=n_tau, keep_diagnostics=True,
        )
        ref = ref_sweep_probes(grid, factory, q_truth, coefficient, rho, n_xi, n_tau,
                               partial, aperture, dq=coefficient)
    assert len(got) == len(ref)
    for probe, (params, dn, volume, remainder, warnings) in zip(got, ref):
        assert probe.params == params
        assert probe.remainder_fwd == remainder
        assert probe.warnings == warnings
        assert np.max(np.abs(probe.dn_difference - dn)) <= 1e-13 * max(1e-300, np.max(np.abs(dn)))
        if volume is not None:
            assert abs(probe.volume_functional - volume) <= 1e-13 * abs(volume)


@settings(max_examples=50, deadline=None)
@given(grid=grids(), angle=st.floats(0.0, 2 * math.pi), n_xi=st.integers(0, 3),
       n_tau=st.integers(0, 3))
def test_frequency_lattice_reversed_is_negated(grid, angle, n_xi, n_tau):
    # the probe sweep pairs lattice point i with its conjugate n - 1 - i
    for omega in [(1.0,)] if grid.dim == 1 else [(1.0, 0.0), (0.0, 1.0),
                                                 (math.cos(angle), math.sin(angle))]:
        lattice = frequency_lattice(grid, omega, n_xi, n_tau)
        assert len(lattice) == (2 * n_xi + 1 if grid.dim == 2 else 1) * (2 * n_tau + 1)
        for (xi, tau), (xi_r, tau_r) in zip(lattice, lattice[::-1]):
            assert xi_r == tuple(-v for v in xi) and tau_r == -tau


@settings(max_examples=50, deadline=None)
@given(grid=grids(), n_xi=st.integers(0, 2), n_tau=st.integers(0, 2),
       alpha=st.sampled_from((1e-8, 1e-6, 1e-3)), seed=st.integers(0, 2**16))
def test_separable_synthesis_matches_triple_loop(grid, n_xi, n_tau, alpha, seed):
    # frequencies the grid resolves: phi_rho vanishes at t = 0 and T, leaving
    # nt - 1 levels, and the lattice is periodic over nx - 1 cells; aliased
    # modes make the fit rank-deficient, where rounding grows by up to 1/alpha
    assume(grid.nt - 1 > 2 * n_tau and min(grid.nx) - 1 > 2 * n_xi)
    rng = np.random.default_rng(seed)
    omegas = [(1.0,)] if grid.dim == 1 else [(1.0, 0.0), (0.0, 1.0)]
    sset = FourierSampleSet(grid)
    for omega in omegas:
        rho = float(rng.uniform(4.0, 64.0))
        for xi, tau in frequency_lattice(grid, omega, n_xi, n_tau):
            value = complex(rng.standard_normal(), rng.standard_normal())
            sset.samples.append(FourierSample(omega, xi, tau, value, rho))
    ref = ref_synthesize(sset, alpha)
    got = sset.synthesize(alpha).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
