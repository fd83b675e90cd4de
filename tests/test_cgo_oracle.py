"""Broadcast CGO fields and the separable Fourier synthesis against
level-by-level reference code on random grids.

The reference functions below build each plane wave once per time level and
the synthesis design matrix by a samples x modes x levels loop: the plain
quadrature the production code factors.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pipl.cgo import CGOFactory, CGOParameters, phi_rho, product_symbol, ramp, theta_field
from pipl.grid import Field, SpaceTimeGrid
from pipl.recon.fourier import FourierSample, FourierSampleSet, frequency_lattice


def ref_spatial_phase(params, grid):
    meshes = grid.meshes()
    s = params.xi[0] * meshes[0]
    if grid.dim == 2:
        s = s + params.xi[1] * meshes[1]
    return s


def ref_phase(params, s, t):
    return np.exp(-1j * (s + params.tau * t))


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


@st.composite
def grids(draw):
    dim = draw(st.sampled_from((1, 2)))
    lower = [draw(st.floats(-1.0, 1.0)) for _ in range(dim)]
    upper = [lo + draw(st.floats(0.5, 2.0)) for lo in lower]
    nx = [draw(st.integers(4, 10)) for _ in range(dim)]
    return SpaceTimeGrid.make(lower, upper, nx, draw(st.integers(2, 10)), draw(st.floats(0.1, 1.0)))


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
        k = draw(st.floats(-8.0, 8.0))
        xi = (-k * omega[1], k * omega[0])
    params = CGOParameters.make(
        draw(st.floats(1.0, 64.0)), omega, xi=xi, tau=draw(st.floats(-20.0, 20.0)),
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
    assert np.array_equal(theta_field(grid, params).values, ref_theta(grid, params))
    factory = CGOFactory(grid, q, partial=partial)
    assert np.array_equal(factory._source(params), ref_source(grid, factory.q_levels, params))
    if params.direction == "forward":
        bwd = params.matched_backward()
        assert np.array_equal(product_symbol(params, bwd, grid).values,
                              ref_product_symbol(params, grid))


@settings(max_examples=40, deadline=None)
@given(case=cgo_cases())
def test_cgo_discrete_residual_small(case):
    grid, q, params, partial = case
    sol = CGOFactory(grid, q, partial=partial).build(params)
    assert sol.residual < 1e-10


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
            sset.add(FourierSample(omega, xi, tau, value, rho))
    ref = ref_synthesize(sset, alpha)
    got = sset.synthesize(alpha).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
