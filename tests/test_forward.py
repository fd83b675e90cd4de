import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pipl.grid import (
    BoundaryPortion,
    Field,
    SpaceTimeGrid,
    field_from_function,
    norm,
    omega_slice,
    resolve_portion,
    zero_field,
)
from pipl import forward
from pipl.model import CLASS_A, DiffusionTensor, Nonlinearity
from pipl.forward import (
    SCHEMES,
    CompatibilityError,
    Propagator,
    _diffusion_at_midpoints,
    _newton,
    assemble_operator,
    solve_linear,
    solve_semilinear,
)


def grid1d(nx=65, nt=64, T=0.1):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def heat_oracle(grid, c=0.0):
    """u = exp(-(pi^2 + c) t) sin(pi x) solves u_t - u_xx + c u = 0."""
    return field_from_function(
        grid, lambda x, t: np.exp(-(math.pi**2 + c) * t) * np.sin(math.pi * x), "Q"
    )


def sin_initial(grid):
    return field_from_function(grid, lambda x: np.sin(math.pi * x), "Omega")


def rel_l2q(a, b):
    return norm(a - b, "L2Q") / norm(b, "L2Q")


def test_zero_data_gives_zero():
    g = grid1d(nx=17, nt=8)
    rep = solve_linear(g)
    assert np.all(rep.solution.values == 0.0)


def test_heat_oracle_cn():
    g = grid1d(nx=65, nt=64)
    rep = solve_linear(g, g=sin_initial(g), scheme="cn")
    assert rel_l2q(rep.solution, heat_oracle(g)) < 2e-3


def test_heat_oracle_with_constant_potential():
    g = grid1d(nx=65, nt=64)
    c = 3.0
    rep = solve_linear(g, q=c, g=sin_initial(g), scheme="cn")
    assert rel_l2q(rep.solution, heat_oracle(g, c)) < 2e-3


def test_convergence_order_cn():
    errs, hs = [], []
    for nx, nt in ((17, 16), (33, 32), (65, 64)):
        g = grid1d(nx=nx, nt=nt)
        rep = solve_linear(g, g=sin_initial(g), scheme="cn")
        errs.append(norm(rep.solution - heat_oracle(g), "L2Q"))
        hs.append(g.h[0])
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 1.8


def test_convergence_order_be_in_time():
    errs, dts = [], []
    for nt in (32, 64, 128):
        g = grid1d(nx=257, nt=nt)
        rep = solve_linear(g, g=sin_initial(g), scheme="be")
        errs.append(norm(rep.solution - heat_oracle(g), "L2Q"))
        dts.append(g.dt)
    rate = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert rate >= 0.9


def test_energy_decay():
    g = grid1d(nx=33, nt=32, T=0.5)
    g0 = field_from_function(g, lambda x: np.sin(math.pi * x) + 0.5 * np.sin(3 * math.pi * x), "Omega")
    rep = solve_linear(g, q=1.0, g=g0)
    norms = [norm(omega_slice(rep.solution, k), "L2Omega") for k in range(g.n_levels)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_determinism():
    g = grid1d(nx=33, nt=16)
    r1 = solve_linear(g, q=2.0, g=sin_initial(g), scheme="cn")
    r2 = solve_linear(g, q=2.0, g=sin_initial(g), scheme="cn")
    assert np.array_equal(r1.solution.values, r2.solution.values)


def test_compatibility_enforced():
    g = grid1d(nx=17, nt=8)
    bad_g = field_from_function(g, lambda x: np.cos(math.pi * x), "Omega")  # = 1 at x=0
    with pytest.raises(CompatibilityError):
        solve_linear(g, g=bad_g)


def test_inhomogeneous_boundary_data():
    # steady state: u = x is a solution with f = x on the boundary, g = x
    g = grid1d(nx=33, nt=16, T=0.3)
    f = field_from_function(g, lambda x, t: x, "Sigma",
                            resolve_portion(g, BoundaryPortion.full()))
    g0 = field_from_function(g, lambda x: x, "Omega")
    rep = solve_linear(g, f=f, g=g0)
    exact = field_from_function(g, lambda x, t: x + 0 * t, "Q")
    assert norm(rep.solution - exact, "L2Q") < 1e-10


def test_manufactured_source_2d():
    # u = sin(pi x) sin(pi y) exp(-t): u_t - lap u = (2 pi^2 - 1) u
    g = SpaceTimeGrid.make([0, 0], [1, 1], [21, 21], 32, 0.2)
    exact = field_from_function(
        g, lambda x, y, t: np.sin(math.pi * x) * np.sin(math.pi * y) * np.exp(-t), "Q"
    )
    src = Field(g, (2 * math.pi**2 - 1) * exact.values, "Q")
    g0 = field_from_function(g, lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y), "Omega")
    rep = solve_linear(g, g=g0, source=src, scheme="cn")
    assert rel_l2q(rep.solution, exact) < 5e-3


def test_anisotropic_2d_steady_state():
    # constant-coefficient anisotropic tensor, linear steady state u = x + 2y
    g = SpaceTimeGrid.make([0, 0], [1, 1], [13, 13], 8, 0.2)
    gamma = DiffusionTensor.matrix2d("1", "0.3", "0.8", rho0=0.5)
    f = field_from_function(g, lambda x, y, t: x + 2 * y, "Sigma",
                            resolve_portion(g, BoundaryPortion.full()))
    g0 = field_from_function(g, lambda x, y: x + 2 * y, "Omega")
    rep = solve_linear(g, gamma=gamma, f=f, g=g0)
    exact = field_from_function(g, lambda x, y, t: x + 2 * y + 0 * t, "Q")
    assert norm(rep.solution - exact, "L2Q") < 1e-9


def test_semilinear_zero_nonlinearity_matches_linear():
    g = grid1d(nx=33, nt=16)
    lin = solve_linear(g, g=sin_initial(g))
    semi = solve_semilinear(g, None, Nonlinearity.zero(), g=sin_initial(g))
    assert semi.converged
    assert np.allclose(semi.solution.values, lin.solution.values, atol=1e-12)


def test_semilinear_linear_potential_consistency():
    g = grid1d(nx=33, nt=16)
    q = field_from_function(g, lambda x, t: 1.0 + x + 0 * t, "Q")
    lin = solve_linear(g, q=q, g=sin_initial(g))
    nl = Nonlinearity.linear_potential("1 + x")
    semi = solve_semilinear(g, None, nl, g=sin_initial(g))
    assert semi.converged
    assert norm(semi.solution - lin.solution, "L2Q") < 1e-8


def test_semilinear_cubic_self_convergence():
    # picard solution on a coarse grid vs a 4x refined reference
    coarse = grid1d(nx=33, nt=16, T=0.1)
    fine = grid1d(nx=129, nt=64, T=0.1)
    nl = Nonlinearity.parse("u^3")
    g0c = field_from_function(coarse, lambda x: 0.1 * np.sin(math.pi * x), "Omega")
    g0f = field_from_function(fine, lambda x: 0.1 * np.sin(math.pi * x), "Omega")
    rc = solve_semilinear(coarse, None, nl, g=g0c, scheme="cn")
    rf = solve_semilinear(fine, None, nl, g=g0f, scheme="cn")
    # compare on the coarse nodes
    ref = rf.solution.values[::4, ::4]
    num = rc.solution.values
    rel = np.linalg.norm(num - ref) / np.linalg.norm(ref)
    assert rc.converged and rf.converged
    assert rel < 0.01


def test_newton_residual_history_per_level():
    g = grid1d(nx=33, nt=32, T=0.1)
    nl = Nonlinearity.parse("u^3 + 0.5*u^2")
    g0 = field_from_function(g, lambda x: 0.3 * np.sin(math.pi * x), "Omega")
    rep = solve_semilinear(g, None, nl, g=g0)
    assert rep.converged and not rep.warnings
    # one scaled last Newton update per time level, each below the tolerance;
    # quadratic convergence needs only a few iterations per level
    assert len(rep.residual_history) == g.nt
    assert max(rep.residual_history) <= 1e-10
    assert g.nt < rep.iterations <= 4 * g.nt


def _theta_residual(grid, gamma, nl, u, scheme):
    """Largest scaled interior residual of the theta-scheme equations
    u_{k+1} - u_k + dt (theta F_{k+1} + (1 - theta) F_k) = 0 with
    F_k = L_k u_k + a(x, t_k, u_k), rebuilt from assemble_operator."""
    theta = SCHEMES[scheme]
    interior = grid.interior_mask()
    meshes = grid.meshes()
    xs = meshes[0].reshape(-1)
    ys = meshes[1].reshape(-1) if grid.dim == 2 else 0.0
    flat = u.reshape(grid.n_levels, -1)

    def F(k):
        t = k * grid.dt
        a = np.broadcast_to(nl(xs, t, flat[k], y=ys), flat[k].shape)
        return assemble_operator(grid, gamma, t) @ flat[k] + np.where(interior, a, 0.0)

    worst = 0.0
    for k in range(grid.nt):
        r = flat[k + 1] - flat[k] + grid.dt * (theta * F(k + 1) + (1 - theta) * F(k))
        scale = max(1.0, float(np.max(np.abs(flat[k + 1]))))
        worst = max(worst, float(np.max(np.abs(r[interior]))) / scale)
    return worst


NONAFFINE = ("u^3", "u^3 + 0.5*u^2", "sin(u) + x*u^2", "u^3 + 1 + x*t")
AFFINE = ("0", "(1 + x)*u", "2*x", "sin(t)*u - exp(x) + 0.5")


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    n=st.integers(5, 11),
    nt=st.integers(2, 8),
    T=st.floats(0.05, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    gamma_src=st.sampled_from((None, "1 + 0.3*x", "1 + 0.2*t")),
    amp=st.floats(0.0, 1.0),
    f_amp=st.floats(0.0, 0.5),
    nonaffine=st.sampled_from(NONAFFINE),
    affine=st.sampled_from(AFFINE),
)
def test_semilinear_property_random_grids(
    dim, n, nt, T, scheme, gamma_src, amp, f_amp, nonaffine, affine
):
    grid = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, [n] * dim, nt, T)
    gamma = None if gamma_src is None else DiffusionTensor.scalar(gamma_src)
    g0 = zero_field(grid, "Omega")
    g0.values[:] = amp * np.prod([np.sin(math.pi * m) for m in grid.meshes()], axis=0)
    nb = len(grid.boundary_flat_indices())
    f = f_amp * np.outer(grid.times() / T, np.linspace(-1.0, 1.0, nb))

    # Newton satisfies the discrete equations at every level
    nl = Nonlinearity.parse(nonaffine, tag=CLASS_A)
    rep = solve_semilinear(grid, gamma, nl, f=f, g=g0, scheme=scheme)
    assert rep.converged
    assert _theta_residual(grid, gamma, nl, rep.solution.values, scheme) <= 1e-10
    bd = grid.boundary_flat_indices()
    assert np.allclose(rep.solution.values.reshape(grid.n_levels, -1)[:, bd], f, atol=1e-12)

    # an affine term is one linear sweep, equal to Newton on the same equations
    nl = Nonlinearity.parse(affine, tag=CLASS_A)
    sweep = solve_semilinear(grid, gamma, nl, f=f, g=g0, scheme=scheme)
    newton = _newton(grid, gamma, nl, f[..., None], g0, scheme, 1e-10, 30)
    assert newton.converged.all()
    newton_values = newton.values[..., 0].reshape(sweep.solution.values.shape)
    scale = max(1.0, float(np.max(np.abs(newton_values))))
    assert np.max(np.abs(sweep.solution.values - newton_values)) <= 1e-12 * scale
    assert _theta_residual(grid, gamma, nl, sweep.solution.values, scheme) <= 1e-10


def test_newton_cap_reports_unconverged():
    g = grid1d(nx=17, nt=8, T=0.1)
    nl = Nonlinearity.parse("u^3")
    g0 = field_from_function(g, lambda x: 0.5 * np.sin(math.pi * x), "Omega")
    rep = solve_semilinear(g, None, nl, g=g0, max_iter=1)
    assert rep.converged is False
    assert rep.iterations == g.nt
    assert any("newton stalled" in w for w in rep.warnings)
    assert solve_semilinear(g, None, nl, g=g0).converged is True


def test_semilinear_propagator_builds(monkeypatch):
    # an affine term is one sweep (one Propagator); Newton builds none
    built = []

    class Counting(Propagator):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(forward, "Propagator", Counting)
    g = grid1d(nx=17, nt=8, T=0.1)
    g0 = sin_initial(g)
    solve_semilinear(g, None, Nonlinearity.linear_potential("1 + x"), g=g0)
    assert len(built) == 1
    solve_semilinear(g, None, Nonlinearity.parse("u^3"), g=g0)
    assert len(built) == 1


def test_smallness_gate_warns_but_solves():
    g = grid1d(nx=17, nt=8)
    nl = Nonlinearity.parse("0.01*u^2")
    big = field_from_function(g, lambda x: 5.0 * np.sin(math.pi * x), "Omega")
    rep = solve_semilinear(g, None, nl, g=big)
    assert any("smallness gate" in w for w in rep.warnings)
    assert rep.converged


# -- step matrices against the node-loop builder -------------------------------


def _loop_operator(grid, gamma, q_level, t, advection=None):
    """Node-by-node assembly of L = -div(gamma grad) + advection . grad + q on
    interior rows, boundary rows zero: the reference for assemble_operator."""
    n = grid.n_space
    samples = _diffusion_at_midpoints(grid, gamma, t)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    if grid.dim == 1:
        nx = grid.nx[0]
        h = grid.h[0]
        gm = samples["g11_mid"]
        a = float(advection[0]) if advection is not None else 0.0
        for i in range(1, nx - 1):
            gl, gr = gm[i - 1], gm[i]
            add(i, i - 1, -gl / h**2 - a / (2 * h))
            add(i, i, (gl + gr) / h**2)
            add(i, i + 1, -gr / h**2 + a / (2 * h))
    else:
        nx, ny = grid.nx
        hx, hy = grid.h
        g11, g22, g12 = samples["g11_midx"], samples["g22_midy"], samples["g12_node"]
        ax = float(advection[0]) if advection is not None else 0.0
        ay = float(advection[1]) if advection is not None else 0.0
        has_cross = bool(np.any(g12 != 0.0))

        def fi(i, j):
            return i * ny + j

        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                r = fi(i, j)
                gl, gr = g11[i - 1, j], g11[i, j]
                gb, gt = g22[i, j - 1], g22[i, j]
                add(r, fi(i - 1, j), -gl / hx**2 - ax / (2 * hx))
                add(r, fi(i + 1, j), -gr / hx**2 + ax / (2 * hx))
                add(r, fi(i, j - 1), -gb / hy**2 - ay / (2 * hy))
                add(r, fi(i, j + 1), -gt / hy**2 + ay / (2 * hy))
                add(r, r, (gl + gr) / hx**2 + (gb + gt) / hy**2)
                if has_cross:
                    cxy = 1.0 / (4 * hx * hy)
                    for si in (-1, 1):
                        for sj in (-1, 1):
                            coeff = -si * sj * cxy * (g12[i + si, j] + g12[i, j + sj])
                            add(r, fi(i + si, j + sj), coeff)

    L = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    diag = np.zeros(n)
    interior = grid.interior_mask()
    diag[interior] = np.asarray(q_level, dtype=float).reshape(-1)[interior]
    return (L + sp.diags(diag)).tocsr()


def _loop_step_matrices(prop):
    """A_k and M_k from per-level node-loop operators with the Dirichlet rows
    rewritten through LIL: the reference for Propagator's step matrices."""
    g = prop.grid
    dt, theta = g.dt, prop.theta
    eye = sp.identity(g.n_space, format="csr")
    bd = prop.boundary_idx
    Ls = [
        _loop_operator(g, prop.gamma, prop.q_levels[k], k * dt, prop.advection)
        for k in range(g.n_levels)
    ]
    A_list, M_list = [], []
    for k in range(g.nt):
        A = (eye + dt * theta * Ls[k + 1]).tolil()
        A[bd, :] = 0.0
        A[bd, bd] = 1.0
        M = (eye - dt * (1 - theta) * Ls[k]).tolil()
        M[bd, :] = 0.0
        A_list.append(A.tocsc())
        M_list.append(M.tocsr())
    return A_list, M_list


def test_step_matrices_drop_exact_zero_diagonals():
    # Crank-Nicolson with dt = h^2 (h = 1/8) makes 1 - dt/2 * 2/h^2 exactly
    # zero on the interior diagonal of M wherever q = 0: the entry is dropped,
    # as the sparse sum the pattern fill replaces drops it, and kept where q > 0
    g = SpaceTimeGrid.make([0.0], [1.0], [9], 32, 0.5)
    q = field_from_function(g, lambda x, t: 0.0 * x + (t > 0.25), "Q")
    prop = Propagator(g, None, q, "cn")
    _, M_ref = _loop_step_matrices(prop)
    for k in (0, g.nt - 1):
        M = prop.M_list[k]
        assert np.array_equal(M.toarray(), M_ref[k].toarray())
        assert M.nnz == np.count_nonzero(M.toarray())
    assert prop.M_list[0].nnz < prop.M_list[-1].nnz


# cell Peclet numbers far above 1 on every grid drawn below: some rows of A
# lose diagonal dominance even at the smallest dt theta
STRONG_ADVECTION = (-120.0, 60.0)


def _row_dominant(A):
    """Whether every row's |diagonal| is at least its off-diagonal absolute sum."""
    d = np.abs(A.diagonal())
    return bool(np.all(d >= np.asarray(abs(A).sum(axis=1)).ravel() - d))


GAMMAS = {
    "identity": lambda dim: DiffusionTensor.identity(),
    "scalar": lambda dim: DiffusionTensor.scalar("1 + 0.3*x"),
    "matrix": lambda dim: DiffusionTensor.matrix2d("1 + 0.2*y", "0.1 + 0.2*x + 0.1*y*y", "0.9"),
    "time": lambda dim: (
        DiffusionTensor.scalar("1 + 0.2*t + 0.1*x")
        if dim == 1
        else DiffusionTensor.matrix2d("1", "0.05 + 0.1*t*x + 0.1*y", "0.9 + 0.1*t")
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    nx=st.integers(4, 10),
    ny=st.integers(4, 10),
    nt=st.integers(2, 6),
    T=st.floats(0.05, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    gamma_kind=st.sampled_from(sorted(GAMMAS)),
    advection=st.sampled_from((None, (-3.5, 1.25), STRONG_ADVECTION)),
    q_kind=st.sampled_from(("none", "scalar", "time")),
    seed=st.integers(0, 2**16),
)
def test_step_matrices_match_loop_oracle(
    dim, nx, ny, nt, T, scheme, gamma_kind, advection, q_kind, seed
):
    assume(dim == 2 or gamma_kind != "matrix")
    grid = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, [nx, ny][:dim], nt, T)
    gamma = GAMMAS[gamma_kind](dim)
    advection = advection and advection[:dim]
    q = {
        "none": None,
        "scalar": 1.3,
        "time": field_from_function(grid, lambda *a: 1.0 + a[0] * a[-1] + 0.5 * a[-2], "Q"),
    }[q_kind]
    prop = Propagator(grid, gamma, q, scheme, advection)
    A_ref, M_ref = _loop_step_matrices(prop)
    bd = prop.boundary_idx
    for k in range(nt):
        A, M = prop.A_list[k], prop.M_list[k]
        assert np.array_equal(A.toarray(), A_ref[k].toarray())
        assert np.array_equal(M.toarray(), M_ref[k].toarray())
        assert np.array_equal(A.toarray()[bd], np.eye(grid.n_space)[bd])
        assert not np.any(M.toarray()[bd])
    if advection == STRONG_ADVECTION[:dim]:
        # some row is not diagonally dominant: that step takes partial pivoting
        assert not all(_row_dominant(A) for A in prop.A_list)

    # the sweep is linear: superposition of initial values, boundary traces
    # and sources
    rng = np.random.default_rng(seed)
    nb = len(bd)

    def data():
        return dict(g0=rng.standard_normal(grid.n_space),
                    f=rng.standard_normal((grid.n_levels, nb)),
                    source=rng.standard_normal((grid.n_levels, grid.n_space)))

    a, b = data(), data()
    ua, ub = prop.run(**a), prop.run(**b)
    u_sum = prop.run(**{key: a[key] + b[key] for key in a})
    assert np.max(np.abs(ua + ub - u_sum)) <= 1e-12 * np.max(np.abs(u_sum))
    # either factorization solves its steps to rounding
    norm_A = max(abs(A).sum(axis=1).max() for A in prop.A_list)
    residual = prop.residual(ua, a["f"], a["source"])
    assert residual <= 1e-13 * norm_A * max(1.0, np.max(np.abs(ua)))


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    nx=st.integers(4, 10),
    ny=st.integers(4, 10),
    nt=st.integers(2, 6),
    T=st.floats(0.05, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    m=st.integers(1, 4),
    complex_columns=st.booleans(),
    g0_kind=st.sampled_from(("shared", "columns")),
    f_kind=st.sampled_from((None, "shared", "columns")),
    source_kind=st.sampled_from((None, "shared", "columns")),
    seed=st.integers(0, 2**16),
)
def test_batched_run_matches_columns(
    dim, nx, ny, nt, T, scheme, m, complex_columns, g0_kind, f_kind, source_kind, seed
):
    # every argument either shared by all columns or one per column; each
    # column of the batch equals its own single-column sweep
    if "columns" not in (g0_kind, f_kind, source_kind):
        g0_kind = "columns"
    grid = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, [nx, ny][:dim], nt, T)
    q = field_from_function(grid, lambda *a: 1.0 + a[0] * a[-1] + 0.5 * a[-2], "Q")
    prop = Propagator(grid, DiffusionTensor.scalar("1 + 0.3*x"), q, scheme)
    rng = np.random.default_rng(seed)

    def data(kind, *shape):
        if kind is None:
            return None
        vals = rng.standard_normal(shape + ((m,) if kind == "columns" else ()))
        if complex_columns and kind == "columns":
            vals = vals + 1j * rng.standard_normal(vals.shape)
        return vals

    def column(vals, kind, j):
        return vals[..., j] if kind == "columns" else vals

    g0 = data(g0_kind, grid.n_space)
    f = data(f_kind, grid.n_levels, len(prop.boundary_idx))
    source = data(source_kind, grid.n_levels, grid.n_space)
    if source_kind == "shared" and dim == 2:
        source = source.reshape(grid.n_levels, *grid.nx)  # space-shaped levels
    u = prop.run(g0=g0, f=f, source=source)
    assert u.shape == (grid.n_levels, grid.n_space, m)
    for j in range(m):
        ref = prop.run(g0=column(g0, g0_kind, j), f=column(f, f_kind, j),
                       source=column(source, source_kind, j))
        assert np.max(np.abs(u[..., j] - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
    # per column, the stepped systems hold to rounding, and an interior value
    # moved by 1 at the last level (where A's diagonal is >= 1) shows up in full
    norm_A = max(abs(A).sum(axis=1).max() for A in prop.A_list)
    assert np.all(prop.residual(u, f, source) <= 1e-13 * norm_A * max(1.0, np.max(np.abs(u))))
    u[-1, np.flatnonzero(prop.interior_mask)[0]] += 1.0
    assert np.all(prop.residual(u, f, source) >= 1.0 - 1e-9)


# time-dependent diagonal diffusion, each entry within [GAMMA_MIN, GAMMA_MAX]
MAX_PRINCIPLE_GAMMAS = {
    1: DiffusionTensor.scalar("1 + 0.3*sin(5*t)*x"),
    2: DiffusionTensor.matrix2d("1 + 0.3*sin(5*t)*x", "0", "0.8 + 0.2*cos(3*t)*y"),
}
GAMMA_MIN, GAMMA_MAX = 0.6, 1.3


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    nx=st.integers(4, 10),
    ny=st.integers(4, 10),
    nt=st.integers(2, 6),
    scheme=st.sampled_from(("be", "cn")),
    peclet=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    q_max=st.floats(0.0, 50.0),
    dt_fraction=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**16),
)
def test_discrete_maximum_principle(dim, nx, ny, nt, scheme, peclet, q_max, dt_fraction, seed):
    # with q >= 0, a diagonal gamma and cell Peclet |a| h / gamma <= 2 each A_k
    # is an M-matrix; with dt below the Crank-Nicolson bound each M_k >= 0:
    # then nonnegative g0, f and source give a nonnegative solution
    h = 1.0 / (np.array([nx, ny][:dim]) - 1.0)
    dt = dt_fraction * 2.0 / (2.0 * GAMMA_MAX * np.sum(h**-2.0) + q_max)
    if scheme == "be":
        dt *= 100.0  # M_k is the interior identity whatever dt
    grid = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, [nx, ny][:dim], nt, nt * dt)
    rng = np.random.default_rng(seed)
    q = Field(grid, q_max * rng.random((grid.n_levels, *grid.nx)), "Q")
    advection = tuple(p * GAMMA_MIN / hi for p, hi in zip(peclet, h))
    prop = Propagator(grid, MAX_PRINCIPLE_GAMMAS[dim], q, scheme, advection)
    for A, M in zip(prop.A_list, prop.M_list):
        A = A.toarray()
        assert np.all(A - np.diag(np.diag(A)) <= 0.0)
        assert np.all(M.toarray() >= 0.0)

    def nonnegative(*shape):
        return rng.random(shape) * (rng.random(shape) < 0.7)

    u = prop.run(g0=nonnegative(grid.n_space), f=nonnegative(grid.n_levels, len(prop.boundary_idx)),
                 source=nonnegative(grid.n_levels, grid.n_space))
    assert np.min(u) >= -1e-12 * np.max(np.abs(u))


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    n=st.integers(4, 9),
    nt=st.integers(2, 6),
    T=st.floats(0.05, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    gamma_src=st.sampled_from((None, "1 + 0.3*x", "1 + 0.2*t")),
    nonaffine=st.sampled_from(NONAFFINE),
    m=st.integers(2, 4),
    tol=st.sampled_from((1e-4, 1e-10)),
    max_iter=st.sampled_from((2, 30)),
    seed=st.integers(0, 2**16),
)
def test_batched_newton_matches_columns(
    dim, n, nt, T, scheme, gamma_src, nonaffine, m, tol, max_iter, seed
):
    # columns of very different size converge after different iteration
    # counts (or stall at max_iter = 2); a loose tolerance makes any extra
    # step on a converged column visible far above rounding
    grid = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, [n] * dim, nt, T)
    gamma = None if gamma_src is None else DiffusionTensor.scalar(gamma_src)
    nl = Nonlinearity.parse(nonaffine, tag=CLASS_A)
    g0 = zero_field(grid, "Omega")
    g0.values[:] = 0.5 * np.prod([np.sin(math.pi * x) for x in grid.meshes()], axis=0)
    rng = np.random.default_rng(seed)
    nb = len(grid.boundary_flat_indices())
    amps = np.array([0.0, 2.0, 0.01, 1.0])[:m]
    f = (grid.times() / T)[:, None, None] ** 2 * rng.uniform(0.5, 1.0, (nb, m)) * amps
    batch = _newton(grid, gamma, nl, f, g0, scheme, tol, max_iter)
    assert batch.values.shape == (grid.n_levels, grid.n_space, m)
    for j in range(m):
        ref = _newton(grid, gamma, nl, f[..., j:j + 1], g0, scheme, tol, max_iter)
        scale = max(1.0, float(np.max(np.abs(ref.values))))
        assert np.max(np.abs(batch.values[..., j] - ref.values[..., 0])) <= 1e-13 * scale
        assert batch.column_iterations[j] == ref.iterations
        assert batch.converged[j] == ref.converged[0]
        assert np.array_equal(batch.stalled[:, j], ref.stalled[:, 0])
    assert batch.iterations == int(batch.column_iterations.sum())


# -- the 1D LAPACK path against SuperLU -----------------------------------------


def _splu_steps(prop, u, f, source):
    """Each step of Propagator.run redone from the levels u it produced: the
    node-loop step matrices, each A_k factored by SuperLU with partial
    pivoting, stepping u[k] to the reference for u[k + 1]."""
    g = prop.grid
    A_ref, M_ref = _loop_step_matrices(prop)
    ref = np.zeros_like(u)
    for k in range(g.nt):
        rhs = M_ref[k] @ u[k] + g.dt * (prop.theta * source[k + 1] + (1 - prop.theta) * source[k])
        rhs[prop.boundary_idx] = f[k + 1]
        ref[k + 1] = spla.splu(A_ref[k]).solve(rhs)
    return ref


def _spsolve_newton(grid, gamma, nl, f, g0, scheme, tol, max_iter):
    """_newton for one column, with the Jacobian I + dt theta (L + diag(d_u a))
    built per iteration and solved by spsolve."""
    theta, dt, n = SCHEMES[scheme], grid.dt, grid.n_space
    bd = grid.boundary_flat_indices()
    interior = grid.interior_mask()
    x = grid.axis(0)

    def a(level, v, k):
        return np.where(interior, np.broadcast_to(nl(x, level * dt, v, k=k), (n,)), 0.0)

    u = np.zeros((grid.n_levels, n))
    u[0] = g0
    u[0, bd] = f[0]
    for k in range(grid.nt):
        L0, L1 = (assemble_operator(grid, gamma, level * dt) for level in (k, k + 1))
        rhs = u[k] - dt * (1 - theta) * (L0 @ u[k] + a(k, u[k], 0))
        v = u[k].copy()
        for _ in range(max_iter):
            res = v + dt * theta * (L1 @ v + a(k + 1, v, 0)) - rhs
            res[bd] = v[bd] - f[k + 1]
            J = sp.identity(n) + dt * theta * (L1 + sp.diags(a(k + 1, v, 1)))
            delta = spla.spsolve(J.tocsc(), res)
            v -= delta
            if np.max(np.abs(delta)) <= tol * max(1.0, np.max(np.abs(v))):
                break
        u[k + 1] = v
    return u


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(4, 24),
    nt=st.integers(2, 6),
    T=st.floats(0.05, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    gamma_kind=st.sampled_from(("identity", "scalar", "time")),
    advection=st.sampled_from((None, (-3.5,), STRONG_ADVECTION[:1])),
    q_kind=st.sampled_from(("none", "time", "negative")),
    seed=st.integers(0, 2**16),
)
def test_tridiagonal_run_matches_superlu(nx, nt, T, scheme, gamma_kind, advection, q_kind, seed):
    grid = SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)
    ca = grid.dt * SCHEMES[scheme]
    q = {
        "none": None,
        "time": field_from_function(grid, lambda x, t: 1.0 + 3.0 * x * t, "Q"),
        # 1 + dt theta q < 0: no interior row is diagonally dominant; as the
        # Dirichlet operator's least eigenvalue is >= 8 (gamma >= 1), without
        # advection A_k's interior block stays positive definite, its
        # condition below 2 / h^2
        "negative": field_from_function(grid, lambda x, t: -1.0 / ca - 2.0 - 3.0 * x * t, "Q"),
    }[q_kind]
    prop = Propagator(grid, GAMMAS[gamma_kind](1), q, scheme, advection)
    if q_kind == "negative" or advection == STRONG_ADVECTION[:1]:
        assert not all(_row_dominant(A) for A in prop.A_list)
    rng = np.random.default_rng(seed)
    g0 = rng.standard_normal(grid.n_space)
    f = rng.standard_normal((grid.n_levels, len(prop.boundary_idx)))
    source = rng.standard_normal((grid.n_levels, grid.n_space))
    u = prop.run(g0=g0, f=f, source=source)
    ref = _splu_steps(prop, u, f, source)
    for k in range(1, grid.n_levels):
        assert np.max(np.abs(u[k] - ref[k])) <= 1e-12 * np.max(np.abs(ref[k]))


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(3, 40),
    nt=st.integers(2, 6),
    T=st.floats(0.01, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    gamma_src=st.sampled_from((None, "1 + 0.3*x", "1 + 0.2*t + 0.1*x")),
    # d_u a = 3 u^2 - 6 leaves the Jacobian's rows without dominance once
    # dt theta > 1/6, while -6 stays above minus the Dirichlet operator's
    # least eigenvalue (>= 8 for gamma >= 1), so every step has one solution
    nonaffine=st.sampled_from(NONAFFINE + ("u^3 - 6*u",)),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_tridiagonal_newton_matches_spsolve(nx, nt, T, scheme, gamma_src, nonaffine, m, seed):
    grid = SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)
    gamma = None if gamma_src is None else DiffusionTensor.scalar(gamma_src)
    nl = Nonlinearity.parse(nonaffine, tag=CLASS_A)
    g0 = zero_field(grid, "Omega")
    g0.values[:] = 0.5 * np.sin(math.pi * grid.axis(0))
    rng = np.random.default_rng(seed)
    nb = len(grid.boundary_flat_indices())
    f = (grid.times() / T)[:, None, None] ** 2 * rng.uniform(0.0, 1.0, (nb, m))
    batch = _newton(grid, gamma, nl, f, g0, scheme, 1e-10, 30)
    for j in range(m):
        ref = _spsolve_newton(grid, gamma, nl, f[..., j], g0.values, scheme, 1e-10, 30)
        assert np.max(np.abs(batch.values[..., j] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_singular_tridiagonal_step_raises():
    # h = 1/2, dt = 1/4: the one interior row of A is 1 + (8 + q) / 4, exactly
    # zero at q = -12, and so is the Newton Jacobian's at u = 0 for u^3 - 12 u
    grid = SpaceTimeGrid.make([0.0], [1.0], [3], 2, 0.5)
    with pytest.raises(forward.SolverError, match="time level 0 is exactly singular"):
        Propagator(grid, None, -12.0)
    nl = Nonlinearity.parse("u^3 - 12*u", tag=CLASS_A)
    with pytest.raises(forward.SolverError, match="time level 1 is exactly singular"):
        _newton(grid, None, nl, None, zero_field(grid, "Omega"), "be", 1e-10, 30)


def test_propagator_work_counts(monkeypatch):
    # one stencil assembly per gamma level; one LU per distinct step matrix:
    # in 2D SuperLU's, in its symmetric mode exactly when the rows are
    # diagonally dominant, in 1D LAPACK's tridiagonal one whatever the rows.
    # Newton makes one solve per iteration: dgtsv in 1D, spsolve in 2D
    counts = {}
    factored = []  # (splu keyword arguments, factors) per call
    real_splu = forward.spla.splu

    def count(owner, name):
        real = getattr(owner, name)
        counts[name] = 0

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    def splu(*args, **kwargs):
        factored.append((kwargs, real_splu(*args, **kwargs)))
        return factored[-1][1]

    monkeypatch.setattr(forward.spla, "splu", splu)
    count(forward, "assemble_operator")
    count(forward.spla, "splu")
    count(forward.spla, "spsolve")
    count(forward.lapack, "dgttrf")
    count(forward.lapack, "dgtsv")

    def work(**expected):
        """Whether the counts since the last call are the expected ones, zero
        for the names not given."""
        seen = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        factored.clear()
        return seen == dict(dict.fromkeys(seen, 0), **expected)

    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [9, 9], 6, 0.2)
    q_time = field_from_function(g, lambda x, y, t: 1.0 + x * t, "Q")
    gamma = DiffusionTensor.scalar("1 + 0.3*x")
    # q = -200 leaves 1 + dt theta q < 0: no interior row is dominant
    for q, expected, mode in ((q_time, (1, g.nt), forward.SYMMETRIC_LU),
                              (2.0, (1, 1), forward.SYMMETRIC_LU),
                              (None, (1, 1), forward.SYMMETRIC_LU), (-200.0, (1, 1), {})):
        prop = Propagator(g, gamma, q, "cn", (1.0, -2.0))
        assert all(kwargs == mode for kwargs, _ in factored)
        assert all(_row_dominant(A) == bool(mode) for A in prop.A_list)
        if mode:  # one symmetric permutation of rows and columns
            assert all(np.array_equal(lu.perm_r, lu.perm_c) for _, lu in factored)
        assert work(assemble_operator=expected[0], splu=expected[1])
    Propagator(g, DiffusionTensor.scalar("1 + 0.2*t"), None)
    assert work(assemble_operator=g.n_levels, splu=g.nt)

    g1 = SpaceTimeGrid.make([0.0], [1.0], [17], 6, 0.2)
    q_time = field_from_function(g1, lambda x, t: 1.0 + x * t, "Q")
    for q, expected in ((q_time, (1, g1.nt)), (2.0, (1, 1)), (-200.0, (1, 1))):
        Propagator(g1, gamma, q, "cn", (1.0,))
        assert work(assemble_operator=expected[0], dgttrf=expected[1])
    Propagator(g1, DiffusionTensor.scalar("1 + 0.2*t"), None)
    assert work(assemble_operator=g1.n_levels, dgttrf=g1.nt)

    nl = Nonlinearity.parse("u^3", tag=CLASS_A)
    g2 = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [6, 6], 4, 0.2)
    for grid, solver in ((g1, "dgtsv"), (g2, "spsolve")):
        g0 = zero_field(grid, "Omega")
        g0.values[:] = 0.5
        res = _newton(grid, None, nl, None, g0, "be", 1e-10, 30)
        assert res.iterations > grid.nt
        assert work(assemble_operator=1, **{solver: res.iterations})
