import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import system
from pipl.grid import (
    BoundaryPortion,
    Field,
    SpaceTimeGrid,
    field_from_function,
    norm,
    resolve_portion,
    zero_field,
)
from pipl import forward
from pipl.dnmap import normal_derivative_matrix
from pipl.model import CLASS_A, CLASS_LINEAR, DiffusionTensor, ModelError, Nonlinearity
from pipl.forward import (
    SCHEMES,
    CompatibilityError,
    Propagator,
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
    norms = [norm(Field(g, rep.solution.values[k], "Omega"), "L2Omega") for k in range(g.n_levels)]
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
    nl = Nonlinearity.parse("(1 + x)*u", tag=CLASS_LINEAR)
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


@pytest.mark.parametrize("term", ["u + x", "u^3"])
def test_semilinear_unknown_scheme_raises_solver_error(term):
    # the affine term takes the linear sweep, the cubic one Newton: both
    # reject the scheme before either runs
    g = grid1d(nx=9, nt=4)
    with pytest.raises(forward.SolverError, match="unknown scheme 'bee'"):
        solve_semilinear(g, None, Nonlinearity.parse(term), scheme="bee")


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
    solve_semilinear(g, None, Nonlinearity.parse("(1 + x)*u", tag=CLASS_LINEAR), g=g0)
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
    interior rows, boundary rows zero, with gamma sampled point by point at
    the cell midpoints (its diagonal entries) and at the nodes (the 2D cross
    term): the reference for assemble_operator."""
    n = grid.n_space
    gamma = gamma if gamma is not None else DiffusionTensor.identity()
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    def gam(i, j, *point):
        return float(gamma.component(i, j, *point, t=t))

    if grid.dim == 1:
        nx = grid.nx[0]
        h = grid.h[0]
        x = grid.axis(0)
        a = float(advection[0]) if advection is not None else 0.0
        for i in range(1, nx - 1):
            gl, gr = gam(0, 0, 0.5 * (x[i - 1] + x[i])), gam(0, 0, 0.5 * (x[i] + x[i + 1]))
            add(i, i - 1, -gl / h**2 - a / (2 * h))
            add(i, i, (gl + gr) / h**2)
            add(i, i + 1, -gr / h**2 + a / (2 * h))
    else:
        nx, ny = grid.nx
        hx, hy = grid.h
        x, y = grid.axis(0), grid.axis(1)
        ax = float(advection[0]) if advection is not None else 0.0
        ay = float(advection[1]) if advection is not None else 0.0

        def fi(i, j):
            return i * ny + j

        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                r = fi(i, j)
                gl = gam(0, 0, 0.5 * (x[i - 1] + x[i]), y[j])
                gr = gam(0, 0, 0.5 * (x[i] + x[i + 1]), y[j])
                gb = gam(1, 1, x[i], 0.5 * (y[j - 1] + y[j]))
                gt = gam(1, 1, x[i], 0.5 * (y[j] + y[j + 1]))
                add(r, fi(i - 1, j), -gl / hx**2 - ax / (2 * hx))
                add(r, fi(i + 1, j), -gr / hx**2 + ax / (2 * hx))
                add(r, fi(i, j - 1), -gb / hy**2 - ay / (2 * hy))
                add(r, fi(i, j + 1), -gt / hy**2 + ay / (2 * hy))
                add(r, r, (gl + gr) / hx**2 + (gb + gt) / hy**2)
                if gamma.is_matrix:
                    cxy = 1.0 / (4 * hx * hy)
                    for si in (-1, 1):
                        for sj in (-1, 1):
                            g12 = gam(0, 1, x[i + si], y[j]) + gam(0, 1, x[i], y[j + sj])
                            add(r, fi(i + si, j + sj), -si * sj * cxy * g12)

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
    # zero on the interior diagonal of M wherever q = 0.  The sparse sum drops
    # the entry; the 1D band keeps it, and its product is bitwise the sparse
    # one for real and complex values, one column or several
    g = SpaceTimeGrid.make([0.0], [1.0], [9], 32, 0.5)
    q = field_from_function(g, lambda x, t: 0.0 * x + (t > 0.25), "Q")
    prop = Propagator(g, None, q, "cn")
    _, M_ref = _loop_step_matrices(prop)
    rng = np.random.default_rng(0)
    for k in (0, g.nt - 1):
        M = system(prop, k)[1]
        assert np.array_equal(M.toarray(), M_ref[k].toarray())
        for shape in ((g.n_space,), (g.n_space, 3)):
            z = rng.standard_normal(shape)
            for z in (z, z + 1j * rng.standard_normal(shape)):
                assert _same(M @ z, M_ref[k] @ z)
    assert M_ref[0].nnz == np.count_nonzero(system(prop, 0)[1].toarray()) < M_ref[-1].nnz


# cell Peclet numbers far above 1 on every grid drawn below: some rows of A
# lose diagonal dominance even at the smallest dt theta
STRONG_ADVECTION = (-120.0, 60.0)


def _row_dominant(A):
    """Whether every row's |diagonal| is at least its off-diagonal absolute sum."""
    A = np.abs(A.toarray())
    return bool(np.all(np.diag(A) >= A.sum(axis=1) - np.diag(A)))


def _norm_inf(matrices):
    """The largest absolute row sum of the matrices."""
    return max(np.abs(A.toarray()).sum(axis=1).max() for A in matrices)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _interchange_free(lu):
    """Whether the band LU made no row interchange (the pivots count from 1)."""
    return np.array_equal(lu.factors[1], np.arange(1, len(lu.factors[1]) + 1))


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
        A, M, _ = system(prop, k)
        assert np.array_equal(A.toarray(), A_ref[k].toarray())
        assert np.array_equal(M.toarray(), M_ref[k].toarray())
        assert np.array_equal(A.toarray()[bd], np.eye(grid.n_space)[bd])
        assert not np.any(M.toarray()[bd])
    if advection == STRONG_ADVECTION[:dim]:
        # some row is not diagonally dominant: the LU below has to pivot
        assert not all(_row_dominant(system(prop, k)[0]) for k in range(grid.nt))

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
    norm_A = _norm_inf([system(prop, k)[0] for k in range(grid.nt)])
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
    norm_A = _norm_inf([system(prop, k)[0] for k in range(grid.nt)])
    assert np.all(prop.residual(u, f, source) <= 1e-13 * norm_A * max(1.0, np.max(np.abs(u))))
    u[-1, np.flatnonzero(prop.interior_mask)[0]] += 1.0
    assert np.all(prop.residual(u, f, source) >= 1.0 - 1e-9)


def _loop_residual(prop, u, f, source):
    """Propagator.residual one step at a time, as plain code: per step k one
    product with A_k and one with M_k, rhs_k formed as run forms it; u, f
    and source each carry the same trailing column axis, or none."""
    grid, worst = prop.grid, np.zeros(u.shape[2:])
    for k in range(grid.nt):
        A, M, _ = system(prop, k)
        rhs = M @ u[k]
        if source is not None:
            s = source[k + 1] if prop.theta == 1.0 else (
                prop.theta * source[k + 1] + (1 - prop.theta) * source[k])
            rhs = rhs + grid.dt * s
        rhs[prop.boundary_idx] = 0.0 if f is None else f[k + 1]
        worst = np.maximum(worst, np.max(np.abs(A @ u[k + 1] - rhs), axis=0))
    return worst


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    nx=st.integers(4, 9),
    ny=st.integers(4, 9),
    nt=st.integers(2, 6),
    T=st.floats(0.05, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    q_kind=st.sampled_from(("none", "scalar", "time")),
    m=st.sampled_from((None, 1, 3)),
    complex_values=st.booleans(),
    f_kind=st.sampled_from((None, "shared", "columns")),
    source_kind=st.sampled_from((None, "shared", "columns")),
    seed=st.integers(0, 2**16),
)
def test_grouped_residual_matches_step_loop(dim, nx, ny, nt, T, scheme, q_kind, m,
                                            complex_values, f_kind, source_kind, seed):
    # one A and one M product per distinct step system (all steps of a
    # time-independent stepper, one step each otherwise) gives bytewise the
    # residual of one product per step, for values that solve nothing
    grid = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, [nx, ny][:dim], nt, T)
    q = {"none": None, "scalar": 1.3,
         "time": field_from_function(grid, lambda *a: 1.0 + a[0] * a[-1], "Q")}[q_kind]
    prop = Propagator(grid, None, q, scheme, (1.5, -0.5)[:dim])
    assert prop.time_dependent == (q_kind == "time")
    rng = np.random.default_rng(seed)
    columns = () if m is None else (m,)

    def data(kind, *shape):
        if kind is None:
            return None
        vals = rng.standard_normal(shape + (columns if kind == "columns" else ()))
        return vals + 1j * rng.standard_normal(vals.shape) if complex_values else vals

    u = data("columns", grid.n_levels, grid.n_space)
    f = data(f_kind, grid.n_levels, len(prop.boundary_idx))
    source = data(source_kind, grid.n_levels, grid.n_space)
    got = prop.residual(u, f, source)
    # a shared operand meets the loop on every column
    lift = (Ellipsis,) if m is None else (Ellipsis, None)
    ref = _loop_residual(prop, u, *(a[lift] if kind == "shared" else a
                                    for a, kind in ((f, f_kind), (source, source_kind))))
    assert got.shape == ref.shape == columns and got.dtype == ref.dtype == float
    assert got.tobytes() == ref.tobytes()


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
    for A, M, _ in (system(prop, k) for k in range(grid.nt)):
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
    # counts (or stall at max_iter = 2); each column's values are bytewise
    # those of its own single-column solve, signed zeros included
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
        assert batch.values[..., j].tobytes() == ref.values[..., 0].tobytes()
        assert batch.column_iterations[j] == ref.iterations
        assert batch.converged[j] == ref.converged[0]
        assert np.array_equal(batch.stalled[:, j], ref.stalled[:, 0])
    assert batch.iterations == int(batch.column_iterations.sum())


# -- the LAPACK band paths against SuperLU and spsolve --------------------------


def _splu_steps(prop, u, f, source):
    """Each step of Propagator.run redone from the levels u it produced: the
    node-loop step matrices, each A_k factored by SuperLU with partial
    pivoting, stepping u[k] to the reference for u[k + 1].  u and f carry
    columns on a trailing axis, source is shared by them; a complex
    right-hand side is solved as its real and imaginary parts."""
    g = prop.grid
    A_ref, M_ref = _loop_step_matrices(prop)
    ref = np.zeros_like(u)
    for k in range(g.nt):
        s = g.dt * (prop.theta * source[k + 1] + (1 - prop.theta) * source[k])
        rhs = M_ref[k] @ u[k] + s[:, None]
        rhs[prop.boundary_idx] = f[k + 1]
        lu = spla.splu(A_ref[k])
        ref[k + 1] = lu.solve(rhs.real) + 1j * lu.solve(rhs.imag) if np.iscomplexobj(rhs) else lu.solve(rhs)
    return ref


def _spsolve_newton(grid, gamma, nl, f, g0, scheme, tol, max_iter):
    """_newton for one column, with the Jacobian I + dt theta (L + diag(d_u a))
    built per iteration from the node-loop operator and solved by spsolve."""
    theta, dt, n = SCHEMES[scheme], grid.dt, grid.n_space
    bd = grid.boundary_flat_indices()
    interior = grid.interior_mask()
    x, *ys = (m.reshape(-1) for m in grid.meshes())

    def a(level, v, k):
        return np.where(interior, np.broadcast_to(nl(x, level * dt, v, *ys, k=k), (n,)), 0.0)

    u = np.zeros((grid.n_levels, n))
    u[0] = g0.reshape(-1)
    u[0, bd] = f[0]
    for k in range(grid.nt):
        L0, L1 = (_loop_operator(grid, gamma, np.zeros(n), level * dt) for level in (k, k + 1))
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


# 1D grids of 4-24 nodes (3-40 for Newton) or 2D grids of 3-12 nodes per axis
BAND_GRIDS = st.one_of(st.tuples(st.integers(4, 24)),
                       st.tuples(st.integers(3, 12), st.integers(3, 12)))


@settings(max_examples=80, deadline=None)
@given(
    nx=BAND_GRIDS,
    nt=st.integers(2, 6),
    T=st.floats(0.05, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    gamma_kind=st.sampled_from(sorted(GAMMAS)),
    advection=st.sampled_from((None, (-3.5, 1.25), STRONG_ADVECTION)),
    q_kind=st.sampled_from(("none", "time", "negative")),
    m=st.integers(1, 3),
    complex_columns=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_band_run_matches_superlu(nx, nt, T, scheme, gamma_kind, advection, q_kind, m,
                                  complex_columns, seed):
    dim = len(nx)
    assume(dim == 2 or gamma_kind != "matrix")
    grid = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, list(nx), nt, T)
    ca = grid.dt * SCHEMES[scheme]
    q = {
        "none": None,
        "time": field_from_function(grid, lambda *a: 1.0 + 3.0 * a[0] * a[-1], "Q"),
        # 1 + dt theta q < 0: no interior row is diagonally dominant; as the
        # Dirichlet operator's least eigenvalue stays well above 5 for these
        # gammas, without advection A_k's interior block stays positive
        # definite, its condition below 4 / h^2
        "negative": field_from_function(grid, lambda *a: -1.0 / ca - 2.0 - 3.0 * a[0] * a[-1], "Q"),
    }[q_kind]
    advection = advection and advection[:dim]
    prop = Propagator(grid, GAMMAS[gamma_kind](dim), q, scheme, advection)
    if q_kind == "negative" or advection == STRONG_ADVECTION[:dim]:
        assert not all(_row_dominant(system(prop, k)[0]) for k in range(grid.nt))
    rng = np.random.default_rng(seed)

    def data(*shape):
        vals = rng.standard_normal((*shape, m))
        return vals + 1j * rng.standard_normal(vals.shape) if complex_columns else vals

    g0, f = data(grid.n_space), data(grid.n_levels, len(prop.boundary_idx))
    source = rng.standard_normal((grid.n_levels, grid.n_space))
    u = prop.run(g0=g0, f=f, source=source)
    ref = _splu_steps(prop, u, f, source)
    for k in range(1, grid.n_levels):
        assert np.max(np.abs(u[k] - ref[k])) <= 1e-12 * np.max(np.abs(ref[k]))
        # a 2D step that made no interchange solves its scaled Dirichlet rows
        # to the trace exactly
        if dim == 2 and _interchange_free(system(prop, k - 1)[2]):
            assert _same(u[k][prop.boundary_idx], f[k])


@settings(max_examples=50, deadline=None)
@given(
    nx=st.one_of(st.tuples(st.integers(3, 40)), st.tuples(st.integers(3, 12), st.integers(3, 12))),
    nt=st.integers(2, 6),
    T=st.floats(0.01, 0.5),
    scheme=st.sampled_from(("be", "cn")),
    gamma_kind=st.sampled_from(sorted(GAMMAS)),
    # d_u a = 3 u^2 - 6 leaves the Jacobian's rows without dominance once
    # dt theta > 1/6, while -6 stays above minus the Dirichlet operator's
    # least eigenvalue, so every step has one solution
    nonaffine=st.sampled_from(NONAFFINE + ("u^3 - 6*u",)),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_band_newton_matches_spsolve(nx, nt, T, scheme, gamma_kind, nonaffine, m, seed):
    dim = len(nx)
    assume(dim == 2 or gamma_kind != "matrix")
    grid = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, list(nx), nt, T)
    gamma = GAMMAS[gamma_kind](dim)
    nl = Nonlinearity.parse(nonaffine, tag=CLASS_A)
    g0 = zero_field(grid, "Omega")
    g0.values[:] = 0.5 * np.prod([np.sin(math.pi * x) for x in grid.meshes()], axis=0)
    rng = np.random.default_rng(seed)
    nb = len(grid.boundary_flat_indices())
    f = (grid.times() / T)[:, None, None] ** 2 * rng.uniform(0.0, 1.0, (nb, m))
    batch = _newton(grid, gamma, nl, f, g0, scheme, 1e-10, 30)
    for j in range(m):
        ref = _spsolve_newton(grid, gamma, nl, f[..., j], g0.values, scheme, 1e-10, 30)
        assert np.max(np.abs(batch.values[..., j] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_singular_tridiagonal_step_raises():
    # h = 1/2, dt = 1/4: the one interior row of A is 1 + (8 + q) / 4 in 1D
    # and 1 + (16 + q) / 4 in 2D, exactly zero at q = -12 and q = -20, and so
    # is the Newton Jacobian's at u = 0 for u^3 + q u
    for nx, q in (([3], -12.0), ([3, 3], -20.0)):
        grid = SpaceTimeGrid.make([0.0] * len(nx), [1.0] * len(nx), nx, 2, 0.5)
        with pytest.raises(forward.SolverError, match="time level 0 is exactly singular"):
            Propagator(grid, None, q)
        nl = Nonlinearity.parse(f"u^3 - {-q}*u", tag=CLASS_A)
        with pytest.raises(forward.SolverError, match="time level 1 is exactly singular"):
            _newton(grid, None, nl, None, zero_field(grid, "Omega"), "be", 1e-10, 30)


def test_tridiagonal_lapack_paths_agree(monkeypatch):
    # the band LU and Newton solves run on the ILP64 OpenBLAS that numpy's
    # wheel bundles; the scipy.linalg.lapack fallback gives bitwise the same
    # factors, pivots (scipy's dgbtrf counts them from 0) and solves, for the
    # tridiagonal routines (dgttrf taken as is, the stepper's 1D LU) and the
    # general band ones (_BandLU)
    bundled = forward._lapack()
    assert isinstance(bundled, forward._NumpyLapack)
    rng = np.random.default_rng(3)
    n = 40
    # a small main diagonal: partial pivoting swaps rows
    dl, d, du = rng.standard_normal(n - 1), 0.1 * rng.standard_normal(n), rng.standard_normal(n - 1)
    bands = [a.copy() for a in (dl, d, du)]
    tri = forward.Banded({-1: np.append(0.0, dl), 0: d, 1: np.append(du, 0.0)})
    wide = forward.Banded({o: rng.standard_normal(n) * (0.1 if o == 0 else 1.0)
                           for o in (-6, -5, -1, 0, 1, 4)})

    def factor():
        (lu,), info = forward._lapack().dgttrf(dl, d, du)
        assert info == 0
        return [lu, forward._BandLU(wide, "A")]

    lus = factor()
    monkeypatch.setattr(forward, "_lapack", forward._ScipyLapack)
    fallback = forward._lapack()
    assert isinstance(fallback, forward._ScipyLapack)
    refs = factor()
    assert all(_same(a, b) for a, b in zip(lus[0].factors[:4], refs[0].factors[:4]))
    assert np.array_equal(lus[0].factors[4], refs[0].factors[4])
    assert not np.array_equal(refs[0].factors[4], np.arange(1, n + 1))
    assert _same(lus[1].factors[0], refs[1].factors[0])
    assert np.array_equal(lus[1].factors[1], refs[1].factors[1] + 1)
    assert not np.array_equal(refs[1].factors[1], np.arange(n))
    for A, lu, ref in zip((tri, wide), lus, refs):
        for shape in ((n,), (n, 1), (n, 7)):
            rhs = rng.standard_normal(shape)
            x = lu.solve(rhs)
            assert _same(x, ref.solve(rhs))
            assert np.max(np.abs(A.toarray() @ x - rhs)) <= 1e-10 * np.max(np.abs(x))
    b = rng.standard_normal(n)
    x, info = bundled.dgtsv(dl, d.copy(), du, b)
    x_ref, info_ref = fallback.dgtsv(dl, d.copy(), du, b)
    assert info == info_ref == 0 and _same(x, x_ref)
    assert all(_same(a, b) for a, b in zip((dl, d, du), bands))  # the bands are left alone


def _per_level_march(prop, g0, f, source):
    """run's march with each step's A_k and M_k formed from the stencils of
    levels k + 1 and k and each A_k factored alone, by a dgttrf call of its
    own in 1D and a _BandLU in 2D: the reference for the stacked stepper.
    Returns the values and each step's (A_k, M_k, LU)."""
    g, theta, mask = prop.grid, prop.theta, prop.interior_mask
    dt, td = g.dt, prop.time_dependent

    def stencil(level):
        return assemble_operator(g, prop.gamma, (level if prop.gamma_td else 0) * dt,
                                 prop.advection)

    u = np.zeros((g.n_levels, *np.shape(g0)))
    u[0] = g0
    u[0, prop.boundary_idx] = f[0]
    steps = []
    for k in range(g.nt):
        new, old = (k + 1, k) if td else (0, 0)
        s_new, s_old = stencil(new), stencil(old)
        q = np.where(mask, prop.q_levels[[new, old]], 0.0)
        A = forward.Banded({**s_new.scaled(dt * theta).bands,
                            0: 1.0 + dt * theta * (s_new.bands[0] + q[0])})
        M = forward.Banded({**s_old.scaled(-dt * (1 - theta)).bands, 0: np.where(
            mask, 1.0 - dt * (1 - theta) * (s_old.bands[0] + q[1]), 0.0)})
        if g.dim == 1:
            (lu,), info = forward._lapack().dgttrf(A.bands[-1][1:], A.bands[0], A.bands[1][:-1])
            assert info == 0
        else:
            lu = forward._BandLU(A, "A")
        s = source[k + 1] if theta == 1.0 else theta * source[k + 1] + (1 - theta) * source[k]
        rhs = M @ u[k] + dt * s
        rhs[prop.boundary_idx] = f[k + 1]
        u[k + 1] = lu.solve(rhs)
        steps.append((A, M, lu))
    return u, steps


def _matches_per_level_march(prop, columns, seed):
    """Whether prop's march, and each step's bands (an offset that the
    level's own matrix lacks all zero) and LU, equal the per-level
    reference byte for byte; a second march changes nothing."""
    g = prop.grid
    rng = np.random.default_rng(seed)
    g0 = rng.standard_normal((g.n_space, *columns))
    f = rng.standard_normal((g.n_levels, len(prop.boundary_idx), *columns))
    source = rng.standard_normal((g.n_levels, g.n_space, *columns))
    u = prop.run(g0, f, source)
    ref, steps = _per_level_march(prop, g0, f, source)
    same = _same(u, ref)
    for k, (A_ref, M_ref, lu_ref) in enumerate(steps):
        A, M, lu = system(prop, k)
        for a, b in ((A, A_ref), (M, M_ref)):
            same &= all(_same(band, b.bands[o]) if o in b.bands else not np.any(band)
                        for o, band in a.bands.items())
        same &= all(_same(x, y) for x, y in zip(lu.factors, lu_ref.factors))
        same &= _same(lu.solve(source[k]), lu_ref.solve(source[k]))
    return same and _same(prop.run(g0, f, source), u)


def _negative_q(grid, theta):
    """A potential near -(2 / h^2 + 1 / (dt theta)), which leaves the interior
    diagonal of the step matrices small against their off-diagonals."""
    c = 2 / grid.h[0] ** 2 + 1 / (grid.dt * theta)
    return field_from_function(grid, lambda x, t: -c * (1 + 0.1 * np.sin(7 * x + 3 * t)), "Q")


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(3, 24),
    nt=st.integers(2, 8),
    T=st.floats(0.05, 1.0),
    scheme=st.sampled_from(("be", "cn")),
    gamma_kind=st.sampled_from(("identity", "scalar", "time")),
    q_kind=st.sampled_from(("none", "time", "negative")),
    advection=st.sampled_from((None, (5.0,), (-120.0,))),
    columns=st.sampled_from(((), (1,), (3,))),
    seed=st.integers(0, 2**16),
)
def test_stacked_1d_stepper_matches_per_level_lu(nx, nt, T, scheme, gamma_kind, q_kind, advection,
                                                  columns, seed):
    # a 1D stepper factors every step matrix in one dgttrf call over their
    # block-diagonal stack; its march equals, byte for byte, the march whose
    # steps each form their own A_k and M_k and factor A_k alone, and each
    # step's system holds that step's own matrices and dgttrf factors and
    # pivots (rebased to count from the block's first row)
    grid = SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)
    q = {"none": None,
         "time": field_from_function(grid, lambda x, t: 1.0 + x * t + 0.5 * x, "Q"),
         "negative": _negative_q(grid, SCHEMES[scheme])}[q_kind]
    prop = Propagator(grid, GAMMAS[gamma_kind](1), q, scheme, advection)
    assert _matches_per_level_march(prop, columns, seed)


@settings(max_examples=30, deadline=None)
@given(
    nx=st.integers(3, 8),
    ny=st.integers(3, 8),
    nt=st.integers(2, 5),
    scheme=st.sampled_from(("be", "cn")),
    gamma_kind=st.sampled_from(("identity", "scalar", "matrix", "time", "vanishing")),
    q_kind=st.sampled_from(("none", "time", "negative")),
    advection=st.sampled_from((None, (5.0, -3.0))),
    columns=st.sampled_from(((), (1,), (3,))),
    seed=st.integers(0, 2**16),
)
def test_stacked_2d_stepper_matches_per_level_lu(nx, ny, nt, scheme, gamma_kind, q_kind,
                                                  advection, columns, seed):
    # a 2D stepper forms the bands of every step at construction, stacked,
    # and a band LU per step when a march reaches it: the march, each step's
    # bands and its LU equal those formed level by level, byte for byte.
    # The "vanishing" tensor has no cross term at t = 0.5, a level for an
    # even nt, so the stacks carry offsets that its own matrices lack;
    # q = -200 makes dgbtrf pivot
    grid = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [nx, ny], nt, 1.0)
    gamma = (DiffusionTensor.matrix2d("1", "0.2*(t - 0.5)", "0.9") if gamma_kind == "vanishing"
             else GAMMAS[gamma_kind](2))
    q = {"none": None,
         "time": field_from_function(grid, lambda x, y, t: 1.0 + x * t + 0.5 * y, "Q"),
         "negative": -200.0}[q_kind]
    prop = Propagator(grid, gamma, q, scheme, advection)
    assert _matches_per_level_march(prop, columns, seed)


def test_stacked_1d_march_through_scipy_binding(monkeypatch):
    # one time-dependent 1D march whose steps swap rows, through numpy's
    # bundled LAPACK and through the scipy.linalg.lapack fallback: the same
    # factors, pivots and values, byte for byte
    g = SpaceTimeGrid.make([0.0], [1.0], [33], 12, 0.5)
    rng = np.random.default_rng(7)
    g0, source = rng.standard_normal((g.n_space, 2)), rng.standard_normal((g.n_levels, g.n_space))
    f = rng.standard_normal((g.n_levels, 2, 2))

    def march():
        prop = Propagator(g, DiffusionTensor.scalar("1 + 0.2*t"), _negative_q(g, 0.5), "cn")
        return prop.run(g0, f, source), [system(prop, k)[2].factors for k in range(g.nt)]

    u, factors = march()
    assert isinstance(forward._lapack(), forward._NumpyLapack)
    monkeypatch.setattr(forward, "_lapack", forward._ScipyLapack)
    u_ref, factors_ref = march()
    assert _same(u, u_ref)
    for a, b in zip(factors, factors_ref):
        assert all(_same(x, y) for x, y in zip(a[:4], b[:4]))
        assert np.array_equal(a[4], b[4])
    assert all(not np.array_equal(a[4], np.arange(1, g.n_space + 1)) for a in factors)


def test_time_dependent_1d_march_builds_no_step_object(monkeypatch):
    # every step of a time-dependent 1D march solves with the block solve
    # that its stepper made at construction, in a second march too: no
    # solve, partial or LU object is built per step
    g = SpaceTimeGrid.make([0.0], [1.0], [17], 6, 0.2)
    prop = Propagator(g, DiffusionTensor.scalar("1 + 0.2*t"), None, "cn")
    real_solve, seen = Propagator._solve, []
    monkeypatch.setattr(Propagator, "_solve",
                        lambda self, solve, rhs: seen.append(solve) or real_solve(self, solve, rhs))
    prop.run()
    prop.run(g0=np.ones((g.n_space, 2)))
    made = [system(prop, k)[2].solve for k in range(g.nt)]
    assert len(seen) == 2 * g.nt
    assert all(a is b for a, b in zip(seen, made * 2))


def test_stepper_is_freed_without_the_cycle_collector():
    # a time-dependent stepper holds its stacked bands and LU in no
    # reference cycle, so they go when its last reference does
    import gc
    import weakref

    gc.disable()
    try:
        for g in (SpaceTimeGrid.make([0.0], [1.0], [9], 4, 0.2),
                  SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [5, 5], 4, 0.2)):
            prop = Propagator(g, DiffusionTensor.scalar("1 + 0.2*t"), None, "cn")
            prop.run()
            ref = weakref.ref(prop)
            del prop
            assert ref() is None
    finally:
        gc.enable()


def test_band_lu_factors_in_place_and_solves_at_bandwidth_ku(monkeypatch):
    # scaled Dirichlet rows and dominant interior columns: dgbtrf makes no
    # interchange, the factors are the storage handed to it, and the solve
    # is told of ku - kl superdiagonals; the solves equal the full-storage
    # ones of the scipy fallback, with the right-hand side itself on the
    # Dirichlet rows.  With q = -200 no interior row is dominant: dgbtrf
    # pivots, and the solve is told of all ku superdiagonals
    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [9, 7], 4, 0.2)
    n, kl = g.n_space, g.nx[1]
    q_time = field_from_function(g, lambda x, y, t: 1.0 + x * t, "Q")
    bd = g.boundary_flat_indices()
    rng = np.random.default_rng(5)
    rhs = [rng.standard_normal(shape) for shape in ((n,), (n, 1), (n, 7))]
    lapack = forward._lapack()
    real_gbtrf, real_gbtrs, handed, told = lapack.dgbtrf, lapack.gbtrs, [], []

    def dgbtrf(ab, *args):
        handed.append(ab)
        return real_gbtrf(ab, *args)

    def gbtrs(*args):
        told.append((args[2]._obj.value, args[3]._obj.value))  # kl, ku by reference
        return real_gbtrs(*args)

    monkeypatch.setattr(lapack, "dgbtrf", dgbtrf)
    monkeypatch.setattr(lapack, "gbtrs", gbtrs)
    cases = []
    for q, free in ((q_time, True), (-200.0, False)):
        prop = Propagator(g, DiffusionTensor.scalar("1 + 0.3*x"), q, "cn", (1.0, -2.0))
        A = system(prop, g.nt - 1)[0]
        assert -min(A.bands) == max(A.bands) == kl
        handed.clear()
        lu = forward._BandLU(A, "A")
        assert _interchange_free(lu) == free
        assert lu.factors[0] is handed[0] and lu.factors[0].shape == (3 * kl + 1, n)
        told.clear()
        cases.append((A, lu, [lu.solve(b) for b in rhs]))
        assert told == [(kl, 0 if free else kl)] * len(rhs)
    monkeypatch.setattr(forward, "_lapack", forward._ScipyLapack)
    for A, lu, xs in cases:
        ref = forward._BandLU(A, "A")
        assert ref.factors[0].shape == (3 * kl + 1, n)
        assert np.array_equal(ref.factors[1], lu.factors[1] - 1)
        for b, x in zip(rhs, xs):
            assert x.shape == b.shape
            assert np.array_equal(x, ref.solve(b))
            assert np.max(np.abs(A @ x - b)) <= 1e-12 * np.max(np.abs(x))
            if _interchange_free(lu):
                assert _same(x[bd], b[bd])


def test_band_lu_allocates_one_band_storage():
    # a band LU without interchanges holds its factors where dgbtrf made
    # them: building one allocates the 2 kl + ku + 1 rows of band storage
    # and no second block of the kl + ku + 1 rows that hold L and U
    import tracemalloc

    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [17, 17], 4, 0.2)
    A = system(Propagator(g, None, 1.0, "be", (1.0, -2.0)), 0)[0]
    kl, ku, n = -min(A.bands), max(A.bands), g.n_space
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lu = forward._BandLU(A, "A")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert _interchange_free(lu)
    storage, block = 8 * (2 * kl + ku + 1) * n, 8 * (kl + ku + 1) * n
    assert storage <= peak < storage + block


def test_time_dependent_2d_run_holds_one_band_lu():
    # a time-dependent 2D stepper holds the LU of its last step alone: a run
    # allocates its solution and one band LU at a time, not one per level
    import tracemalloc

    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [17, 17], 32, 1.0)
    q = field_from_function(g, lambda x, y, t: 0 * x + 0 * y + np.sin(3 * t), "Q")
    prop = Propagator(g, None, q, "be")
    kl, ku, n = -min(prop._A.bands), max(prop._A.bands), g.n_space
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        u = prop.run(f=np.ones((g.n_levels, len(prop.boundary_idx))))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < u.nbytes + 2 * 8 * (2 * kl + ku + 1) * n


def test_1d_paths_build_no_sparse_matrix(monkeypatch):
    # Propagators, Newton solves and the normal-derivative gather work on
    # bands and index arrays, in 1D and in 2D: no scipy.sparse object is made
    built = []
    real_init = sp._base._spbase.__init__

    def init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(sp._base._spbase, "__init__", init)
    nl = Nonlinearity.parse("u^3", tag=CLASS_A)
    for g, gamma, advection in (
        (SpaceTimeGrid.make([0.0], [1.0], [17], 6, 0.2), DiffusionTensor.scalar("1 + 0.2*t"), (1.0,)),
        (SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [7, 6], 4, 0.2), GAMMAS["time"](2), (1.0, -2.0)),
    ):
        q = field_from_function(g, lambda *a: 1.0 + a[0] * a[-1], "Q")
        prop = Propagator(g, gamma, q, "cn", advection)
        g0 = np.prod([np.sin(math.pi * x) for x in g.meshes()], axis=0).reshape(-1)
        u = prop.run(g0=np.column_stack([g0, 2 * g0]))
        assert np.all(prop.residual(u) <= 1e-12)
        assert _newton(g, gamma, nl, None, Field(g, g0.reshape(g.nx), "Omega"), "be", 1e-10,
                       30).converged.all()
        portion = resolve_portion(g, BoundaryPortion.full())
        B = normal_derivative_matrix(g, portion)
        assert (B @ u[-1]).shape == (portion.n_nodes, 2)
        assert B.toarray().shape == (portion.n_nodes, g.n_space)
    assert built == []
    sp.identity(3)  # the hook sees a sparse matrix made
    assert built


def test_matrix_gamma_on_1d_grid_raises():
    # g12 and g22 have no meaning on a 1D grid; they are not dropped silently
    g = grid1d(9, 4)
    gamma = DiffusionTensor.matrix2d("1", "0.3", "5")
    with pytest.raises(ModelError, match="needs a 2D grid"):
        assemble_operator(g, gamma, 0.0)
    with pytest.raises(ModelError, match="needs a 2D grid"):
        Propagator(g, gamma)


def test_propagator_work_counts(monkeypatch):
    # a 2D Propagator makes step 0's band LU and a march the rest, and a
    # residual none: per run, one stencil assembly per gamma level; one
    # dgbtrf per distinct step matrix.  It holds the LU of its last step, so
    # a second run of a time-dependent one factors every step again, and of
    # one that is not, nothing.  A 1D one factors every step matrix at
    # construction in one dgttrf call, and a second run factors nothing.
    # Newton makes one solve per iteration: one dgbtrf (and its solve) in
    # 2D, one dgtsv in 1D.  LAPACK is counted on forward's binding, and every
    # dgbtrf, with or without an interchange, keeps its factors in the band
    # storage it was handed
    counts, in_place = {}, []

    def count(owner, name):
        real = getattr(owner, name)
        counts[name] = 0

        def wrapped(*args, **kwargs):
            counts[name] += 1
            out = real(*args, **kwargs)
            if name == "dgbtrf":
                in_place.append(out[0][0] is args[0])
            return out

        monkeypatch.setattr(owner, name, wrapped)

    count(forward, "assemble_operator")
    for name in ("dgbtrf", "dgttrf", "dgtsv"):
        count(forward._lapack(), name)

    def work(**expected):
        """Whether the counts since the last call are the expected ones, zero
        for the names not given, and every dgbtrf since then factored in place."""
        seen, kept = dict(counts), in_place[:]
        counts.update(dict.fromkeys(counts, 0))
        in_place.clear()
        return seen == dict(dict.fromkeys(seen, 0), **expected) and all(kept)

    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [9, 9], 6, 0.2)
    q_time = field_from_function(g, lambda x, y, t: 1.0 + x * t, "Q")
    gamma = DiffusionTensor.scalar("1 + 0.3*x")
    # q = -200 leaves 1 + dt theta q < 0: no interior row is dominant, and
    # dgbtrf pivots
    for q, factored in ((q_time, g.nt), (2.0, 1), (None, 1), (-200.0, 1)):
        Propagator(g, gamma, q, "cn", (1.0, -2.0)).run()
        assert work(assemble_operator=1, dgbtrf=factored)
    Propagator(g, DiffusionTensor.scalar("1 + 0.2*t"), None).run()
    assert work(assemble_operator=g.n_levels, dgbtrf=g.nt)
    for q, first, again in ((2.0, 1, 0), (q_time, g.nt, g.nt)):
        prop = Propagator(g, gamma, q, "cn", (1.0, -2.0))
        prop.run()
        assert work(assemble_operator=1, dgbtrf=first)
        u = prop.run()
        assert work(dgbtrf=again)
    # the residual reads the stacked bands and factors nothing
    fresh = Propagator(g, gamma, q_time, "cn", (1.0, -2.0))
    assert work(assemble_operator=1, dgbtrf=1)
    assert np.all(fresh.residual(u) <= 1e-12)
    assert work()

    g1 = SpaceTimeGrid.make([0.0], [1.0], [17], 6, 0.2)
    q_time = field_from_function(g1, lambda x, t: 1.0 + x * t, "Q")
    for q in (q_time, 2.0, -200.0):
        Propagator(g1, gamma, q, "cn", (1.0,)).run()
        assert work(assemble_operator=1, dgttrf=1)
    Propagator(g1, DiffusionTensor.scalar("1 + 0.2*t"), None).run()
    assert work(assemble_operator=g1.n_levels, dgttrf=1)
    prop = Propagator(g1, gamma, q_time, "cn", (1.0,))
    assert work(assemble_operator=1, dgttrf=1)
    prop.run()
    prop.run()
    assert work()

    nl = Nonlinearity.parse("u^3", tag=CLASS_A)
    g2 = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [6, 6], 4, 0.2)
    for grid, solver in ((g1, "dgtsv"), (g2, "dgbtrf")):
        g0 = zero_field(grid, "Omega")
        g0.values[:] = 0.5
        res = _newton(grid, None, nl, None, g0, "be", 1e-10, 30)
        assert res.iterations > grid.nt
        assert work(assemble_operator=1, **{solver: res.iterations})
