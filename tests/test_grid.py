import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import load_field_csv
from pipl.dnmap import normal_derivative_matrix
from pipl.grid import (
    FACE_IDS,
    FACE_NAMES,
    BoundaryPortion,
    Field,
    GridError,
    SpaceTimeGrid,
    field_from_function,
    integral,
    norm,
    resolve_portion,
    save_field_csv,
    zero_field,
)


def grid1d(nx=33, nt=16, T=1.0):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def grid2d(nx=9, ny=7, nt=8, T=0.5):
    return SpaceTimeGrid.make([0.0, 0.0], [1.0, 2.0], [nx, ny], nt, T)


def test_spacing_and_coords_reproducible():
    g = grid1d(nx=11)
    assert g.h[0] == pytest.approx(0.1)
    x = g.axis(0)
    assert x[3] == 0.0 + 3 * g.h[0]  # bit-exact from indices
    assert g.dt == 1.0 / 16


def test_grid_validation():
    with pytest.raises(GridError):
        SpaceTimeGrid.make([0.0], [1.0], [2], 4, 1.0)
    with pytest.raises(GridError):
        SpaceTimeGrid.make([0.0], [1.0], [5], 1, 1.0)
    with pytest.raises(GridError):
        SpaceTimeGrid.make([1.0], [0.0], [5], 4, 1.0)


def test_classify_1d_directional():
    g = grid1d()
    right = set(resolve_portion(g, BoundaryPortion.directional([1.0], 0.0, +1)).flat.tolist())
    assert right == {g.nx[0] - 1}
    left = set(resolve_portion(g, BoundaryPortion.directional([1.0], 0.0, -1)).flat.tolist())
    assert left == {0}


def test_classify_2d_aperture_selects_right_face_only():
    g = grid2d()
    got = set(resolve_portion(g, BoundaryPortion.directional([1.0, 0.0], 0.5, +1)).flat.tolist())
    expected = {np.ravel_multi_index(mi, g.nx) for mi in g.face_multi_indices((0, 1))}
    assert got == expected


def test_classify_2d_minus_covers_left_top_bottom():
    # faces with nu . omega <= 0 for omega = (1, 0): left, bottom, top
    g = grid2d()
    got = resolve_portion(g, BoundaryPortion.directional([1.0, 0.0], 0.0, -1))
    assert set(got.faces) == {(0, 0), (1, 0), (1, 1)}


def test_portion_partition_covers_boundary():
    g = grid2d()
    plus = set(resolve_portion(g, BoundaryPortion.directional([1.0, 0.0], 0.0, +1)).flat.tolist())
    minus = set(resolve_portion(g, BoundaryPortion.directional([1.0, 0.0], 0.0, -1)).flat.tolist())
    full = set(resolve_portion(g, BoundaryPortion.full()).flat.tolist())
    assert plus | minus == full
    # overlap only on tangential faces (nu . omega = 0)
    tang = {np.ravel_multi_index(mi, g.nx)
            for f in [(1, 0), (1, 1)] for mi in g.face_multi_indices(f)}
    assert plus & minus == tang
    # the interior mask is the complement of the boundary nodes, 1D and 2D
    for gg in (grid1d(), g):
        mask = gg.interior_mask()
        assert mask.shape == (gg.n_space,)
        assert set(np.flatnonzero(~mask)) == set(gg.boundary_flat_indices())


def test_non_unit_omega_rejected():
    g = grid1d()
    with pytest.raises(GridError):
        resolve_portion(g, BoundaryPortion.directional([2.0], 0.0, +1))


def test_norm_zero_and_constant():
    g = grid1d()
    z = zero_field(g, "Omega")
    assert norm(z, "L2Omega") == 0.0
    ones = Field(g, np.ones(g.nx), "Omega")
    assert norm(ones, "L2Omega") == pytest.approx(1.0)  # |Omega| = 1


def test_norm_sine():
    g = grid1d(nx=201)
    f = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    assert norm(f, "L2Omega") == pytest.approx(1 / math.sqrt(2), abs=2e-4)


def test_norm_tag_mismatch_rejected():
    g = grid1d()
    z = zero_field(g, "Omega")
    with pytest.raises(GridError):
        norm(z, "L2Q")


def test_quadrature_exact_for_linear():
    # trapezoid integrates piecewise-linear integrands exactly; x^2 = (x)^2
    # is linear per cell only after squaring a linear field, which trapezoid
    # of u^2 with u linear is NOT exact for; use u = constant and u = step-1
    g = grid1d(nx=9)
    x = g.axis(0)
    f = Field(g, 2.0 * np.ones_like(x), "Omega")
    assert norm(f, "L2Omega") == pytest.approx(2.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=7.5, allow_nan=False))
def test_norm_scales_linearly(c):
    g = grid1d(nx=17, nt=4)
    f = field_from_function(g, lambda x, t: np.cos(x) + t, "Q")
    base = norm(f, "L2Q")
    assert norm(c * f, "L2Q") == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-12)


def test_norm_refinement_second_order():
    # discrete L2 norm of 1/(1+x) converges at order >= 2:
    # integral of (1+x)^-2 over (0,1) is 1/2
    errs = []
    for nx in (17, 33, 65):
        g = grid1d(nx=nx)
        f = field_from_function(g, lambda x: 1.0 / (1.0 + x), "Omega")
        errs.append(abs(norm(f, "L2Omega") - math.sqrt(0.5)))
    rate = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert rate >= 2.0 - 0.1


def _fsum_square_integral(f):
    # the trapezoid rule node by node: a node's weight is its level's time
    # weight (none on Omega) times the axis weights off its face's axis (every
    # axis off the boundary), each term that weight times |f|^2, summed by fsum
    g = f.grid
    axis_w = [[h / 2 if i in (0, n - 1) else h for i in range(n)] for n, h in zip(g.nx, g.h)]
    time_w = [g.dt / 2 if k in (0, g.nt) else g.dt for k in range(g.n_levels)]

    def space_w(mi, skip=None):
        return math.prod(axis_w[i][m] for i, m in enumerate(mi) if i != skip)

    sq = np.abs(f.values) ** 2
    if f.domain == "Omega":
        return math.fsum(space_w(mi) * sq[mi] for mi in np.ndindex(*g.nx))
    if f.domain == "Q":
        return math.fsum(time_w[k] * space_w(mi) * sq[(k, *mi)]
                         for k in range(g.n_levels) for mi in np.ndindex(*g.nx))
    nodes = list(zip(f.portion.multi_indices, f.portion.face_of_node))
    return math.fsum(time_w[k] * space_w(mi, face[0]) * sq[k, j]
                     for k in range(g.n_levels) for j, (mi, face) in enumerate(nodes))


def _bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    nx=st.lists(st.integers(3, 9), min_size=2, max_size=2),
    nt=st.integers(2, 8),
    lower=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 10.0),
    T=st.floats(0.01, 5.0),
    domain=st.sampled_from(("Q", "Omega", "Sigma")),
    faces=st.sets(st.sampled_from(("left", "right", "bottom", "top")), min_size=1),
    full=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_integral_sums_every_dtype_by_one_real_rule(dim, nx, nt, lower, width, T, domain, faces,
                                                    full, seed):
    g = SpaceTimeGrid.make([lower] * dim, [lower + width] * dim, nx[:dim], nt, T)
    portion, shape = None, {"Q": (g.n_levels, *g.nx), "Omega": g.nx}.get(domain)
    if domain == "Sigma":
        names = sorted(f for f in faces if FACE_IDS[f][0] < dim) or ["right"]
        portion = resolve_portion(g, BoundaryPortion.full() if full
                                  else BoundaryPortion.named(*names))
        shape = (g.n_levels, portion.n_nodes)
    re, im = np.random.default_rng(seed).standard_normal((2, *shape))
    z = re + 1j * im

    def integrate(values):
        return integral(Field(g, values, domain, portion))

    # a real field held as complex: the same real part, bit for bit
    real, held = integrate(re), integrate(re.astype(complex))
    assert isinstance(real, float) and _bits(held.real) == _bits(real) and held.imag == 0.0
    # each part by the real rule; the conjugate negates the imaginary part
    value, conjugate = integrate(z), integrate(z.conj())
    assert _bits(value.real) == _bits(real) and _bits(value.imag) == _bits(integrate(im))
    assert _bits(conjugate.real) == _bits(value.real)
    assert _bits(conjugate.imag) == _bits(-value.imag)
    space = {"Q": "L2Q", "Omega": "L2Omega", "Sigma": "L2Sigma"}[domain]
    for values in (re, z):
        f = Field(g, values, domain, portion)
        ref = _fsum_square_integral(f)
        assert abs(norm(f, space) ** 2 - ref) <= 1e-13 * ref


def test_field_shape_checked():
    g = grid1d()
    with pytest.raises(GridError):
        Field(g, np.zeros(5), "Omega")


@pytest.mark.parametrize("dim", [1, 2])
def test_field_from_function_samples_in_one_call(dim):
    # fn is called once: on Q with level_times(), on Sigma with a column of
    # times, and each level holds what a call at that level's time gives
    g = grid1d(nx=9, nt=4) if dim == 1 else grid2d()
    calls = []

    def fn(*args):
        calls.append(np.shape(args[-1]))
        return 2.0 * args[0] + args[-1] ** 2

    q = field_from_function(g, fn, "Q")
    portion = resolve_portion(g, BoundaryPortion.full())
    sigma = field_from_function(g, fn, "Sigma", portion)
    assert calls == [g.level_times().shape, (g.n_levels, 1)]
    x, coords = g.meshes()[0], portion.coords()
    for k, t in enumerate(g.times()):
        assert np.array_equal(q.values[k], np.broadcast_to(2.0 * x + t**2, g.nx))
        assert np.array_equal(sigma.values[k], 2.0 * coords[:, 0] + t**2)
    # a function of t alone, or a constant, fills every node
    assert np.array_equal(field_from_function(g, lambda *a: 1.5, "Q").values,
                          np.full((g.n_levels, *g.nx), 1.5))


def test_sigma_field_needs_portion():
    g = grid1d()
    with pytest.raises(GridError, match="boundary portion"):
        field_from_function(g, lambda x, t: x + t, "Sigma")


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from((1, 2)),
    nx=st.lists(st.integers(3, 9), min_size=2, max_size=2),
    nt=st.integers(2, 6),
    lower=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 10.0),
    T=st.floats(0.01, 5.0),
    domain=st.sampled_from(("Q", "Omega")),
)
def test_csv_roundtrip_q_field(data, dim, nx, nt, lower, width, T, domain, tmp_path_factory):
    # Q and Omega fields on random grids, with any finite values (signed
    # zeros and subnormals included), come back bitwise
    g = SpaceTimeGrid.make([lower] * dim, [lower + width] * dim, nx[:dim], nt, T)
    shape = (g.n_levels, *g.nx) if domain == "Q" else g.nx
    values = data.draw(arrays(np.float64, shape,
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    f = Field(g, values, domain)
    p = tmp_path_factory.mktemp("csv") / "field.csv"
    save_field_csv(f, p)
    back = load_field_csv(g, p, domain)
    assert back.domain == domain
    assert back.values.shape == shape and back.values.tobytes() == values.tobytes()
    assert p.read_text().splitlines()[0] == "# shape: " + ",".join(map(str, (*g.nx, nt)))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from((1, 2)),
    nx=st.tuples(st.integers(3, 6), st.integers(3, 6)),
    domain=st.sampled_from(("Q", "Omega")),
)
def test_csv_constant_rows_write_every_repr(data, dim, nx, domain, tmp_path_factory):
    # values from a small pool, so that many rows are constant and some mix
    # 0.0 with -0.0: the file holds each value's own repr, as a writer that
    # formats every value does
    g = SpaceTimeGrid.make([0.0] * dim, [1.0] * dim, nx[:dim], 2, 1.0)
    shape = (g.n_levels, *g.nx) if domain == "Q" else g.nx
    pool = st.sampled_from((0.0, -0.0, 1.5, 1e-300, -2.0 / 3.0))
    fill, first, last = data.draw(st.tuples(pool, pool, pool))
    values = np.full(shape, fill)
    values.reshape(-1)[0], values.reshape(-1)[-1] = first, last
    p = tmp_path_factory.mktemp("csv") / "field.csv"
    save_field_csv(Field(g, values, domain), p)
    levels = values if domain == "Q" else [values]
    blocks = ["\n".join(",".join(map(repr, row)) for row in np.atleast_2d(level).tolist())
              for level in levels]
    assert p.read_text() == "# shape: " + ",".join(map(str, (*g.nx, 2))) + "\n" + (
        "\n\n".join(blocks) + "\n")


# -- node sets against the face-loop construction ------------------------------
# The reference builds every node set face by face with explicit 1D and 2D
# cases: faces, their nodes, flat indices, the boundary as a sorted set, the
# portion weights and the one-sided normal-derivative stencil.


def _loop_faces(grid):
    return [(0, 0), (0, 1)] if grid.dim == 1 else [(0, 0), (0, 1), (1, 0), (1, 1)]


def _loop_face_nodes(grid, face):
    axis, side = face
    fixed = grid.nx[axis] - 1 if side else 0
    if grid.dim == 1:
        return [(fixed,)]
    other = 1 - axis
    out = []
    for k in range(grid.nx[other]):
        mi = [0, 0]
        mi[axis] = fixed
        mi[other] = k
        out.append(tuple(mi))
    return out


def _loop_flat(grid, mi):
    return int(mi[0]) if grid.dim == 1 else int(mi[0]) * grid.nx[1] + int(mi[1])


def _loop_boundary(grid):
    idx = {_loop_flat(grid, mi) for f in _loop_faces(grid) for mi in _loop_face_nodes(grid, f)}
    return np.array(sorted(idx), dtype=int)


def _loop_selected(grid, portion):
    if portion.kind == "full":
        return _loop_faces(grid)
    if portion.kind == "faces":
        return [next(f for f, name in FACE_NAMES.items() if name == n) for n in portion.faces]
    omega = portion.sign * np.asarray(portion.omega)
    keep = []
    for face in _loop_faces(grid):
        dot = omega[face[0]] * (1.0 if face[1] else -1.0)
        if (dot >= 0.0) if portion.eps == 0.0 else (dot > portion.eps):
            keep.append(face)
    return keep


def _loop_resolve(grid, portion):
    """(face_of_node, multi_indices, flat, weights): a 1D face node weighs 1,
    a 2D one h along the face, halved at the face's two ends."""
    faces, mis, flat, weights = [], [], [], []
    for face in _loop_selected(grid, portion):
        other = 1 - face[0] if grid.dim == 2 else None
        for mi in _loop_face_nodes(grid, face):
            faces.append(face)
            mis.append(mi)
            flat.append(_loop_flat(grid, mi))
            if grid.dim == 1:
                w = 1.0
            else:
                w = grid.h[other]
                if mi[other] in (0, grid.nx[other] - 1):
                    w *= 0.5
            weights.append(w)
    return tuple(faces), tuple(mis), np.asarray(flat, dtype=int), np.asarray(weights, dtype=float)


def _loop_normal_derivative(grid, faces, mis):
    """(3 u_b - 4 u_1 + u_2) / (2 h), u_1 and u_2 found by stepping the
    multi-index inward along the face normal."""
    rows, cols, vals = [], [], []
    for r, (face, mi) in enumerate(zip(faces, mis)):
        axis, side = face
        step = -1 if side else +1
        inward = [list(mi), list(mi)]
        inward[0][axis] += step
        inward[1][axis] += 2 * step
        h = grid.h[axis]
        rows += [r, r, r]
        cols += [_loop_flat(grid, mi)] + [_loop_flat(grid, m) for m in inward]
        vals += [3.0 / (2 * h), -4.0 / (2 * h), 1.0 / (2 * h)]
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(faces), grid.n_space))


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    dim=st.sampled_from((1, 2)),
    nx=st.lists(st.integers(3, 12), min_size=2, max_size=2),
    lower=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    width=st.lists(st.floats(0.1, 5.0), min_size=2, max_size=2),
    kind=st.sampled_from(("full", "faces", "directional")),
)
def test_node_sets_match_face_loop(data, dim, nx, lower, width, kind):
    # interior, boundary, resolved portions and the normal-derivative rows
    # come out bitwise as the face-by-face construction builds them
    g = SpaceTimeGrid.make(lower[:dim], [lo + w for lo, w in zip(lower, width)][:dim],
                           nx[:dim], 4, 1.0)
    bd = _loop_boundary(g)
    assert _same(g.boundary_flat_indices(), bd)
    assert _same(g.interior_mask(), ~np.isin(np.arange(g.n_space), bd))
    assert g.faces() == _loop_faces(g)
    if kind == "full":
        portion = BoundaryPortion.full()
    elif kind == "faces":
        names = [FACE_NAMES[f] for f in _loop_faces(g)]
        portion = BoundaryPortion.named(*data.draw(st.permutations(names))[
            : data.draw(st.integers(1, len(names)))])
    else:
        angle = data.draw(st.floats(0.0, 2 * math.pi))
        omega = [math.cos(angle), math.sin(angle)][:dim] if dim == 2 else [1.0]
        portion = BoundaryPortion.directional(omega, data.draw(st.sampled_from((0.0, 0.3))),
                                              data.draw(st.sampled_from((1, -1))))
    faces, mis, flat, weights = _loop_resolve(g, portion)
    got = resolve_portion(g, portion)
    assert got.face_of_node == faces and got.multi_indices == mis
    assert _same(got.flat, flat) and _same(got.weights, weights)
    assert all(np.ravel_multi_index(mi, g.nx) == f for mi, f in zip(mis, flat))
    if got.n_nodes:
        # the gather's columns and weights are the CSR rows', and so is its
        # product, bitwise
        B, ref = normal_derivative_matrix(g, got), _loop_normal_derivative(g, faces, mis)
        assert np.array_equal(B.cols.ravel(), ref.indices) and _same(B.vals.ravel(), ref.data)
        assert np.all(np.diff(ref.indptr) == 3)
        u = np.random.default_rng(len(flat)).standard_normal((g.n_space, 2))
        assert _same(B @ u, ref @ u) and _same(B @ u[:, 0], ref @ u[:, 0])
