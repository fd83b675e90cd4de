"""Finite-difference parabolic solvers.

Space: second-order central differences in conservative (flux) form, one
rule for every axis: the flux between a node and its neighbour along an
axis takes the tensor's diagonal entry for that axis at their midpoint, so
the interior operator is symmetric; in 2D the off-diagonal entry adds a
centred cross term at the nodes.  Time: implicit Euler ("be", default) or Crank-Nicolson ("cn").

The q-free operator leaves boundary rows zero; a potential enters as a
diagonal on interior rows, so Dirichlet rows need no rewriting.  Every
interior row couples a node to neighbours at the same flat offsets, so in
any dimension each operator, step matrix and Newton Jacobian is a band
matrix (Banded; a stepper stacks those of all its steps), factored by
LAPACK's band LU with partial pivoting from numpy's bundled OpenBLAS: the
tridiagonal step matrices of all levels of a 1D stepper by one ?gttrf
call, a 2D one per level by ?gbtrf (_BandLU, half-bandwidth the row
stride, one more with a cross term) with its Dirichlet rows scaled by a
power of two, which pivoting leaves in place, the factors kept in the band
storage that ?gbtrf factored in place; when it makes no interchange at
all, U is solved there at the stencil's half-bandwidth.  A run imports no
scipy.  A sweep carries any number of columns, each with its own initial
values, boundary trace and source, with one multi-column solve per step;
Propagator.residual checks them afterwards on request from the stacked
bands.  Semilinear solves march columns too: a term affine in u is one
linear sweep, any other one per-step Newton whose columns share a
block-diagonal Jacobian and one band solve per iteration (?gtsv in 1D,
?gbtrf in 2D).
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .grid import (
    DOMAIN_Q,
    DOMAIN_SIGMA,
    Field,
    GridError,
    SpaceTimeGrid,
    norm,
    zero_field,
)
from .model import CLASS_ANALYTIC, DiffusionTensor, ModelError, Nonlinearity

SCHEMES = {"be": 1.0, "cn": 0.5}


class SolverError(RuntimeError):
    pass


class CompatibilityError(SolverError):
    """Initial and boundary data disagree on the boundary at t = 0."""


class Banded:
    """A square band matrix as {offset: band} in ascending offset order, each
    band as long as the matrix: band[i] is the entry (i, i + offset), zero
    where i + offset falls outside.  The form of every operator, step matrix
    and Newton Jacobian; bands shaped (levels, n) stack one per level."""

    def __init__(self, bands):
        self.bands = bands
        self.n = np.shape(bands[0])[-1]
        # (offset, rows, columns, values on those rows) of each band that is
        # not all zero (at every level of a stack), by offset
        self._terms = []
        for o, b in bands.items():
            if b.any():
                rows = slice(max(-o, 0), self.n - max(o, 0))
                self._terms.append((o, rows, slice(rows.start + o, rows.stop + o), b[..., rows]))

    def at(self, level) -> "Banded":
        """The matrix at level of a stack, its bands views; level None: this one."""
        return self if level is None else Banded({o: b[level] for o, b in self.bands.items()})

    def scaled(self, c) -> "Banded":
        return Banded({o: c * b for o, b in self.bands.items()})

    def tiled(self, m) -> "Banded":
        """kron(I_m, self): the entries coupling the blocks are zeros."""
        return Banded({o: np.tile(b, m) for o, b in self.bands.items()})

    def product(self, z, level=None):
        """The product with z, shaped (n,) or (n, m), bitwise the CSR one (of a
        stack's matrix at level): each row sums from zero in ascending column
        order, and an exact zero that CSR would drop adds a signed zero, which
        leaves a sum started at +0 as it is (an all-zero band is skipped)."""
        if z.ndim > 2:  # more trailing axes: as one axis of m columns
            return self.product(z.reshape(len(z), -1), level).reshape(z.shape)
        out = np.zeros(z.shape, dtype=np.result_type(float, z))
        for _, rows, cols, band in self._terms:
            band = band if level is None else band[level]
            out[rows] += (band[:, None] if z.ndim == 2 else band) * z[cols]
        return out

    __matmul__ = product

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for _, rows, cols, band in self._terms:
            out[np.r_[rows], np.r_[cols]] = band
        return out


class _NumpyLapack:
    """dgttrf, dgttrs, dgtsv, dgbtrf and dgbtrs of the ILP64 OpenBLAS that
    numpy's wheel bundles, through ctypes: every argument by reference,
    integers as int64, and after the last one of a solve gfortran's hidden
    size_t length of trans."""

    def __init__(self, lib):
        self.gttrf, self.gttrs, self.gtsv, self.gbtrf, self.gbtrs = (
            getattr(lib, f"scipy_{r}_64_") for r in ("dgttrf", "dgttrs", "dgtsv", "dgbtrf", "dgbtrs"))
        for fn, count in ((self.gttrf, 7), (self.gttrs, 11), (self.gtsv, 8), (self.gbtrf, 8),
                          (self.gbtrs, 11)):
            fn.restype = None
            fn.argtypes = [ctypes.c_void_p] * count + [ctypes.c_size_t] * (fn in (self.gttrs, self.gbtrs))

    def dgttrf(self, dl, d, du, blocks=1):
        """The LU factors of the tridiagonal matrix (dl, d, du) of `blocks`
        diagonal blocks, as _blocks, and LAPACK's info."""
        factors = _bands(dl, d, du)
        n = len(factors[1])
        factors += [np.zeros(max(n - 2, 0)), np.zeros(n, dtype=np.int64)]
        size, info, addresses = ctypes.c_int64(n), ctypes.c_int64(), [f.ctypes.data for f in factors]
        self.gttrf(ctypes.byref(size), *addresses, ctypes.byref(info))

        def solver(views, start):
            m, after = len(views[1]), [a + 8 * start for a in addresses]  # 8-byte items
            return lambda rhs: _trs(self.gttrs, m, (), after, rhs)

        return _blocks(factors, blocks, solver), info.value

    def dgbtrf(self, ab, kl, ku):
        """The LU factors of the band matrix in LAPACK's band storage ab
        (2 kl + ku + 1 rows, one column per matrix column, the diagonal in
        row kl + ku, the first kl rows left for the fill-in), their
        solve(rhs) and LAPACK's info.  A writable Fortran-ordered float ab
        is factored in place, and the factors are that array; any other ab
        is factored in a copy.  When dgbtrf made no interchange and
        ku >= kl, no row of U reaches past its ku-th superdiagonal, so the
        first kl rows stay zero: the solve is dgbtrs told of ku - kl
        superdiagonals and handed the storage from row kl on, at its full
        leading dimension (2 kl + ku + 1 >= 2 kl + (ku - kl) + 1), which
        solves U at bandwidth ku, not kl + ku."""
        lu = np.require(ab, float, ("F", "W"))
        if lu.ndim != 2 or len(lu) != 2 * kl + ku + 1:
            raise ValueError(f"band storage of shape {lu.shape} for kl = {kl}, ku = {ku}")
        n = lu.shape[1]
        ipiv = np.zeros(n, dtype=np.int64)
        size, lower, upper, rows = (ctypes.c_int64(v) for v in (n, kl, ku, len(lu)))
        info = ctypes.c_int64()
        self.gbtrf(*map(ctypes.byref, (size, size, lower, upper)), _address(lu.T),
                   ctypes.byref(rows), _address(ipiv), ctypes.byref(info))
        first = 0  # the row of lu that dgbtrs reads as its first
        if ku >= kl and np.array_equal(ipiv, np.arange(1, n + 1)):
            first, upper.value = kl, ku - kl
        before = tuple(map(ctypes.byref, (lower, upper)))
        after = (_address(lu.T, 8 * first), ctypes.byref(rows), _address(ipiv))  # 8-byte items
        return [lu, ipiv], lambda rhs: _trs(self.gbtrs, n, before, after, rhs), info.value

    def dgtsv(self, dl, d, du, b):
        """x solving the tridiagonal system (dl, d, du) x = b for one column
        b, and LAPACK's info."""
        dl, d, du = _bands(dl, d, du)
        x = np.array(b, dtype=float)
        if x.shape != d.shape:
            raise ValueError(f"right-hand side of shape {x.shape} for {len(d)} unknowns")
        n, nrhs, info = ctypes.c_int64(len(d)), ctypes.c_int64(1), ctypes.c_int64()
        self.gtsv(ctypes.byref(n), ctypes.byref(nrhs), *map(_address, (dl, d, du, x)),
                  ctypes.byref(n), ctypes.byref(info))
        return x, info.value


def _trs(trs, n, before, after, rhs):
    """A Fortran-ordered copy of rhs, n rows and one or more columns, that
    trs("N", n, *before, nrhs, *after, b, ldb, info) overwrites."""
    b = np.array(rhs, dtype=float, order="F")
    if b.ndim not in (1, 2) or len(b) != n:
        raise ValueError(f"right-hand side of shape {b.shape} for {n} unknowns")
    size, b_ref = ctypes.byref(ctypes.c_int64(n)), _address(b.T)
    nrhs, status = ctypes.c_int64(b.shape[1] if b.ndim == 2 else 1), ctypes.c_int64()
    trs(b"N", size, *before, ctypes.byref(nrhs), *after, b_ref, size, ctypes.byref(status), 1)
    return b


def _blocks(factors, blocks, solver):
    """Per one of `blocks` equal diagonal blocks that no entry couples: its
    dgttrf factors dl, d, du, du2, ipiv as views, pivots rebased to count
    from its first row (so each is its own dgttrf's), and solver(views,
    first row), its solve(rhs) for one or more columns."""
    n, m = len(factors[1]), len(factors[1]) // blocks
    factors[4] -= np.arange(n) // m * m
    views = [[f[s:s + m - c] for f, c in zip(factors, (1, 0, 1, 2, 0))] for s in range(0, n, m)]
    return [SimpleNamespace(factors=v, solve=solver(v, s)) for v, s in zip(views, range(0, n, m))]


def _address(a, offset=0):
    """A reference to byte offset of the C-contiguous array a, which keeps a
    alive; cheaper to form than a.ctypes.data."""
    return ctypes.byref(ctypes.c_char.from_buffer(a), offset)


def _bands(dl, d, du):
    """Fresh contiguous float copies of the bands, checked to be those of one
    n x n tridiagonal matrix before LAPACK writes into them."""
    dl, d, du = (np.array(b, dtype=float) for b in (dl, d, du))
    if d.ndim != 1 or not dl.shape == du.shape == (max(len(d) - 1, 0),):
        raise ValueError(f"bands of shapes {dl.shape}, {d.shape}, {du.shape}")
    return [dl, d, du]


class _ScipyLapack:
    """The same routines from scipy.linalg.lapack, for a numpy without them;
    its dgbtrf counts pivots from 0."""

    def __init__(self):
        from scipy.linalg import lapack

        self.lapack = lapack

    def dgttrf(self, dl, d, du, blocks=1):
        *factors, info = self.lapack.dgttrf(dl, d, du)
        return _blocks(factors, blocks,
                       lambda views, start: lambda rhs: self.lapack.dgttrs(*views, rhs)[0]), info

    def dgbtrf(self, ab, kl, ku):
        lu, piv, info = self.lapack.dgbtrf(ab, kl, ku)
        return [lu, piv], lambda rhs: self.lapack.dgbtrs(lu, kl, ku, rhs, piv)[0], info

    def dgtsv(self, dl, d, du, b):
        *_, x, info = self.lapack.dgtsv(dl, d, du, b)
        return x, info


@functools.cache
def _lapack():
    """numpy's bundled OpenBLAS if it exports the band routines, else
    scipy's LAPACK."""
    root = Path(np.__file__).parent
    for path in sorted((*(root.parent / "numpy.libs").glob("libscipy_openblas64_*"),
                        *(root / ".dylibs").glob("libscipy_openblas64_*"))):
        try:
            return _NumpyLapack(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):
            continue
    return _ScipyLapack()


class _BandLU:
    """LAPACK's LU with partial pivoting of the Banded matrix A, and its
    solve(rhs) for one or more columns: dgbtrf and dgbtrs on A's band
    storage.  There every row with no off-diagonal entry (a Dirichlet row) is
    scaled by the least power of two above max |A|, and solve scales the same
    rows of each right-hand side.  A power of two scales exactly, and the
    scaled diagonal exceeds every entry of A, so partial pivoting keeps those
    rows in place (unless elimination grows an entry of their column past
    it), and the solution there is the right-hand side exactly.  The
    factors are that storage, factored in place; when no interior row is
    swapped either, as for a column dominant A, U is solved at bandwidth ku
    (_NumpyLapack.dgbtrf).  An exactly singular U raises SolverError naming
    what A is."""

    def __init__(self, A: Banded, what: str):
        kl, ku = -A._terms[0][0], A._terms[-1][0]  # of the bands not all zero
        ab = np.zeros((2 * kl + ku + 1, A.n), order="F")
        alone, top = np.ones(A.n, dtype=bool), 0.0  # rows with no off-diagonal entry, max |A|
        for offset, rows, cols, band in A._terms:
            ab[kl + ku - offset, cols] = band
            top = max(top, float(np.max(np.abs(band))))
            if offset:
                alone[rows] &= band == 0.0
        dirichlet, scale = np.flatnonzero(alone), 2.0 ** math.frexp(top)[1]
        ab[kl + ku, dirichlet] *= scale
        self.factors, solve, info = _lapack().dgbtrf(ab, kl, ku)
        if info > 0:
            raise SolverError(f"{what} is exactly singular (zero pivot in row {info})")

        def scaled_solve(rhs):
            b = np.array(rhs, dtype=float, order="F")
            b[dirichlet] *= scale
            return solve(b)

        self.solve = scaled_solve


@dataclass
class SolveReport:
    solution: Field
    iterations: int = 1
    residual_history: list = dc_field(default_factory=list)
    converged: bool = True
    warnings: list = dc_field(default_factory=list)

    def require_converged(self, what: str) -> "SolveReport":
        """This report, or SolverError naming what and the first stalled level."""
        if not self.converged:
            stalled = next(w for w in self.warnings if w.startswith("newton stalled"))
            raise SolverError(f"{what}: {stalled}")
        return self


# ---------------------------------------------------------------------------
# Spatial operator assembly


def _along(axis, s, rest):
    """The slice tuple rest with s in place of its entry for axis."""
    return rest[:axis] + (s,) + rest[axis + 1:]


def assemble_operator(
    grid: SpaceTimeGrid,
    gamma: DiffusionTensor | None,
    t: float,
    advection=None,
):
    """L with L u = -div(gamma grad u) + advection . grad u on interior rows;
    boundary rows are zero.  One flux rule serves every axis: gamma's
    diagonal entry for the axis, sampled at the cell midpoints between a node
    and its neighbours one flat stride away on either side, couples the node
    to them, with the centred advection term, and the diagonal sums the axes
    in order.  In 2D gamma's off-diagonal entry at the nodes adds a centred
    cross term.  A potential q enters the stepper as the diagonal diag(q) on
    interior rows.  L is Banded: each interior row has the same column
    offsets.  A matrix gamma on a 1D grid raises ModelError."""
    if gamma is None:
        gamma = DiffusionTensor.identity()
    if grid.dim == 1 and gamma.is_matrix:
        raise ModelError("a matrix diffusion tensor (g11, g12, g22) needs a 2D grid; "
                         "this grid is 1D")
    meshes = grid.meshes()
    every, inner = (slice(None),) * grid.dim, (slice(1, -1),) * grid.dim
    lo, hi = slice(None, -1), slice(1, None)
    r = np.arange(grid.n_space).reshape(grid.nx)[inner]
    entries, diag = [], 0.0
    for axis, (h, stride) in enumerate(zip(grid.h, grid.strides)):
        # g[..., k, ...] at the midpoint k + 1/2 along the axis
        mid = [0.5 * (m[_along(axis, lo, every)] + m[_along(axis, hi, every)]) for m in meshes]
        g = np.broadcast_to(
            np.asarray(gamma.component(axis, axis, *mid, t=t), dtype=float), mid[0].shape
        )
        gl, gr = g[_along(axis, lo, inner)], g[_along(axis, hi, inner)]
        a = float(advection[axis]) if advection is not None else 0.0
        entries += [(-stride, -gl / h**2 - a / (2 * h)), (stride, -gr / h**2 + a / (2 * h))]
        diag = diag + (gl + gr) / h**2
    entries.append((0, diag))
    if grid.dim == 2:
        nx, ny = grid.nx
        hx, hy = grid.h
        X, Y = meshes
        g12 = np.broadcast_to(np.asarray(gamma.component(0, 1, X, Y, t), dtype=float), X.shape)
        if np.any(g12 != 0.0):
            # -d/dx(g12 du/dy) - d/dy(g12 du/dx), centered both ways
            cxy = 1.0 / (4 * hx * hy)
            for si in (-1, 1):
                for sj in (-1, 1):
                    g12_x = g12[1 + si:nx - 1 + si, 1:-1]
                    g12_y = g12[1:-1, 1 + sj:ny - 1 + sj]
                    entries.append((si * ny + sj, -si * sj * cxy * (g12_x + g12_y)))
    # every interior row r holds r + offset for the same offsets, which
    # Banded keeps ascending so that each row sums in column order
    bands = {}
    for offset, values in sorted(entries, key=lambda e: e[0]):
        bands[offset] = np.zeros(grid.n_space)
        bands[offset][r] = values
    return Banded(bands)


def potential_values(grid: SpaceTimeGrid, q) -> np.ndarray:
    """A potential given as None (zero), a scalar or a Q field, as values
    shaped (n_levels, *nx)."""
    if q is None:
        return np.zeros((grid.n_levels, *grid.nx))
    if np.isscalar(q):
        return np.full((grid.n_levels, *grid.nx), float(q))
    if isinstance(q, Field) and q.domain == DOMAIN_Q:
        return q.values
    raise GridError("q must be None, a scalar, or a Q field")


class Propagator:
    """theta-scheme time stepper.

    Step k solves A_k u_{k+1} = M_k u_k (+ source, + boundary values) with
    A_k = I + dt theta L_{k+1} and M_k = I_interior - dt (1 - theta) L_k,
    where L_k is the q-free operator plus diag(q_k) on interior rows.  L_k
    vanishes on boundary rows, so A_k has identity and M_k zero boundary
    rows: the stepper writes the Dirichlet values into the right-hand side.
    One step system serves all steps unless q or gamma depends on time.  A
    stepper forms every step's A and M at construction, their bands stacked
    (steps, n_space); only the bandwidth picks the LU: tridiagonal (1D) A_k
    are all factored at construction by one dgttrf call on their
    block-diagonal stack, and step k solves with block k; a wider (2D) A_k
    gets its band LU (_BandLU) when a step reaches it (step 0's at
    construction).  A stepper holds the LU of its last step.  A gamma passes
    DiffusionTensor.check_ellipticity first, else ModelError."""

    def __init__(self, grid: SpaceTimeGrid, gamma=None, q=None, scheme="be", advection=None):
        if scheme not in SCHEMES:
            raise SolverError(f"unknown scheme {scheme!r}")
        if gamma is not None:
            gamma.check_ellipticity(grid)
        self.grid, self.gamma, self.advection = grid, gamma, advection
        self.theta = SCHEMES[scheme]
        self.q_levels = potential_values(grid, q).reshape(grid.n_levels, -1)
        q_td = bool(np.any(self.q_levels[1:] != self.q_levels[0]))
        self.gamma_td = gamma.time_dependent() if gamma is not None else False
        self.time_dependent = td = q_td or self.gamma_td
        self.boundary_idx, self.interior_mask = grid.boundary_flat_indices(), grid.interior_mask()
        self._stencils, self._held = {}, (None, None)  # (step, its LU)
        self._A, self._M = self._matrices(*((slice(1, None), slice(-1)) if td else (0, 0)))
        A = self._A  # closed over below: a closure over self would make a reference cycle
        if max(A.bands) > 1:
            self._factor = lambda k: _BandLU(A.at(k if td else None),
                                             f"step matrix of time level {k + td}")
        else:  # zero couplings: each block factors as with its own dgttrf
            lower, diagonal, upper = (np.ravel(A.bands[o]) for o in (-1, 0, 1))
            blocks, info = _lapack().dgttrf(lower[1:], diagonal, upper[:-1],
                                            diagonal.size // grid.n_space)
            if info > 0:
                level, row = divmod(info - 1, grid.n_space)
                raise SolverError(f"step matrix of time level {level + td} is exactly singular "
                                  f"(zero pivot in row {row + 1})")
            self._factor = blocks.__getitem__
        self._lu(0)

    def _stencil(self, level):
        """Per gamma level, or stacked over a slice (zero where a level lacks an
        offset): the diagonal, and the bands of dt theta L and -dt (1 - theta) L."""
        g = self.grid
        if isinstance(level, slice):
            diag, *parts = zip(*(self._stencil(k) for k in range(g.n_levels)[level]))
            stack = np.array if self.gamma_td else lambda b: np.broadcast_to(b[0], (len(b), g.n_space))
            offsets, zero = sorted(set().union(*parts[0])), np.zeros(g.n_space)
            return stack(diag), *({o: stack([b.get(o, zero) for b in bs]) for o in offsets}
                                  for bs in parts)
        key = level if self.gamma_td else 0
        if key not in self._stencils:
            S = assemble_operator(g, self.gamma, key * g.dt, self.advection)
            self._stencils[key] = S.bands[0], *({o: c * b for o, b in S.bands.items()} for c in
                                                (g.dt * self.theta, -g.dt * (1 - self.theta)))
        return self._stencils[key]

    def _matrices(self, new, old):
        """A = I + dt theta L_new and M = I_interior - dt (1 - theta) L_old
        with L = stencil + diag(q) at the levels new and old (indices, or
        slices whose matrices stack): only the diagonals change per level."""
        ca, cm = self.grid.dt * self.theta, self.grid.dt * (1 - self.theta)
        (s_new, A, _), (s_old, _, M) = self._stencil(new), self._stencil(old)
        q_new, q_old = (np.where(self.interior_mask, self.q_levels[i], 0.0) for i in (new, old))
        return (Banded({**A, 0: 1.0 + ca * (s_new + q_new)}),
                Banded({**M, 0: np.where(self.interior_mask, 1.0 - cm * (s_old + q_old), 0.0)}))

    def _lu(self, k):
        """Step k's LU.  The stepper holds one, every step's unless it is
        time dependent; one of another step is dropped before step k's is
        factored, so that no two are alive at once."""
        key = k if self.time_dependent else 0
        if self._held[0] != key:
            self._held = None, None
            self._held = key, self._factor(key)
        return self._held[1]

    # -- sweeps ----------------------------------------------------------------

    def _solve(self, solve, rhs):
        if not np.iscomplexobj(rhs):
            return solve(rhs)
        both = solve(np.column_stack([rhs.real, rhs.imag]))  # real parts, then imaginary
        m = both.shape[1] // 2
        return (both[:, :m] + 1j * both[:, m:]).reshape(rhs.shape)

    def _operands(self, g0, f, source):
        """The column shape of g0, f and source, and the three as the steps
        use them: m columns on a trailing axis, an array without that axis
        lifted onto every column.  One column marches as a vector: the same
        arithmetic, cheaper steps."""
        n = self.grid.n_space
        ops = (g0, f, source)
        cols = (np.ndim(g0) == 2 and len(g0) == n, np.ndim(f) == 3,
                np.ndim(source) == 3 and np.shape(source)[1] == n)
        columns = next((np.shape(a)[-1:] for a, c in zip(ops, cols) if c), ())
        lift = (Ellipsis,) if columns in ((), (1,)) else (Ellipsis, None)
        if columns == (1,):
            ops = tuple(a[..., 0] if c else a for a, c in zip(ops, cols))
            cols = (False, False, False)
        shapes = ((n,), np.shape(ops[1]), (self.grid.n_levels, n))
        return columns, *(
            None if a is None else np.asarray(a) if c else np.asarray(a).reshape(shape)[lift]
            for a, c, shape in zip(ops, cols, shapes)
        )

    def _rhs(self, z, f, s, level):
        """Right-hand side of a step from the values z at its first level: M z
        (M at level of the stack, or None) + dt (theta s[1] + (1 - theta) s[0])
        on interior rows (no source for s None), its second level's boundary
        values f (or 0) elsewhere."""
        rhs = self._M.product(z, level)
        if s is not None:  # on every row: the boundary rows are overwritten next
            # at theta = 1 the s[0] term is a signed zero, and adding one
            # leaves M z, a sum started at +0, as it is
            s = s[1] if self.theta == 1.0 else self.theta * s[1] + (1 - self.theta) * s[0]
            rhs = rhs + self.grid.dt * s
        rhs[self.boundary_idx] = f if f is not None else 0.0
        return rhs

    def step(self, k, z, f=None, s=None):
        """The values at level k + 1 from the values z (n_space[, m]) at level
        k: f, the boundary values of level k + 1, and s, the source at levels
        k and k + 1, as one level of run's operands."""
        return self._solve(self._lu(k).solve, self._rhs(z, f, s, k if self.time_dependent else None))

    def run(self, g0=None, f=None, source=None) -> np.ndarray:
        """March the scheme; returns values shaped (n_levels, n_space).

        g0: initial values (n_space,) or space-shaped; f: boundary trace
        (n_levels, n_boundary) in boundary_flat_indices order; source: values
        (n_levels, n_space) added as +source on the right-hand side.  Each may
        carry m columns on a trailing axis, marched at once into (n_levels,
        n_space, m); one without that axis is shared by every column.
        """
        grid = self.grid
        dtype = complex if any(np.iscomplexobj(a) for a in (g0, f, source)) else float
        columns, g0, f, src = self._operands(g0, f, source)
        u = np.zeros((grid.n_levels, grid.n_space, *columns), dtype=dtype)
        vals = u[..., 0] if columns == (1,) else u
        if g0 is not None:
            vals[0] = g0
        if f is not None:
            vals[0, self.boundary_idx] = f[0]
        for k in range(grid.nt):
            vals[k + 1] = self.step(k, vals[k], None if f is None else f[k + 1],
                                    None if src is None else src[k:k + 2])
        return u

    def residual(self, u, f=None, source=None) -> np.ndarray:
        """Per column of u (n_levels, n_space[, m]), the largest
        |A_k u_{k+1} - rhs_k| over the steps k, with rhs_k formed from f and
        source as run forms it; shaped like one level's columns.  The steps
        sharing a system (all, unless it is time dependent) are one product
        with A and one with M of the stacks (no LU), bitwise the per-step max."""
        columns, _, f, src = self._operands(u[0], f, source)  # u[0] sets the columns
        z = u[..., 0] if columns == (1,) else u
        z, f, src = (None if a is None else np.moveaxis(a, 1, 0) for a in (z, f, src))
        worst, nt, td = np.zeros(z.shape[2:]), self.grid.nt, self.time_dependent
        for k, stop in zip(range(nt), range(1, nt + 1)) if td else [(0, nt)]:
            level, now, ahead = k if td else None, slice(k, stop), slice(k + 1, stop + 1)
            rhs = self._rhs(z[:, now], None if f is None else f[:, ahead],
                            None if src is None else (src[:, now], src[:, ahead]), level)
            worst = np.maximum(worst, np.max(np.abs(self._A.product(z[:, ahead], level) - rhs),
                                             axis=(0, 1)))
        return worst.reshape(columns)


# ---------------------------------------------------------------------------
# Boundary traces and compatibility


def trace_values(grid: SpaceTimeGrid, f):
    """Boundary values ordered by boundary_flat_indices for every level."""
    bd = grid.boundary_flat_indices()
    if f is None:
        return None
    if isinstance(f, Field):
        if f.domain != DOMAIN_SIGMA:
            raise GridError("boundary data must be a Sigma field")
        # scatter the portion trace onto the full boundary ordering, zero off
        # the portion; corners visited by two faces are averaged
        pos = np.searchsorted(bd, f.portion.flat)
        acc = np.zeros((grid.n_levels, len(bd)), dtype=f.values.dtype)
        np.add.at(acc, (slice(None), pos), f.values)
        cnt = np.bincount(pos, minlength=len(bd))
        nonzero = cnt > 0
        acc[:, nonzero] /= cnt[nonzero]
        return acc
    arr = np.asarray(f)
    if arr.shape != (grid.n_levels, len(bd)):
        raise GridError("trace array must be (n_levels, n_boundary_nodes)")
    return arr


def check_compatibility(grid, g, f_values) -> None:
    """Discrete compatibility g|_Gamma = f(., 0) to 1e-9, for every column of f."""
    bd = grid.boundary_flat_indices()
    gb = np.zeros(len(bd)) if g is None else np.asarray(g.values).reshape(-1)[bd]
    fb = np.zeros(len(bd)) if f_values is None else f_values[0]
    gap = float(np.max(np.abs(gb[:, None] - np.reshape(fb, (len(bd), -1))))) if len(bd) else 0.0
    if gap > 1e-9:
        raise CompatibilityError(f"g|Gamma vs f(.,0) mismatch {gap:.3g} exceeds 1e-09")


# ---------------------------------------------------------------------------
# Linear and semilinear solves


def solve_linear(
    grid: SpaceTimeGrid,
    gamma: DiffusionTensor | None = None,
    q=None,
    f=None,
    g: Field | None = None,
    source: Field | None = None,
    scheme: str = "be",
) -> SolveReport:
    """u_t - div(gamma grad u) + q u = source, u|Sigma = f, u(0) = g."""
    f_vals = trace_values(grid, f)
    check_compatibility(grid, g, f_vals)
    src = source.values if isinstance(source, Field) else source
    vals = Propagator(grid, gamma, q, scheme).run(
        g0=None if g is None else g.values.reshape(-1),
        f=f_vals,
        source=src,
    )
    if not np.all(np.isfinite(vals)):
        raise SolverError("linear solve produced non-finite values")
    sol = Field(grid, vals.reshape(grid.n_levels, *grid.nx), DOMAIN_Q)
    return SolveReport(sol, iterations=1, converged=True)


def solve_semilinear(
    grid: SpaceTimeGrid,
    gamma: DiffusionTensor | None,
    nl: Nonlinearity,
    f=None,
    g: Field | None = None,
    scheme: str = "be",
    max_iter: int = 30,
) -> SolveReport:
    """u_t - div(gamma grad u) + nl(x,t,u) = 0, u|Sigma = f, u(0) = g: the
    one-column case of semilinear_columns.  A level whose Newton reached the
    cap leaves converged False and a warning."""
    f_vals = trace_values(grid, f)
    warnings = []
    if nl.tag == CLASS_ANALYTIC:
        size = 0.0
        if g is not None:
            size += norm(g, "L2Omega")
        if isinstance(f, Field):
            size += norm(f, "L2Sigma")
        if size > 1.0:
            warnings.append(
                f"data size {size:.3g} exceeds the smallness gate 1; well-posedness not asserted"
            )
    res = semilinear_columns(grid, gamma, nl, None if f_vals is None else f_vals[..., None], g,
                             scheme, max_iter=max_iter)
    warnings += [f"newton stalled at time level {k + 1}" for k in np.flatnonzero(res.stalled)]
    sol = Field(grid, res.values.reshape(grid.n_levels, *grid.nx), DOMAIN_Q)
    return SolveReport(sol, res.iterations, res.history[:, 0].tolist(), bool(res.converged[0]),
                       warnings)


@dataclass
class ColumnSolves:
    """m semilinear solves marched together: values (n_levels, n_space, m),
    each column's Newton iterations (iterations is their sum), stalled
    (nt, m) marking the levels whose Newton reached the cap, and history
    (nt, m), each level's last scaled Newton update (no rows for a sweep)."""

    values: np.ndarray
    column_iterations: np.ndarray
    stalled: np.ndarray
    history: np.ndarray

    def __post_init__(self):
        self.iterations = int(self.column_iterations.sum())
        self.converged = ~self.stalled.any(axis=0)


def semilinear_columns(grid, gamma, nl, f_vals, g=None, scheme="be", tol=1e-10,
                       max_iter=30) -> ColumnSolves:
    """m solves of u_t - div(gamma grad u) + nl(x,t,u) = 0, u(0) = g, one per
    boundary trace column of f_vals (n_levels, n_boundary, m), or one with
    u|Sigma = 0 for f_vals None.  A term affine in u (Nonlinearity.is_affine)
    is one m-column linear sweep with the potential d_u nl(x,t,0) and the
    source -nl(x,t,0), its Taylor coefficients of orders 1 and 0 along u = 0
    (Nonlinearity.along); any other is one batched _newton.  An unknown
    scheme raises SolverError."""
    if scheme not in SCHEMES:
        raise SolverError(f"unknown scheme {scheme!r}")
    if max_iter < 1:
        raise SolverError(f"max_iter must be >= 1, got {max_iter}")
    check_compatibility(grid, g, f_vals)
    if not nl.is_affine():
        return _newton(grid, gamma, nl, f_vals, g, scheme, tol, max_iter)
    a0, q = (nl.along(zero_field(grid), k) for k in (0, 1))
    src = -a0.values if np.any(a0.values != 0.0) else None
    vals = Propagator(grid, gamma, q, scheme).run(
        g0=None if g is None else g.values.reshape(-1), f=f_vals, source=src
    ).reshape(grid.n_levels, grid.n_space, -1)
    if not np.all(np.isfinite(vals)):
        raise SolverError("linear solve produced non-finite values")
    m = vals.shape[-1]
    return ColumnSolves(vals, np.ones(m, dtype=int), np.zeros((grid.nt, m), bool), np.zeros((0, m)))


def _newton(grid, gamma, nl, f_vals, g, scheme, tol, max_iter) -> ColumnSolves:
    """Per-level Newton for m boundary-data columns at once: v + dt theta
    (L v + a(v)) = u_k - dt (1 - theta) (L u_k + a(u_k)) on interior rows,
    v = f on the boundary.  The columns share one block-diagonal Jacobian
    kron(I_m, I + dt theta L) + dt theta diag(d_u a), which already has
    identity boundary rows because L and d_u a vanish there; its off-diagonal
    part is built once per distinct gamma level, and each iteration rewrites
    only its diagonal and makes one solve.  L0 is Banded and applied to the
    (n, m) block of columns; the Jacobian is L0 tiled m times.  A 1D
    Jacobian is solved by LAPACK's dgtsv, a wider one through _BandLU, both
    with partial pivoting; an exactly singular one raises SolverError.  At
    theta = 1 the explicit term, whose factor dt (1 - theta) is zero, is not
    formed, as in Propagator._rhs.  A column whose scaled update passes the
    tolerance is frozen for the rest of the level, so every column takes
    exactly the iterates of its own single-column solve.  A given gamma
    passes DiffusionTensor.check_ellipticity first, else ModelError."""
    if gamma is not None:
        gamma.check_ellipticity(grid)
    theta = SCHEMES[scheme]
    n = grid.n_space
    m = 1 if f_vals is None else f_vals.shape[-1]
    dt = grid.dt
    bd = grid.boundary_flat_indices()
    interior = grid.interior_mask()[:, None]
    xs, *ys = (m.reshape(-1, 1) for m in grid.meshes())
    gamma_td = gamma.time_dependent() if gamma is not None else False
    operators = {}

    def operator(level):
        """L0 at a level, and solve(shift, rhs, k), the solution of
        (kron(I_m, I + dt theta L0) + diag(shift)) x = rhs at time level k,
        shift, rhs and x stacked column after column."""
        if not gamma_td:
            level = 0
        if level not in operators:
            L = assemble_operator(grid, gamma, level * dt)
            J = L.tiled(m).scaled(dt * theta)
            d0 = 1.0 + J.bands[0]
            if list(J.bands) == [-1, 0, 1]:
                dl, du = J.bands[-1][1:], J.bands[1][:-1]

                def solve(shift, rhs, k):
                    x, info = _lapack().dgtsv(dl, d0 + shift, du, rhs)
                    if info > 0:
                        raise SolverError(f"newton Jacobian at time level {k} is exactly singular")
                    return x
            else:
                def solve(shift, rhs, k):
                    lu = _BandLU(Banded({**J.bands, 0: d0 + shift}),
                                 f"newton Jacobian at time level {k}")
                    return lu.solve(rhs)
            operators[level] = L, solve
        return operators[level]

    zeros = np.zeros((n, m))

    def a_of(level, v, k):
        """k-th u-derivative of nl at the columns v, zero off the interior."""
        return np.where(interior, nl(xs, level * dt, v, *ys, k=k), zeros)

    u = np.zeros((grid.n_levels, n, m))
    if g is not None:
        u[0] = g.values.reshape(-1, 1)
    if f_vals is not None:
        u[0, bd] = f_vals[0]
    iterations = np.zeros(m, dtype=int)
    stalled = np.zeros((grid.nt, m), dtype=bool)
    history = np.zeros((grid.nt, m))
    for k in range(grid.nt):
        rhs_expl = u[k]
        if theta != 1.0:
            rhs_expl = u[k] - dt * (1 - theta) * (operator(k)[0] @ u[k] + a_of(k, u[k], 0))
        v = u[k].copy()
        fb = f_vals[k + 1] if f_vals is not None else 0.0
        L, solve = operator(k + 1)
        active = np.ones(m, dtype=bool)
        for _ in range(max_iter):
            res = v + dt * theta * (L @ v + a_of(k + 1, v, 0)) - rhs_expl
            res[bd] = v[bd] - fb
            shift = dt * theta * a_of(k + 1, v, 1).ravel("F")
            delta = solve(shift, res.ravel("F"), k + 1).reshape(m, n).T
            np.subtract(v, delta, out=v, where=active)
            iterations += active
            scale = np.maximum(1.0, np.max(np.abs(v), axis=0))
            step = np.max(np.abs(delta), axis=0)
            np.divide(step, scale, out=history[k], where=active)
            active &= ~(step <= tol * scale)
            if not active.any():
                break
        stalled[k] = active
        if not np.all(np.isfinite(v)):
            raise SolverError(f"newton produced non-finite values at time level {k + 1}")
        u[k + 1] = v
    return ColumnSolves(u, iterations, stalled, history)

