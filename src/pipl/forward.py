"""Finite-difference parabolic solvers.

Space: second-order central differences in conservative (flux) form, the
diffusion tensor sampled at cell midpoints, so the interior operator is
symmetric.  Time: implicit Euler ("be", default) or Crank-Nicolson ("cn").

The q-free operator is assembled from index arrays in one COO -> CSR step
and leaves boundary rows zero; a potential enters as a diagonal on interior
rows, so Dirichlet rows need no rewriting.  The Propagator owns the
per-level step matrices and their factorizations: in 1D, where every step
matrix is tridiagonal, LAPACK's partial-pivoting tridiagonal LU (?gttrf);
in 2D SuperLU, with SYMMETRIC_LU when every row is diagonally dominant, else
partial pivoting.  A sweep carries any number of columns, each with its own
initial values, boundary trace and source, with one multi-column solve per
step, and the residual of those steps is checked from the same right-hand
sides.  Semilinear solves march columns too: a term affine in u is one
linear sweep, any other one per-step Newton whose columns share a
block-diagonal Jacobian and one solve per iteration (one tridiagonal ?gtsv
in 1D, one sparse spsolve in 2D).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .grid import (
    DOMAIN_Q,
    DOMAIN_SIGMA,
    Field,
    GridError,
    SpaceTimeGrid,
    norm,
    zero_field,
)
from .model import CLASS_ANALYTIC, DiffusionTensor, Nonlinearity, taylor_table

SCHEMES = {"be": 1.0, "cn": 0.5}

# SuperLU's symmetric mode: diagonal pivots in a minimum-degree order of A + A^T,
# sparser than COLAMD with partial pivoting.  Unpivoted elimination of a row
# diagonally dominant matrix has growth factor <= 2 (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., 9.5).
SYMMETRIC_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})


class SolverError(RuntimeError):
    pass


class CompatibilityError(SolverError):
    """Initial and boundary data disagree on the boundary at t = 0."""


class _TridiagonalLU:
    """LAPACK's LU with partial pivoting (dgttrf) of the tridiagonal matrix
    with sub-, main and super-diagonals dl, d, du, and SuperLU's solve(rhs)
    for one or more columns (dgttrs).  An exactly singular U raises
    SolverError naming the time level of the matrix."""

    def __init__(self, dl, d, du, level):
        *self.factors, info = lapack.dgttrf(dl, d, du)
        if info > 0:
            raise SolverError(f"step matrix of time level {level} is exactly singular "
                              f"(zero pivot in row {info})")

    def solve(self, rhs):
        return lapack.dgttrs(*self.factors, rhs)[0]


@dataclass
class SolveReport:
    solution: Field
    iterations: int = 1
    residual_history: list = dc_field(default_factory=list)
    converged: bool = True
    scheme: str = "be"
    warnings: list = dc_field(default_factory=list)

    def require_converged(self, what: str) -> "SolveReport":
        """This report, or SolverError naming what and the first stalled level."""
        if not self.converged:
            stalled = next(w for w in self.warnings if w.startswith("newton stalled"))
            raise SolverError(f"{what}: {stalled}")
        return self


# ---------------------------------------------------------------------------
# Spatial operator assembly


def _diffusion_at_midpoints(grid: SpaceTimeGrid, gamma: DiffusionTensor | None, t: float):
    """Diffusion entries at cell midpoints (per axis) and nodes (cross terms)."""
    if gamma is None:
        gamma = DiffusionTensor.identity()
    out = {}
    if grid.dim == 1:
        x = grid.axis(0)
        xm = 0.5 * (x[:-1] + x[1:])
        out["g11_mid"] = np.broadcast_to(
            np.asarray(gamma.component(0, 0, xm, t=t), dtype=float), xm.shape
        )
        return out
    X, Y = grid.meshes()
    xm = 0.5 * (X[:-1, :] + X[1:, :])
    ym_x = 0.5 * (Y[:-1, :] + Y[1:, :])
    out["g11_midx"] = np.broadcast_to(
        np.asarray(gamma.component(0, 0, xm, ym_x, t), dtype=float), xm.shape
    )
    xm_y = 0.5 * (X[:, :-1] + X[:, 1:])
    ym = 0.5 * (Y[:, :-1] + Y[:, 1:])
    out["g22_midy"] = np.broadcast_to(
        np.asarray(gamma.component(1, 1, xm_y, ym, t), dtype=float), ym.shape
    )
    out["g12_node"] = np.broadcast_to(
        np.asarray(gamma.component(0, 1, X, Y, t), dtype=float), X.shape
    )
    return out


def assemble_operator(
    grid: SpaceTimeGrid,
    gamma: DiffusionTensor | None,
    t: float,
    advection=None,
) -> sp.csr_matrix:
    """Sparse L with L u = -div(gamma grad u) + advection . grad u on interior
    rows; boundary rows are zero.  A potential q enters the stepper as the
    diagonal diag(q) on interior rows."""
    samples = _diffusion_at_midpoints(grid, gamma, t)
    if grid.dim == 1:
        h = grid.h[0]
        gm = samples["g11_mid"]  # gm[i] at midpoint i+1/2
        a = float(advection[0]) if advection is not None else 0.0
        r = np.arange(1, grid.nx[0] - 1)
        gl, gr = gm[:-1], gm[1:]
        entries = [
            (r - 1, -gl / h**2 - a / (2 * h)),
            (r, (gl + gr) / h**2),
            (r + 1, -gr / h**2 + a / (2 * h)),
        ]
    else:
        nx, ny = grid.nx
        hx, hy = grid.h
        g11 = samples["g11_midx"]   # (nx-1, ny) at (i+1/2, j)
        g22 = samples["g22_midy"]   # (nx, ny-1) at (i, j+1/2)
        g12 = samples["g12_node"]   # node values
        ax = float(advection[0]) if advection is not None else 0.0
        ay = float(advection[1]) if advection is not None else 0.0
        r = np.arange(nx * ny).reshape(nx, ny)[1:-1, 1:-1]
        gl, gr = g11[:-1, 1:-1], g11[1:, 1:-1]
        gb, gt = g22[1:-1, :-1], g22[1:-1, 1:]
        entries = [
            (r - ny, -gl / hx**2 - ax / (2 * hx)),
            (r + ny, -gr / hx**2 + ax / (2 * hx)),
            (r - 1, -gb / hy**2 - ay / (2 * hy)),
            (r + 1, -gt / hy**2 + ay / (2 * hy)),
            (r, (gl + gr) / hx**2 + (gb + gt) / hy**2),
        ]
        if np.any(g12 != 0.0):
            # -d/dx(g12 du/dy) - d/dy(g12 du/dx), centered both ways
            cxy = 1.0 / (4 * hx * hy)
            for si in (-1, 1):
                for sj in (-1, 1):
                    g12_x = g12[1 + si:nx - 1 + si, 1:-1]
                    g12_y = g12[1:-1, 1 + sj:ny - 1 + sj]
                    entries.append((r + si * ny + sj, -si * sj * cxy * (g12_x + g12_y)))
    rows = np.concatenate([np.ravel(r)] * len(entries))
    cols = np.concatenate([np.ravel(c) for c, _ in entries])
    vals = np.concatenate([np.ravel(v) for _, v in entries])
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.n_space, grid.n_space))


def _pattern(off, diag_rows, fmt):
    """The nonzero off-diagonal entries of the sparse matrix off plus a
    diagonal entry on each of diag_rows, canonical in fmt ("csr" or "csc"),
    and the positions of that diagonal in its data."""
    off = off.tocoo()
    keep = (off.row != off.col) & (off.data != 0)
    P = sp.coo_matrix(
        (np.concatenate([off.data[keep], np.ones(len(diag_rows))]),
         (np.concatenate([off.row[keep], diag_rows]), np.concatenate([off.col[keep], diag_rows]))),
        shape=off.shape,
    ).asformat(fmt)
    major = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
    return P, np.flatnonzero(P.indices == major)


def _with_diagonal(P, diag, values):
    """P sharing its pattern, with values on its diagonal; an entry that comes
    out zero is dropped, as a sum of sparse matrices drops it."""
    data = P.data.copy()
    data[diag] = values
    out = type(P)((data, P.indices, P.indptr), shape=P.shape)
    if not np.all(values):
        out = out.copy()  # own index arrays before pruning them
        out.eliminate_zeros()
    return out


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
    """theta-scheme time stepper with cached LU factorizations.

    Step k solves A_k u_{k+1} = M_k u_k (+ source, + boundary values) with
    A_k = I + dt theta L_{k+1} and M_k = I_interior - dt (1 - theta) L_k,
    where L_k is the q-free operator plus diag(q_k) on interior rows.  L_k
    vanishes on boundary rows, so A_k has identity and M_k zero boundary
    rows: the stepper writes the Dirichlet values into the right-hand side.
    The stencil is assembled once per distinct gamma level, and with it the
    sparsity patterns of A and M, which a level fills by writing only their
    diagonals; A_k, its LU and M_k are kept once per distinct level (once in
    all when neither q nor gamma depends on time).  In 1D A_k is tridiagonal
    and factored by _TridiagonalLU from its diagonal and the stencil's +-1
    diagonals.  In 2D SuperLU factors it, with SYMMETRIC_LU when every row's
    diagonal is at least its off-diagonal absolute sum, and with its default
    partial pivoting otherwise."""

    def __init__(self, grid: SpaceTimeGrid, gamma=None, q=None, scheme="be", advection=None):
        if scheme not in SCHEMES:
            raise SolverError(f"unknown scheme {scheme!r}")
        self.grid = grid
        self.scheme = scheme
        self.theta = SCHEMES[scheme]
        self.gamma = gamma
        self.advection = advection
        self.q_levels = potential_values(grid, q).reshape(grid.n_levels, -1)
        q_td = any(not np.array_equal(self.q_levels[0], lvl) for lvl in self.q_levels[1:])
        self.gamma_td = gamma.time_dependent() if gamma is not None else False
        self.time_dependent = q_td or self.gamma_td
        self.boundary_idx = grid.boundary_flat_indices()
        self.interior_mask = grid.interior_mask()
        self._build()

    def _build(self):
        g = self.grid
        ca, cm = g.dt * self.theta, g.dt * (1 - self.theta)
        q = np.where(self.interior_mask, self.q_levels, 0.0)
        interior = np.flatnonzero(self.interior_mask)
        patterns = {}

        def pattern(level):
            """Per gamma level: the stencil's diagonal, the patterns of A
            (CSC, every row) and M (CSR, interior rows), off-diagonal values
            dt theta L and -dt (1 - theta) L, and what factoring A needs
            besides its diagonal: in 1D its -1 and +1 diagonals, in 2D its
            off-diagonal absolute row sums."""
            key = level if self.gamma_td else 0
            if key not in patterns:
                S = assemble_operator(g, self.gamma, key * g.dt, self.advection)
                A, a_diag = _pattern(ca * S, np.arange(g.n_space), "csc")
                if g.dim == 1:
                    off = (ca * S.diagonal(-1), ca * S.diagonal(1))
                else:
                    off = np.bincount(np.delete(A.indices, a_diag),
                                      np.abs(np.delete(A.data, a_diag)), minlength=g.n_space)
                patterns[key] = (S.diagonal(), (A, a_diag, off),
                                 _pattern(-(cm * S), interior, "csr"))
            return patterns[key]

        def step(new, old):
            # A = I + dt theta L_new and M = I_interior - dt (1 - theta) L_old
            # with L = stencil + diag(q): only the diagonals change per level
            s_new, (A, a_diag, off), _ = pattern(new)
            s_old, _, (M, m_diag) = pattern(old)
            a_vals = 1.0 + ca * (s_new + q[new])
            A = _with_diagonal(A, a_diag, a_vals)
            M = _with_diagonal(M, m_diag, (1.0 - cm * (s_old + q[old]))[interior])
            if g.dim == 1:
                return A, M, _TridiagonalLU(off[0], a_vals, off[1], new)
            return A, M, spla.splu(A, **(SYMMETRIC_LU if np.all(np.abs(a_vals) >= off) else {}))

        if self.time_dependent:
            steps = [step(k + 1, k) for k in range(g.nt)]
        else:
            steps = [step(0, 0)] * g.nt
        self.A_list, self.M_list, self.lu_list = (list(m) for m in zip(*steps))

    # -- sweeps ----------------------------------------------------------------

    def _solve(self, lu, rhs):
        if np.iscomplexobj(rhs):
            both = lu.solve(np.column_stack([rhs.real, rhs.imag]))
            if rhs.ndim == 2:  # m columns: real parts, then imaginary parts
                return both[:, : rhs.shape[1]] + 1j * both[:, rhs.shape[1] :]
            return both[:, 0] + 1j * both[:, 1]
        return lu.solve(rhs)

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

    def _step_rhs(self, k, z, f, src):
        """Right-hand side of step k from the values z at level k: M_k z +
        dt (theta s_{k+1} + (1 - theta) s_k) on interior rows, the boundary
        values f_{k+1} (zero for f None) on boundary rows."""
        rhs = self.M_list[k] @ z
        if src is not None:  # on every row: the boundary rows are overwritten next
            rhs = rhs + self.grid.dt * (self.theta * src[k + 1] + (1 - self.theta) * src[k])
        rhs[self.boundary_idx] = f[k + 1] if f is not None else 0.0
        return rhs

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
            vals[k + 1] = self._solve(self.lu_list[k], self._step_rhs(k, vals[k], f, src))
        return u

    def residual(self, u, f=None, source=None) -> np.ndarray:
        """Per column of u (n_levels, n_space[, m]), the largest
        |A_k u_{k+1} - rhs_k| over the steps k, with rhs_k formed from f and
        source as run forms it; shaped like one level's columns."""
        columns, _, f, src = self._operands(u[0], f, source)  # u[0] sets the columns
        z = u[..., 0] if columns == (1,) else u
        worst = np.zeros(z.shape[2:])
        for k in range(self.grid.nt):
            step = np.abs(self.A_list[k] @ z[k + 1] - self._step_rhs(k, z[k], f, src))
            worst = np.maximum(worst, np.max(step, axis=0))
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
        pos = {flat: i for i, flat in enumerate(bd)}
        acc = np.zeros((grid.n_levels, len(bd)), dtype=f.values.dtype)
        cnt = np.zeros(len(bd))
        for col, flat in enumerate(f.portion.flat):
            i = pos[int(flat)]
            acc[:, i] += f.values[:, col]
            cnt[i] += 1
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
    return SolveReport(sol, iterations=1, converged=True, scheme=scheme)


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
                       scheme, warnings)


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
    source -nl(x,t,0); any other is one batched _newton."""
    if max_iter < 1:
        raise SolverError(f"max_iter must be >= 1, got {max_iter}")
    check_compatibility(grid, g, f_vals)
    if not nl.is_affine():
        return _newton(grid, gamma, nl, f_vals, g, scheme, tol, max_iter)
    a0, q = taylor_table(nl, zero_field(grid), 1).coefficients
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
    only its diagonal and makes one solve.  In 1D the Jacobian is one
    tridiagonal matrix whose entries coupling the blocks are exact zeros,
    solved by LAPACK's dgtsv (partial pivoting; an exactly singular one
    raises SolverError); in 2D it is a CSC matrix solved by spsolve.  A
    column whose scaled update passes the tolerance is frozen for the rest
    of the level, so every column takes exactly the iterates of its own
    single-column solve."""
    theta = SCHEMES[scheme]
    n = grid.n_space
    m = 1 if f_vals is None else f_vals.shape[-1]
    dt = grid.dt
    bd = grid.boundary_flat_indices()
    interior = grid.interior_mask()[:, None]
    meshes = grid.meshes()
    xs = meshes[0].reshape(-1, 1)
    ys = meshes[1].reshape(-1, 1) if grid.dim == 2 else 0.0

    eye = sp.identity(n, format="csr")
    gamma_td = gamma.time_dependent() if gamma is not None else False
    operators = {}

    def operator(level):
        """L0 at a level and solve(shift, rhs, k), the solution of
        (kron(I_m, I + dt theta L0) + diag(shift)) x = rhs at time level k,
        shift, rhs and x stacked column after column."""
        if not gamma_td:
            level = 0
        if level not in operators:
            L0 = assemble_operator(grid, gamma, level * dt)
            block = eye + dt * theta * L0
            if grid.dim == 1:
                d0 = np.tile(block.diagonal(), m)
                dl, du = (np.tile(np.append(block.diagonal(j), 0.0), m)[:-1] for j in (-1, 1))

                def solve(shift, rhs, k):
                    *_, x, info = lapack.dgtsv(dl, d0 + shift, du, rhs, overwrite_d=1)
                    if info > 0:
                        raise SolverError(f"newton Jacobian at time level {k} is exactly singular")
                    return x
            else:
                J = sp.kron(sp.identity(m), block, format="csc")
                cols = np.repeat(np.arange(n * m), np.diff(J.indptr))
                diag = np.flatnonzero(J.indices == cols)
                if len(diag) != n * m:
                    raise SolverError("newton Jacobian has a structural zero on its diagonal")
                d0 = J.data[diag]

                def solve(shift, rhs, k):
                    J.data[diag] = d0 + shift
                    return spla.spsolve(J, rhs)
            operators[level] = L0, solve
        return operators[level]

    def a_of(level, v, k):
        """k-th u-derivative of nl at the columns v, zero off the interior."""
        out = np.broadcast_to(np.asarray(nl(xs, level * dt, v, y=ys, k=k), dtype=float), (n, m))
        return np.where(interior, out, 0.0)

    u = np.zeros((grid.n_levels, n, m))
    if g is not None:
        u[0] = g.values.reshape(-1, 1)
    if f_vals is not None:
        u[0, bd] = f_vals[0]
    iterations = np.zeros(m, dtype=int)
    stalled = np.zeros((grid.nt, m), dtype=bool)
    history = np.zeros((grid.nt, m))
    for k in range(grid.nt):
        rhs_expl = u[k] - dt * (1 - theta) * (operator(k)[0] @ u[k] + a_of(k, u[k], 0))
        v = u[k].copy()
        fb = f_vals[k + 1] if f_vals is not None else 0.0
        L1, solve = operator(k + 1)
        active = np.ones(m, dtype=bool)
        for _ in range(max_iter):
            res = v + dt * theta * ((L1 @ v) + a_of(k + 1, v, 0)) - rhs_expl
            res[bd] = v[bd] - fb
            shift = dt * theta * a_of(k + 1, v, 1).ravel("F")
            delta = solve(shift, res.ravel("F"), k + 1).reshape(m, n).T
            v[:, active] -= delta[:, active]
            iterations += active
            scale = np.maximum(1.0, np.max(np.abs(v), axis=0))
            step = np.max(np.abs(delta), axis=0)
            history[k, active] = step[active] / scale[active]
            active &= ~(step <= tol * scale)
            if not active.any():
                break
        stalled[k] = active
        if not np.all(np.isfinite(v)):
            raise SolverError(f"newton produced non-finite values at time level {k + 1}")
        u[k + 1] = v
    return ColumnSolves(u, iterations, stalled, history)

