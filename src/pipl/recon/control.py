"""Boundary null control: steer the state to approximately zero at T - eps.

The steering functional ||u(., T-eps)||^2 + alpha ||f||^2 is minimized over a
finite control basis (boundary-node hats times time B-splines vanishing at
t = 0) by conjugate-gradient iteration on the normal equations of the
control-to-state columns, which one multi-column sweep forms.  The control
is extended by zero on [T-eps, T]; under a B_T tail, a nonlinearity glued
on at T - eps that vanishes at u = 0, the continued free solution then
stays near zero, which the continuation check certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..forward import Propagator, solve_semilinear
from ..grid import (
    DOMAIN_OMEGA,
    BoundaryPortion,
    Field,
    GridError,
    ResolvedPortion,
    SpaceTimeGrid,
    norm,
    resolve_portion,
)
from ..model import Nonlinearity


def horizon_level(grid: SpaceTimeGrid, eps: float, tail: Nonlinearity | None = None) -> int:
    """The time level K of T - eps, after null_control's checks: GridError
    unless eps lies in (0, T) with T - eps on a time level that leaves at
    least 2 steps before it and, when a B_T tail is given, 2 after it; then
    the tail's class check, Nonlinearity.validate (a tail parsed with the
    default admissible-analytic tag must vanish at u = 0)."""
    if not 0 < eps < grid.T:
        raise GridError(f"eps = {eps!r} must lie in (0, T) = (0, {grid.T!r})")
    horizon = grid.T - eps
    K = int(round(horizon / grid.dt))
    if abs(K * grid.dt - horizon) > 1e-12 * grid.T or K < 2:
        raise GridError("T - eps must sit on a time level with at least 2 steps")
    if tail is not None:
        if grid.nt - K < 2:
            raise GridError(f"eps = {eps!r} leaves {grid.nt - K} time step(s) after T - eps; "
                            "the free continuation needs at least 2")
        tail.validate(grid)
    return K


def bspline_element(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """B-spline of degree len(knots) - 2 on the given knots at x, by the
    Cox-de Boor recursion; zero off the half-open support [knots[0], knots[-1])."""
    x = np.asarray(x, dtype=float)
    b = [((lo <= x) & (x < hi)).astype(float) for lo, hi in zip(knots[:-1], knots[1:])]

    def ramp(b_i, rise, width):  # a zero-width span contributes nothing
        return b_i / width * rise if width > 0 else 0.0

    for p in range(1, len(knots) - 1):
        b = [
            ramp(b[i], x - knots[i], knots[i + p] - knots[i])
            + ramp(b[i + 1], knots[i + p + 1] - x, knots[i + p + 1] - knots[i + 1])
            for i in range(len(b) - 1)
        ]
    return b[0]


def control_basis(grid: SpaceTimeGrid, portion: ResolvedPortion, n_time: int, horizon: float):
    """Tensor basis, node-major: hat per portion node x quadratic B-splines on
    [0, horizon] that vanish at t = 0.  Returns trace arrays over the FULL
    boundary node ordering, zero off the portion, zero beyond the horizon.
    The last span is closed when the horizon is T, so the family reaches the
    final level; a control before T vanishes at its horizon."""
    bd = grid.boundary_flat_indices()
    times = grid.times()
    degree = 2
    n_knots = n_time + degree + 1
    inner = np.linspace(0.0, horizon, n_knots - 2 * degree)
    knots = np.concatenate([[0.0] * degree, inner, [horizon] * degree])
    splines = []
    for j in range(n_time):
        vals = bspline_element(knots[j : j + degree + 2], times)
        if horizon == grid.T:  # clamped knots: only the last spline is nonzero at T, where it is 1
            vals[-1] = float(j == n_time - 1)
        if abs(vals[0]) > 1e-14:  # drop splines active at t = 0 (compatibility)
            continue
        if np.max(np.abs(vals)) == 0.0:
            continue
        splines.append(vals)
    basis = []
    for col in sorted(set(np.searchsorted(bd, portion.flat).tolist())):  # np.unique imports numpy.ma
        for s in splines:
            tr = np.zeros((grid.n_levels, len(bd)))
            tr[:, col] = s
            basis.append(tr)
    return basis


@dataclass
class ControlResult:
    control: np.ndarray                # (n_levels, n_boundary) trace, zero past horizon
    terminal_norm: float
    uncontrolled_norm: float
    terminal_history: list
    converged: bool
    notes: list = dc_field(default_factory=list)
    continuation: dict = dc_field(default_factory=dict)


def null_control(
    grid: SpaceTimeGrid,
    gamma,
    g: Field,
    eps: float,
    portion=None,
    n_time: int = 12,
    scheme: str = "be",
    tail: Nonlinearity | None = None,
) -> ControlResult:
    """Steer the model u_t - div(gamma grad u) = 0, linear up to T - eps,
    from initial data g to approximately zero at T - eps using boundary
    controls supported on the portion: at most 400 CG steps on the normal
    equations with control weight alpha = 1e-10, to a relative residual of
    1e-12.  The B_T tail, if given, adds the free continuation on
    [T - eps, T] under it.  eps and the tail pass horizon_level before any
    solve."""
    resolved = portion if portion is not None else resolve_portion(grid, BoundaryPortion.full())
    K = horizon_level(grid, eps, tail)
    horizon = grid.T - eps

    prop = Propagator(grid, gamma, scheme=scheme)
    w_space = grid.space_weights().reshape(-1)
    basis = control_basis(grid, resolved, n_time, horizon)
    n_b = len(basis)
    if n_b == 0:
        raise GridError("empty control basis")

    u_free = prop.run(g0=g.values.reshape(-1))
    free_terminal = u_free[K]
    free_norm = norm(Field(grid, free_terminal.reshape(grid.nx), DOMAIN_OMEGA), "L2Omega")

    # Gramian of the basis in L2(Sigma_0 x (0, T-eps)) for the alpha term
    w_time = grid.time_weights()
    bd = grid.boundary_flat_indices()
    bweights = np.zeros(len(bd))
    np.add.at(bweights, np.searchsorted(bd, resolved.flat), resolved.weights)
    B = np.stack(basis).reshape(n_b, -1)
    G = (B * np.outer(w_time, bweights).ravel()) @ B.T

    # control-to-state columns at T - eps, one per basis trace, from one sweep
    cols = prop.run(f=np.stack(basis, axis=-1))[K]

    def normal(coeff):
        return cols.T @ ((cols @ coeff) * w_space) + 1e-10 * (G @ coeff)

    rhs = -(cols.T @ (free_terminal * w_space))

    coeff = np.zeros(n_b)
    r = rhs - normal(coeff)
    p = r.copy()
    rs = float(np.dot(r, r))
    history = [free_norm]
    converged = False
    for _ in range(400):
        Ap = normal(p)
        denom = float(np.dot(p, Ap))
        if denom <= 0:
            break
        a = rs / denom
        coeff = coeff + a * p
        terminal = free_terminal + cols @ coeff
        history.append(norm(Field(grid, terminal.reshape(grid.nx), DOMAIN_OMEGA), "L2Omega"))
        r = r - a * Ap
        rs_new = float(np.dot(r, r))
        if np.sqrt(rs_new) <= 1e-12 * max(1.0, float(np.linalg.norm(rhs))):
            converged = True
            rs = rs_new
            break
        p = r + (rs_new / rs) * p
        rs = rs_new

    trace = sum(c * b for c, b in zip(coeff, basis))
    terminal = free_terminal + cols @ coeff
    terminal_norm = norm(Field(grid, terminal.reshape(grid.nx), DOMAIN_OMEGA), "L2Omega")
    notes = []
    if not converged and terminal_norm > 0.01 * free_norm:
        notes.append("partial steering: terminal norm above target after max_iter")
    result = ControlResult(
        trace, terminal_norm, free_norm, history, converged or terminal_norm <= 0.01 * free_norm, notes
    )

    if tail is not None:
        result.continuation = _continue_free(grid, gamma, tail, terminal, K, scheme)
    return result


def _continue_free(grid, gamma, tail: Nonlinearity, steered_terminal, K, scheme) -> dict:
    """Free (f = 0) continuation on [T-eps, T] under the tail nonlinearity;
    reports how far the solution drifts from zero and whether its solve
    converged."""
    nt_tail = grid.nt - K
    tail_grid = SpaceTimeGrid(grid.dim, grid.lower, grid.upper, grid.nx, nt_tail, nt_tail * grid.dt)
    init = steered_terminal.copy()
    # the steered state is only approximately zero on the boundary; free
    # continuation with f = 0 needs exact compatibility
    init[grid.boundary_flat_indices()] = 0.0
    g0 = Field(tail_grid, init.reshape(grid.nx), DOMAIN_OMEGA)
    rep = solve_semilinear(tail_grid, gamma, tail, g=g0, scheme=scheme)
    w_space = tail_grid.space_weights().reshape(-1)
    flat = rep.solution.values.reshape(tail_grid.n_levels, -1)
    norms = np.sqrt((flat**2) @ w_space)
    return {
        "sup_norm_over_tail": float(np.max(norms)),
        "terminal_tail_norm": float(norms[-1]),
        "levels": int(tail_grid.n_levels),
        "converged": rep.converged,
        "warnings": rep.warnings,
    }
