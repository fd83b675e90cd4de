"""Initial-data recovery from passive DN traces.

Tikhonov-regularized output least squares on the linearized map F, formed
as dense columns by one batched sweep; one SVD of K = W^{1/2} F D^{-1/2} (W,
D the data and interior quadrature) gives every alpha's solution through the
filter factors s / (s^2 + alpha) (Hansen, Discrete Inverse Problems, ch. 4-5).
Morozov's rule picks alpha given a noise level.  A term affine in u is its
own linearization, so each discrepancy is ||W^{1/2}(F g + base - data)||;
other terms take Gauss-Newton steps around semilinear solves.  A stability
curve builds the data-free g = 0 linearization (base, F, SVD) once for all trials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..dnmap import add_noise, measure, normal_derivative_matrix, passive_map
from ..forward import Propagator, SolverError, solve_semilinear
from ..grid import (
    DOMAIN_OMEGA,
    Field,
    ResolvedPortion,
    SpaceTimeGrid,
    norm,
)
from ..model import Nonlinearity
from .potential import ReconstructionResult

# Most values one dense build may hold: its sweep's n_levels x n_space x n_interior.
DENSE_CAP = 2**24
# Morozov's tau: the chosen alpha's discrepancy sits at most at tau * noise.
MOROZOV_TAU = 1.05


class InitialDataMap:
    """Linearized map: initial data (interior nodes, zero trace) -> DN trace
    on a portion, as dense columns from one sweep."""

    def __init__(self, grid: SpaceTimeGrid, gamma, q, portion: ResolvedPortion, scheme="be"):
        self.grid = grid
        self.portion = portion
        self.prop = Propagator(grid, gamma, q, scheme)
        self.B = normal_derivative_matrix(grid, portion)
        self.w_time = grid.time_weights()
        self.w_portion = portion.weights
        self.w_space = grid.space_weights().reshape(-1)

    def dense(self) -> np.ndarray:
        """F shaped (n_levels * n_portion, n_interior): column j is the trace
        of the j-th interior unit vector, level by level, from one sweep."""
        grid = self.grid
        interior = np.flatnonzero(self.prop.interior_mask)
        rows, cols = grid.n_levels * self.portion.n_nodes, len(interior)
        held = grid.n_levels * grid.n_space * cols
        if held > DENSE_CAP:
            raise SolverError(
                f"dense initial-data map F of {rows} rows x {cols} columns needs a sweep "
                f"of {held} values, above the cap of {DENSE_CAP}"
            )
        units = np.zeros((grid.n_space, cols))
        units[interior, np.arange(cols)] = 1.0
        return np.matmul(self.B.toarray(), self.prop.run(g0=units)).reshape(rows, cols)


class _Linearization:
    """The data-independent half of the Tikhonov solve around g_lin: the base
    solve's trace and `converged`, WF = W^{1/2} F, WF g_lin, and the SVD of
    K = W^{1/2} F D^{-1/2} = U S V^T (W, D the data and interior quadrature)."""

    def __init__(self, grid, gamma, nl, portion, scheme, g_lin: np.ndarray):
        g = Field(grid, g_lin.reshape(grid.nx), DOMAIN_OMEGA)
        rep = solve_semilinear(grid, gamma, nl, g=g, scheme=scheme)
        self.converged = rep.converged
        self.base_trace = measure(rep.solution, portion).values
        q = nl.along(rep.solution, 1)
        lin_map = InitialDataMap(grid, gamma, q, portion, scheme)
        self.interior = lin_map.prop.interior_mask
        self.sqrt_w = np.sqrt(np.outer(lin_map.w_time, lin_map.w_portion)).reshape(-1)
        d_half = np.sqrt(lin_map.w_space[self.interior])
        self.WF = self.sqrt_w[:, None] * lin_map.dense()
        self.WF_g = self.WF @ g_lin[self.interior]
        self.U, self.s, Vt = np.linalg.svd(self.WF / d_half, full_matrices=False)
        self.to_nodes = Vt.T / d_half[:, None]

    @functools.cached_property
    def scale(self) -> float:  # sigma_max(W^{1/2} F)^2, the normal operator's norm
        return float(np.linalg.norm(self.WF, 2) ** 2) or 1.0


class _Tikhonov:
    """One datum's solutions around a linearization: g(alpha) minimises
    ||W^{1/2}(F (g - g_lin) + base - data)||^2 + alpha ||D^{1/2} g||^2.
    With r = W^{1/2}(F g_lin - (base - data)),
    g(alpha) = D^{-1/2} V diag(s / (s^2 + alpha)) U^T r on interior nodes."""

    def __init__(self, lin: _Linearization, data: np.ndarray):
        self.interior, self.WF, self.s, self.to_nodes = lin.interior, lin.WF, lin.s, lin.to_nodes
        self.r = lin.WF_g - lin.sqrt_w * (lin.base_trace - data).reshape(-1)
        self.beta = lin.U.T @ self.r

    def solve(self, alpha: float) -> np.ndarray:
        g_vec = np.zeros(len(self.interior))
        g_vec[self.interior] = self.to_nodes @ (self.s / (self.s**2 + alpha) * self.beta)
        return g_vec

    def discrepancy(self, g_vec: np.ndarray) -> float:
        """||W^{1/2}(F (g - g_lin) + base - data)||, the linearized data misfit."""
        return float(np.linalg.norm(self.WF @ g_vec[self.interior] - self.r))


def recover_initial(
    grid: SpaceTimeGrid,
    gamma,
    nl: Nonlinearity,
    data: Field,
    noise_norm: float = 0.0,
    alpha: float | None = None,
    scheme: str = "be",
    outer_iters: int | None = None,
    truth: Field | None = None,
) -> ReconstructionResult:
    """Minimize ||measure(solve(g)) - data||^2_{L2(Gamma_0 x (0,T))} + alpha ||g||^2
    over discrete initial data with f = 0 and a known nonlinearity."""
    at_zero = _Linearization(grid, gamma, nl, data.portion, scheme, np.zeros(grid.n_space))
    return _recover(at_zero, grid, gamma, nl, data, noise_norm, alpha, scheme, outer_iters, truth)


def _recover(at_zero, grid, gamma, nl, data, noise_norm, alpha, scheme, outer_iters, truth):
    """recover_initial from its g = 0 linearization `at_zero`."""
    linear = nl.is_affine()
    if outer_iters is None:
        outer_iters = 1 if linear else 3

    notes = []
    converged = True

    def fit(lin):
        nonlocal converged
        if not lin.converged:
            notes.append("inner semilinear solve did not converge")
            converged = False
        return _Tikhonov(lin, data.values)

    relinearize = functools.partial(_Linearization, grid, gamma, nl, data.portion, scheme)
    # every alpha trial starts from g = 0, so its first linearization is shared
    from_zero = fit(at_zero)

    @functools.cache  # the chosen alpha's trial solution is reused
    def solve_at(alpha_value):
        g_cur = np.zeros(grid.n_space)
        for i in range(outer_iters):
            g_cur = (fit(relinearize(g_cur)) if i else from_zero).solve(alpha_value)
            if linear:
                break
        return g_cur

    def discrepancy(g_vec):
        if linear:
            return from_zero.discrepancy(g_vec)
        return _discrepancy(grid, gamma, nl, g_vec, data, scheme)

    scale = None
    if alpha is None:
        scale = at_zero.scale
        if noise_norm > 0:
            # Morozov: largest alpha whose discrepancy sits at tau * noise
            ladder = (rel * scale for rel in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8))
            fits = (a for a in ladder if discrepancy(solve_at(a)) <= MOROZOV_TAU * noise_norm)
            alpha = next(fits, None)
            if alpha is None:
                notes.append("morozov sweep exhausted; using the floor alpha")
                converged = False
        if alpha is None:
            alpha = 1e-8 * scale
    g_vec = solve_at(alpha)

    g_field = Field(grid, g_vec.reshape(grid.nx), DOMAIN_OMEGA)
    result = ReconstructionResult(
        g_field,
        residuals={"data_misfit": discrepancy(g_vec), "data_norm": norm(data, "L2Sigma")},
        regularization={
            "method": "tikhonov-dense-svd",
            "alpha": alpha,
            "selection": "morozov" if noise_norm > 0 else "floor",
            "noise_norm": noise_norm,
            "operator_scale": scale,
        },
        notes=notes,
    )
    result.converged = converged
    if truth is not None:
        result.compare_truth(truth)
    return result


def _discrepancy(grid, gamma, nl, g_vec, data, scheme) -> float:
    g = Field(grid, g_vec.reshape(grid.nx), DOMAIN_OMEGA)
    return norm(passive_map(grid, gamma, nl, g, data.portion, scheme) - data, "L2Sigma")


# ---------------------------------------------------------------------------
# Stability curve: error vs measurement-difference magnitude


@dataclass
class StabilityCurve:
    deltas: list
    magnitudes: list            # per-(delta, trial) measurement difference m
    errors: list                # per-(delta, trial) reconstruction error
    mean_errors: dict           # per-delta mean
    fit_two_term: dict
    fit_linear: dict
    converged: bool = True      # every trial's recovery converged

    def to_dict(self):
        return {
            "deltas": self.deltas,
            "magnitudes": self.magnitudes,
            "errors": self.errors,
            "mean_errors": {str(k): v for k, v in self.mean_errors.items()},
            "fit_two_term": self.fit_two_term,
            "fit_linear": self.fit_linear,
        }


def stability_curve(
    grid: SpaceTimeGrid,
    gamma,
    nl: Nonlinearity,
    truth: Field,
    portion,
    deltas,
    trials: int = 5,
    seed: int = 0,
    scheme: str = "be",
) -> StabilityCurve:
    """Twin experiments across noise levels; fits error(m) by the two-term
    logarithmic-stability model C1 m + C2 / |ln(delta0 m)| and compares its
    residual with a pure-linear fit.  Each trial is recover_initial's Morozov
    recovery, and all trials share one g = 0 linearization."""
    clean = passive_map(grid, gamma, nl, truth, portion, scheme)
    at_zero = _Linearization(grid, gamma, nl, clean.portion, scheme, np.zeros(grid.n_space))
    mags, errs, dlist = [], [], []
    converged = True
    for i, delta in enumerate(deltas):
        for trial in range(trials):
            noisy = add_noise(clean, "gaussian-relative", delta, seed + 1000 * i + trial)
            m = norm(noisy - clean, "L2Sigma")
            rec = _recover(
                at_zero, grid, gamma, nl, noisy, m if m > 0 else 0.0, None, scheme, None, None
            )
            err = norm(rec.recovered - truth, "L2Omega")
            converged = converged and rec.converged
            mags.append(m)
            errs.append(err)
            dlist.append(delta)
    mean_errors = {}
    for delta in deltas:
        vals = [e for d, e in zip(dlist, errs) if d == delta]
        mean_errors[delta] = float(np.mean(vals))

    m_arr = np.asarray(mags)
    e_arr = np.asarray(errs)
    pos = m_arr > 0
    fit_two, fit_lin = {}, {}
    if np.sum(pos) >= 2:
        delta0 = 0.5 / float(np.max(m_arr[pos]))
        basis_log = 1.0 / np.abs(np.log(delta0 * m_arr[pos]))
        A2 = np.column_stack([m_arr[pos], basis_log])
        c2, res2, *_ = np.linalg.lstsq(A2, e_arr[pos], rcond=None)
        pred2 = A2 @ c2
        A1 = m_arr[pos].reshape(-1, 1)
        c1, res1, *_ = np.linalg.lstsq(A1, e_arr[pos], rcond=None)
        pred1 = (A1 @ c1).reshape(-1)
        fit_two = {
            "C1": float(c2[0]),
            "C2": float(c2[1]),
            "delta0": delta0,
            "residual": float(np.linalg.norm(e_arr[pos] - pred2)),
        }
        fit_lin = {
            "C": float(c1[0]),
            "residual": float(np.linalg.norm(e_arr[pos] - pred1)),
        }
    return StabilityCurve(list(deltas), mags, errs, mean_errors, fit_two, fit_lin, converged)
