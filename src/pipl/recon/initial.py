"""Initial-data recovery from passive DN traces.

Tikhonov-regularized output least squares solved by conjugate gradients on
the normal equations; the forward map's transpose is the exact discrete
adjoint sweep of the time stepper, so gradients are accurate to rounding.
Mild nonlinearities are handled by Gauss-Newton relinearization around the
current semilinear solve.  The regularization weight follows the Morozov
discrepancy rule when a noise level is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dnmap import DNMeasurement, measure, normal_derivative_matrix
from ..forward import Propagator, solve_semilinear
from ..grid import (
    DOMAIN_OMEGA,
    Field,
    ResolvedPortion,
    SpaceTimeGrid,
    norm,
)
from ..model import Nonlinearity, taylor_table
from .potential import ReconstructionResult


class InitialDataMap:
    """Linearized map: initial data (interior nodes, zero trace) -> DN trace
    on a portion, with its exact discrete adjoint."""

    def __init__(self, grid: SpaceTimeGrid, gamma, q, portion: ResolvedPortion, scheme="be"):
        self.grid = grid
        self.portion = portion
        self.prop = Propagator(grid, gamma, q, scheme)
        self.B = normal_derivative_matrix(grid, portion)
        self.w_time = grid.time_weights()
        self.w_portion = portion.weights
        self.w_space = grid.space_weights().reshape(-1)

    def forward(self, g_vec: np.ndarray) -> np.ndarray:
        u = self.prop.run(g0=g_vec)
        return (self.B @ u.T).T

    def adjoint(self, trace: np.ndarray) -> np.ndarray:
        """Transpose against the L2(Sigma_0) inner product on the data side
        and plain nodal values on the parameter side."""
        weighted = trace * self.w_portion[None, :] * self.w_time[:, None]
        cost_grad = (self.B.T @ weighted.T).T
        grad_g, _ = self.prop.adjoint(cost_grad)
        return grad_g

    def data_norm(self, trace: np.ndarray) -> float:
        per_level = (np.abs(trace) ** 2) @ self.w_portion
        return float(np.sqrt(np.dot(self.w_time, per_level)))

    def normal_operator(self, alpha: float):
        def apply(g_vec):
            out = self.adjoint(self.forward(g_vec)) + alpha * self.w_space * g_vec
            out[self.prop.boundary_idx] = g_vec[self.prop.boundary_idx]
            return out

        return apply

    def operator_scale(self, seed: int = 0, iters: int = 6) -> float:
        """Power-iteration estimate of ||F^T F|| used to express alpha
        relative to the map's strength."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.grid.n_space)
        v[self.prop.boundary_idx] = 0.0
        v /= np.linalg.norm(v)
        lam = 1.0
        for _ in range(iters):
            w = self.adjoint(self.forward(v))
            lam = float(np.linalg.norm(w))
            if lam == 0:
                return 1.0
            v = w / lam
        return lam


def _cg(apply_op, rhs, x0=None, tol=1e-10, max_iter=200):
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - apply_op(x)
    p = r.copy()
    rs = float(np.dot(r, r))
    rhs_norm = float(np.linalg.norm(rhs)) or 1.0
    it = 0
    for it in range(1, max_iter + 1):
        Ap = apply_op(p)
        denom = float(np.dot(p, Ap))
        if denom <= 0:
            break
        a = rs / denom
        x += a * p
        r -= a * Ap
        rs_new = float(np.dot(r, r))
        if np.sqrt(rs_new) <= tol * rhs_norm:
            rs = rs_new
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, it


def recover_initial(
    grid: SpaceTimeGrid,
    gamma,
    nl: Nonlinearity,
    data: DNMeasurement,
    noise_norm: float = 0.0,
    alpha: float | None = None,
    alpha_floor_rel: float = 1e-8,
    scheme: str = "be",
    outer_iters: int | None = None,
    cg_tol: float = 1e-9,
    cg_max: int = 300,
    morozov_tau: float = 1.05,
    truth: Field | None = None,
) -> ReconstructionResult:
    """Minimize ||measure(solve(g)) - data||^2_{L2(Gamma_0 x (0,T))} + alpha ||g||^2
    over discrete initial data with f = 0 and a known nonlinearity."""
    portion = data.portion
    linear = nl.is_affine()
    if outer_iters is None:
        outer_iters = 1 if linear else 3

    g_vec = np.zeros(grid.n_space)
    notes = []
    converged = True

    def build_map(g_current):
        rep = solve_semilinear(
            grid, gamma, nl,
            g=Field(grid, g_current.reshape(grid.nx), DOMAIN_OMEGA),
            scheme=scheme,
        )
        if not rep.converged:
            notes.append("inner semilinear solve did not converge")
        base = rep.solution
        q = taylor_table(nl, base, 1).coefficient(1)
        return InitialDataMap(grid, gamma, q, portion, scheme), base

    # every alpha trial starts from g = 0, so its first linearization is shared
    at_zero = build_map(g_vec)

    def solve_at(alpha_value):
        g_cur = np.zeros(grid.n_space)
        iters_total = 0
        for i in range(outer_iters):
            lin_map, base = build_map(g_cur) if i else at_zero
            misfit = measure(base, portion).values - data.values
            rhs = -lin_map.adjoint(misfit) - alpha_value * lin_map.w_space * g_cur
            op = lin_map.normal_operator(alpha_value)
            delta, iters = _cg(op, rhs, tol=cg_tol, max_iter=cg_max)
            iters_total += iters
            g_cur = g_cur + delta
            if linear:
                break
        return g_cur, iters_total

    scale = None
    if alpha is None:
        scale = at_zero[0].operator_scale()
        if noise_norm > 0:
            # Morozov: largest alpha whose discrepancy sits at tau * noise
            chosen = None
            for alpha_rel in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
                cand = alpha_rel * scale
                g_try, _ = solve_at(cand)
                disc = _discrepancy(grid, gamma, nl, g_try, data, scheme)
                if disc <= morozov_tau * noise_norm:
                    chosen = cand
                    g_vec = g_try
                    break
            if chosen is None:
                chosen = alpha_floor_rel * scale
                g_vec, _ = solve_at(chosen)
                notes.append("morozov sweep exhausted; using the floor alpha")
                converged = False
            alpha = chosen
        else:
            alpha = alpha_floor_rel * scale
            g_vec, _ = solve_at(alpha)
    else:
        g_vec, _ = solve_at(alpha)

    g_field = Field(grid, g_vec.reshape(grid.nx), DOMAIN_OMEGA)
    final_disc = _discrepancy(grid, gamma, nl, g_vec, data, scheme)
    result = ReconstructionResult(
        g_field,
        residuals={"data_misfit": final_disc, "data_norm": data.l2()},
        regularization={
            "method": "tikhonov-adjoint-cg",
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
    rep = solve_semilinear(
        grid, gamma, nl, g=Field(grid, g_vec.reshape(grid.nx), DOMAIN_OMEGA), scheme=scheme
    )
    m = measure(rep.solution, data.portion)
    diff = m.values - data.values
    per_level = (np.abs(diff) ** 2) @ data.portion.weights
    return float(np.sqrt(np.dot(grid.time_weights(), per_level)))


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
    noise_model: str = "gaussian-relative",
) -> StabilityCurve:
    """Twin experiments across noise levels; fits error(m) by the two-term
    logarithmic-stability model C1 m + C2 / |ln(delta0 m)| and compares its
    residual with a pure-linear fit."""
    from ..dnmap import add_noise

    rep = solve_semilinear(grid, gamma, nl, g=truth, scheme=scheme)
    clean = measure(rep.solution, portion)
    mags, errs, dlist = [], [], []
    for i, delta in enumerate(deltas):
        for trial in range(trials):
            noisy = add_noise(clean, noise_model, delta, seed + 1000 * i + trial)
            diff = noisy.values - clean.values
            per_level = (np.abs(diff) ** 2) @ clean.portion.weights
            m = float(np.sqrt(np.dot(grid.time_weights(), per_level)))
            rec = recover_initial(
                grid, gamma, nl, noisy, noise_norm=m if m > 0 else 0.0, scheme=scheme
            )
            err = norm(rec.recovered - truth, "L2Omega")
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
    return StabilityCurve(list(deltas), mags, errs, mean_errors, fit_two, fit_lin)
