"""Dirichlet-to-Neumann measurement synthesis.

A DN trace is a Sigma Field.  The normal derivative is taken with a 3-point
one-sided stencil (second order) at each boundary node of the requested
portion, so measurement accuracy matches the interior discretization
without ghost nodes, and applied as a gather (NormalDerivative), not a
sparse matrix.  Noise is applied to synthesized measurements only.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
from numpy.random import default_rng

from .grid import (
    DOMAIN_Q,
    DOMAIN_SIGMA,
    Field,
    GridError,
    ResolvedPortion,
    SpaceTimeGrid,
    norm,
    resolve_portion,
)
from .forward import solve_semilinear


class NormalDerivative:
    """Rows of three weights on three columns each, the columns ascending in
    a row; B @ u sums each row from zero in that order, as a CSR product
    does, so the two are bitwise equal."""

    def __init__(self, cols, vals, n_space):
        self.cols, self.vals, self.n_space = cols, vals, n_space

    def __matmul__(self, u):
        out = np.zeros((len(self.cols), *u.shape[1:]), dtype=np.result_type(self.vals, u))
        for c, v in zip(self.cols.T, self.vals.T):
            out += (v[:, None] if u.ndim == 2 else v) * u[c]
        return out

    def toarray(self) -> np.ndarray:
        dense = np.zeros((len(self.cols), self.n_space))
        np.put_along_axis(dense, self.cols, self.vals, axis=1)
        return dense


def normal_derivative_matrix(grid: SpaceTimeGrid, portion: ResolvedPortion) -> NormalDerivative:
    """Rows map a flattened space slice to d_nu at the portion nodes:
    (3 u_b - 4 u_1 + u_2) / (2 h) along the outward normal, with u_1 and u_2
    one and two flat strides inward from the boundary node b."""
    axis, side = np.array(portion.face_of_node, dtype=int).reshape(-1, 2).T
    step = np.where(side == 1, -1, 1) * np.array(grid.strides)[axis]
    vals = np.array([3.0, -4.0, 1.0]) / (2 * np.array(grid.h)[axis])[:, None]
    cols = portion.flat[:, None] + step[:, None] * np.arange(3)
    down = step < 0  # columns b, b - s, b - 2 s: reversed into ascending order
    cols[down], vals[down] = cols[down, ::-1], vals[down, ::-1]
    return NormalDerivative(cols, vals, grid.n_space)


def measure(u: Field, portion) -> Field:
    """One-sided second-order d_nu u on the portion, a Sigma field."""
    if u.domain != DOMAIN_Q:
        raise GridError("measure expects a field on Q")
    resolved = portion if isinstance(portion, ResolvedPortion) else resolve_portion(u.grid, portion)
    if resolved.n_nodes == 0:
        raise GridError("portion resolves to no boundary nodes")
    B = normal_derivative_matrix(u.grid, resolved)
    flat = u.values.reshape(u.grid.n_levels, -1)
    values = (B @ flat.T).T
    return Field(u.grid, values, DOMAIN_SIGMA, resolved)


def passive_map(
    grid: SpaceTimeGrid,
    gamma,
    nl,
    g: Field,
    portion,
    scheme: str = "be",
) -> Field:
    """Passive measurement: solve the semilinear equation (solve_semilinear)
    with f = 0 driven by the initial data g and measure the DN trace on the
    portion.  A solve that did not converge raises SolverError naming its
    first stalled level."""
    report = solve_semilinear(grid, gamma, nl, f=None, g=g, scheme=scheme)
    return measure(report.require_converged("passive map").solution, portion)


def add_noise(m: Field, model: str, level: float, seed: int) -> Field:
    """Reproducible Gaussian observation noise on a DN trace.

    gaussian-relative: per-node iid with standard deviation level * RMS(m),
    so the relative L2 perturbation is ~level in expectation.
    gaussian-absolute: per-node iid with standard deviation level.
    """
    if model not in ("gaussian-relative", "gaussian-absolute"):
        raise ValueError(f"unknown noise model {model!r}")
    if level < 0:
        raise ValueError("noise level must be >= 0")
    if level == 0.0:
        return replace(m, values=m.values.copy())
    xi = default_rng(seed).standard_normal(m.values.shape)
    scale = level
    if model == "gaussian-relative":
        ones = replace(m, values=np.ones(m.values.shape))
        scale = level * (norm(m, "L2Sigma") / norm(ones, "L2Sigma"))
    return replace(m, values=m.values + scale * xi)


# ---------------------------------------------------------------------------
# Persistence: CSV columns t, node_id, x[, y], value with a JSON sidecar.


def save_measurement(m: Field, csv_path, sidecar_path=None, noise=None) -> None:
    """Rows t, node_id, coordinates, value, and a JSON sidecar with the
    portion, the grid digest and the caller's noise record ({} when None)."""
    coords = m.portion.coords()
    with open(csv_path, "w") as fh:
        fh.write(f"t,node_id,{','.join('xy'[:m.grid.dim])},value\n")
        nodes = [f"{node},{','.join(map(repr, c))}" for node, c in
                 zip(m.portion.flat.tolist(), np.asarray(coords, dtype=float).tolist())]
        for t, row in zip(m.grid.times().tolist(), np.asarray(m.values, dtype=float).tolist()):
            fh.writelines(f"{t!r},{node},{v!r}\n" for node, v in zip(nodes, row))
    if sidecar_path is not None:
        sidecar = {
            "portion": {
                "faces": [list(f) for f in m.portion.faces],
                "n_nodes": m.portion.n_nodes,
            },
            "noise": noise or {},
            "grid_digest": m.grid.digest(),
        }
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
