"""Runge approximation fitting: least-squares approximation of an interior
solution by boundary-driven solutions.

The basis of size n is runge_family(grid, portion, n): a hat per portion
node times the quadratic B-splines on n uniform time intervals that vanish
at t = 0 and reach t = T.  When each size divides the next, the spline
spaces are nested (knot insertion), so every basis is an exact combination
of the finest one and the best gap cannot grow with the size.  One march of
the finest full-boundary family serves every size and both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..forward import Propagator, check_compatibility
from ..grid import (
    DOMAIN_Q,
    BoundaryPortion,
    Field,
    GridError,
    ResolvedPortion,
    SpaceTimeGrid,
    complement_portion,
    resolve_portion,
)
from .control import control_basis

# relative Tikhonov shift of the Gram matrix, and the inverse condition
# number below which the fit notes a rank-deficient Gram matrix
RCOND = 1e-10


@dataclass
class RegionMask:
    """Spatial subregion (all of (0,T) in time): True nodes belong to the
    region.  Full-Q fits use mask = None."""

    mask: np.ndarray

    @classmethod
    def subinterval(cls, grid: SpaceTimeGrid, lo: float, hi: float):
        """The nodes with lo <= x <= hi."""
        x = grid.meshes()[0]
        return cls((x >= lo) & (x <= hi))


def _region_weights(grid: SpaceTimeGrid, region: RegionMask | None) -> np.ndarray:
    w = grid.space_weights()
    if region is not None:
        w = np.where(region.mask, w, 0.0)
    return w.reshape(-1)


def check_sizes(sizes) -> None:
    """GridError unless the interval counts rise strictly, each dividing the
    next: only then are their spline spaces nested."""
    if any(b <= a or b % a for a, b in zip(sizes, sizes[1:])):
        raise GridError(f"sizes {' '.join(map(str, sizes))} are not nested: each must be "
                        "smaller than the next and divide it")


def runge_family(grid: SpaceTimeGrid, portion: ResolvedPortion, n: int) -> np.ndarray:
    """The boundary data of n uniform time intervals on the portion,
    control_basis(grid, portion, n + 2, T), stacked (n_levels, n_boundary,
    size)."""
    return np.stack(control_basis(grid, portion, n + 2, grid.T), axis=-1)


def refinement(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """R with fine @ R = coarse on every level, by least squares over the
    stacked traces: the knot-insertion matrix when the coarse space lies in
    the fine one and the fine traces are independent on the levels.  Both
    families are node-major (control_basis): a column is one node's trace
    times a time spline, the same splines at every node, so R is kron(S,
    R_t), with S[i, j] whether fine node i is coarse node j and R_t the
    least-squares fit of one node's coarse splines by its fine ones."""
    c, f = (np.abs(a).max(axis=0).argmax(axis=0) for a in (coarse, fine))  # node per column
    sc, sf = (np.count_nonzero(n == n[0]) for n in (c, f))  # splines per node
    fit = np.linalg.lstsq(fine[:, f[0], :sf], coarse[:, c[0], :sc], rcond=None)[0]
    return np.kron(f[::sf, None] == c[None, ::sc], fit)


@dataclass
class RungeFit:
    mode: str
    n_basis: int
    coefficients: np.ndarray
    gap: float
    target_norm: float
    notes: list = dc_field(default_factory=list)


def runge_fit(
    grid: SpaceTimeGrid,
    target: Field,
    prop: Propagator,
    sizes,
    omega,
    region: RegionMask | None = None,
) -> list:
    """Least-squares fits of sum c_i V_{f_i} to the target, one per mode and
    size in sizes (time intervals, each dividing the next): "full" in L2(Q)
    with data on the whole boundary, then "partial" in L2 of the region with
    data vanishing on Gamma_{-,omega}.  V_f solves the linear model that
    prop steps (its q, gamma and scheme) with boundary data f and zero
    initial data, and the data of size n span runge_family(grid, portion, n).
    One prop.run of the finest full family gives every field; a size with
    refinement R solves R^T G R c = R^T b, the Gram matrix shifted by RCOND
    times its mean diagonal."""
    if target.domain != DOMAIN_Q:
        raise GridError("target must live on Q")
    check_sizes(sizes)
    full = resolve_portion(grid, BoundaryPortion.full())
    partial = complement_portion(grid, BoundaryPortion.directional(omega, sign=-1))
    fine = runge_family(grid, full, sizes[-1])
    check_compatibility(grid, None, fine)
    fields = prop.run(f=fine).reshape(-1, fine.shape[-1])
    tgt = target.values.real.reshape(-1)

    fits = []
    for mode, portion, mask in (("full", full, None), ("partial", partial, region)):
        w = np.outer(grid.time_weights(), _region_weights(grid, mask)).ravel()
        weighted = fields.T * w
        G, b = weighted @ fields, weighted @ tgt
        target_norm = float(np.sqrt(np.dot(w, tgt**2)))
        for n in sizes:
            R = refinement(runge_family(grid, portion, n), fine)
            A, k = R.T @ G @ R, R.shape[1]
            cond = np.linalg.cond(A)  # inf or nan when A is singular
            notes = [] if cond <= 1.0 / RCOND else [
                f"rank-deficient Gram matrix (cond {cond:.3g}); regularized solve"]
            coeff, *_ = np.linalg.lstsq(A + RCOND * np.trace(A) / k * np.eye(k), R.T @ b, rcond=None)
            gap = float(np.sqrt(np.dot(w, (fields @ (R @ coeff) - tgt) ** 2)))
            fits.append(RungeFit(mode, k, coeff, gap, target_norm, notes))
    return fits
