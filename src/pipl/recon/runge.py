"""Runge approximation fitting: least-squares approximation of an interior
solution by boundary-driven solutions over a nested basis family.

The nested ordering guarantees the achieved gap is non-increasing in the
basis size; for generic targets it is strictly decreasing, which is the
numerical face of the density lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..forward import Propagator, check_compatibility, trace_values
from ..grid import (
    DOMAIN_Q,
    BoundaryPortion,
    Field,
    GridError,
    SpaceTimeGrid,
    complement_portion,
    resolve_portion,
)
from .control import control_basis


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


def _region_l2(grid, w_space, w_time, values) -> float:
    flat = (np.abs(values) ** 2).reshape(grid.n_levels, -1)
    return float(np.sqrt(np.dot(w_time, flat @ w_space)))


def runge_basis(grid: SpaceTimeGrid, n: int, mode: str = "full", omega=None,
                aperture: float = 0.0):
    """First n elements of the nested boundary-data family.  In partial mode
    candidate data vanish on Gamma_{-,omega,eps}: the basis lives on the
    complementary faces only."""
    if mode == "partial":
        if omega is None:
            raise GridError("partial mode needs omega")
        portion = complement_portion(grid, BoundaryPortion.directional(omega, aperture, -1))
    else:
        portion = resolve_portion(grid, BoundaryPortion.full())
    n_nodes = len(set(portion.flat.tolist()))
    n_time = max(4, -(-n // n_nodes) + 3)
    family = control_basis(grid, portion, n_time, grid.T)
    if len(family) < n:
        raise GridError(f"basis family holds only {len(family)} elements; asked for {n}")
    return family[:n]


@dataclass
class RungeFit:
    coefficients: np.ndarray
    gap: float
    target_norm: float
    basis_size: int
    notes: list = dc_field(default_factory=list)


def runge_fit(
    grid: SpaceTimeGrid,
    target: Field,
    prop: Propagator,
    n_basis: int = 8,
    mode: str = "full",
    omega=None,
    aperture: float = 0.0,
    region: RegionMask | None = None,
    rcond: float = 1e-10,
    basis=None,
) -> RungeFit:
    """Least-squares fit of sum c_i V_{f_i} to the target in L2 of the region,
    where V_{f_i} solves the linear model that prop steps (its q, gamma and
    scheme) with boundary data f_i and zero initial data."""
    if target.domain != DOMAIN_Q:
        raise GridError("target must live on Q")
    family = basis if basis is not None else runge_basis(grid, n_basis, mode, omega, aperture)
    family = family[:n_basis]
    w_space = _region_weights(grid, region)
    w_time = grid.time_weights()

    traces = np.stack([trace_values(grid, tr) for tr in family], axis=-1)
    check_compatibility(grid, None, traces)
    swept = prop.run(f=traces)
    fields = np.ascontiguousarray(np.moveaxis(swept, -1, 0))
    tgt = target.values.reshape(grid.n_levels, -1)

    n = len(fields)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i in range(n):
        wi = fields[i] * w_space[None, :]
        for j in range(i, n):
            val = float(np.dot(w_time, np.sum(wi * fields[j], axis=1)))
            A[i, j] = A[j, i] = val
        b[i] = float(np.dot(w_time, np.sum(wi * tgt.real, axis=1)))

    notes = []
    cond = np.linalg.cond(A) if n else 0.0
    if not np.isfinite(cond) or cond > 1.0 / rcond:
        notes.append(f"rank-deficient Gram matrix (cond {cond:.3g}); regularized solve")
    coeff, *_ = np.linalg.lstsq(A + rcond * np.trace(A) / max(n, 1) * np.eye(n), b, rcond=None)

    approx = np.tensordot(coeff, fields, axes=(0, 0))
    gap = _region_l2(grid, w_space, w_time, approx - tgt.real)
    return RungeFit(coeff, gap, _region_l2(grid, w_space, w_time, tgt.real), n, notes)
