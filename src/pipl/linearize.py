"""Higher-order linearization of the solution map in boundary-data amplitude.

Linearized fields are produced two ways: measurement-side difference
quotients of the nonlinear solver (corner sums over amplitude cubes) and
direct solves of the linearized equations with frozen Taylor coefficients.
The quotient is what an experimenter could actually form from data; the
direct solve is its oracle, and the gap between them shrinks at O(eps).
The base solution and all corners of every order of a run are one batched
nonlinear solve; the direct fields of every order share one Propagator,
one multi-column sweep per subset size over the distinct probe subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .forward import Propagator, SolverError, check_compatibility, semilinear_columns, trace_values
from .grid import (
    DOMAIN_Q,
    DOMAIN_SIGMA,
    BoundaryPortion,
    Field,
    GridError,
    SpaceTimeGrid,
    norm,
    resolve_portion,
    zero_field,
)
from .model import Nonlinearity

EXACT_GAP = 1e-9          # below this the model is linear in the probe to solver accuracy


@dataclass
class LinearizationSetup:
    """Model bundle the linearization differentiates: grid, coefficients,
    base initial data (boundary base is zero), solver options.

    Corner sums divide by products of the amplitudes, so the nonlinear
    solves run at a tighter tolerance than the solver default.
    newton_calls counts the batched Newton solves of a non-affine term, at
    most one per higher_orders call (its corners, and the base while it is
    unsolved); newton_iterations counts their per-column iterations.
    coefficient(k) forms the Taylor coefficient field of order k along the
    base solution once, on first use (Nonlinearity.along).
    """

    grid: SpaceTimeGrid
    gamma: object
    nl: Nonlinearity
    g: Field | None = None
    scheme: str = "be"
    tol: float = 1e-13

    def __post_init__(self):
        self._base = None
        self._coefficients = {}
        self.newton_calls = 0
        self.newton_iterations = 0

    def base_solution(self) -> Field:
        if self._base is None:
            self.solve_columns([], [])
        return self._base

    def coefficient(self, k: int) -> Field:
        """d_u^k nl along the base solution."""
        if k not in self._coefficients:
            self._coefficients[k] = self.nl.along(self.base_solution(), k)
        return self._coefficients[k]

    @cached_property
    def propagator(self) -> Propagator:
        """Stepper of the linearized equation: potential coefficient(1)."""
        return Propagator(self.grid, self.gamma, self.coefficient(1), self.scheme)

    def solve_columns(self, traces, labels) -> np.ndarray:
        """Nonlinear solves from the base initial data, one per boundary
        trace (n_levels, n_boundary) in the list traces, in one batch;
        values (n_levels, n_space, len(traces)).  While the base solution is
        unsolved it joins the batch as a first column whose trace is g on
        the boundary at t = 0 and zero after, bitwise the solve with no
        trace.  A column that stalls raises SolverError with its label and
        first stalled time level."""
        grid = self.grid
        fresh = self._base is None
        if fresh:
            bd = grid.boundary_flat_indices()
            base = np.zeros((grid.n_levels, len(bd)))
            if self.g is not None:
                base[0] = self.g.values.reshape(-1)[bd]
            traces, labels = [base, *traces], ["base solve", *labels]
        if not traces:
            return np.zeros((grid.n_levels, grid.n_space, 0))
        res = semilinear_columns(grid, self.gamma, self.nl, np.stack(traces, axis=-1), self.g,
                                 self.scheme, self.tol)
        if not self.nl.is_affine():
            self.newton_calls += 1
            self.newton_iterations += res.iterations
        for j in np.flatnonzero(~res.converged):
            level = int(np.argmax(res.stalled[:, j])) + 1
            raise SolverError(f"{labels[j]}: newton stalled at time level {level}")
        if fresh:
            base = np.ascontiguousarray(res.values[..., 0]).reshape(grid.n_levels, *grid.nx)
            self._base = Field(grid, base, DOMAIN_Q)
            return res.values[..., 1:]
        return res.values


def probe_trace(grid: SpaceTimeGrid, spatial_fn, ramp=None) -> Field:
    """Boundary probe spatial(x) * ramp(t) on the full boundary, the ramp
    (t/T)^2 by default: vanishing value and slope at t = 0 keeps the
    discrete compatibility conditions."""
    resolved = resolve_portion(grid, BoundaryPortion.full())
    coords = resolved.coords()
    args = [coords[:, i] for i in range(grid.dim)]
    spatial = np.broadcast_to(np.asarray(spatial_fn(*args), dtype=float), (resolved.n_nodes,))
    if ramp is None:
        ramp = lambda t: (t / grid.T) ** 2
    rows = [spatial * ramp(t) for t in grid.times()]
    return Field(grid, np.array(rows), DOMAIN_SIGMA, resolved)


def _fit_slope(eps_list, gaps):
    gaps = np.asarray(gaps, dtype=float)
    eps = np.asarray(eps_list, dtype=float)
    if np.all(gaps < EXACT_GAP):
        return None
    mask = (gaps > 0) & (eps > 0)  # a skipped zero-amplitude level has no rate
    if np.sum(mask) < 2:
        return None
    return float(np.polyfit(np.log(eps[mask]), np.log(gaps[mask]), 1)[0])


@dataclass
class RateReport:
    gaps: list
    slope: float | None
    linear_exact: bool


def _rate_report(eps_list, gaps) -> RateReport:
    slope = _fit_slope(eps_list, gaps)
    exact = slope is None and all(g < EXACT_GAP for g in gaps)
    return RateReport([float(g) for g in gaps], slope, exact)


@dataclass
class MixedOrderResult:
    quotient: Field
    direct: Field | None
    gap: float | None
    rate: RateReport | None
    corner_solves: int = 0  # corner columns solved; a skipped amplitude level adds none


def _partitions_with_first(elements):
    """Set partitions of a tuple, each block sorted, first element pinned to
    the first block (canonical enumeration, no duplicates)."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    n = len(rest)
    for mask in range(1 << n):
        block = (first,) + tuple(rest[i] for i in range(n) if mask >> i & 1)
        remaining = tuple(rest[i] for i in range(n) if not mask >> i & 1)
        for tail in _partitions_with_first(remaining):
            yield [block] + tail


def _direct_mixed_fields(setup: LinearizationSetup, traces, subsets):
    """The mixed linearized fields w^S for the subsets S (tuples of indices of
    the probe traces on the last axis of traces, closed under sub-tuples),
    solved bottom-up with one sweep per subset size on the setup's
    Propagator: the order-|S| equation carries the frozen potential and the
    partition-structured source sum over lower blocks."""
    grid = setup.grid
    shape = (grid.n_levels, *grid.nx)
    first = setup.propagator.run(f=traces)
    fields = {(i,): first[..., i].reshape(shape) for i in range(traces.shape[-1])}
    for size in range(2, max(map(len, subsets)) + 1):
        group = [s for s in subsets if len(s) == size]
        sources = []
        for subset in group:
            src = np.zeros(shape)
            for part in _partitions_with_first(subset):
                if len(part) < 2:
                    continue  # the single-block term is the lhs potential term
                prod = setup.coefficient(len(part)).values.copy()
                for block in part:
                    prod = prod * fields[block]
                src += prod
            sources.append(-src.reshape(grid.n_levels, -1))
        solved = setup.propagator.run(source=np.stack(sources, axis=-1))
        fields.update({s: solved[..., j].reshape(shape) for j, s in enumerate(group)})
    return fields


def higher_orders(setup: LinearizationSetup, jobs) -> list[MixedOrderResult]:
    """Per (probes, eps_schedule) job, the order-M mixed quotient
    (alternating corner sum over {0, eps_l}^M divided by prod eps_l, M the
    number of probes) against the direct solve of the M-th linearized
    equation.  Every corner of every job, and the base solution while it is
    unsolved, is one batched nonlinear solve.

    The direct source carries every partition term
    -sum_pi d_u^{|pi|} b(base) prod_{B in pi} w^B; with distinct single-probe
    structure and vanishing intermediate derivatives along the base it
    collapses to the leading term -d_u^M b(base) prod v_l.

    eps_schedule: list of amplitude tuples (one tuple per refinement level);
    a scalar level is broadcast to all probes.  A level with a zero
    amplitude, or a job with an all-zero probe, solves no corner and gets a
    zero quotient.  Each result holds the last level's quotient, the direct
    field, the last level's gap, the gap rate over two or more levels and
    the number of corner columns solved.
    """
    grid = setup.grid
    plans, columns, labels = [], [], []
    distinct, subsets = {}, {}  # distinct traces' indices; needed fields as tuples of them
    for probes, eps_schedule in jobs:
        M = len(probes)
        if M < 1:
            raise GridError("need at least one probe")
        levels = [tuple(map(float, (lvl,) * M if np.isscalar(lvl) else lvl))
                  for lvl in eps_schedule]
        if any(len(amps) != M for amps in levels):
            raise GridError("amplitude tuple length must match probe count")
        traces = np.stack([trace_values(grid, p) for p in probes], axis=-1)
        check_compatibility(grid, None, traces)
        zero_probe = any(np.max(np.abs(f.values)) == 0.0 for f in probes)
        live = [amps for amps in levels if not (zero_probe or float(np.prod(amps)) == 0.0)]
        # the empty corner is the base
        corners = [s for size in range(M + 1) for s in combinations(range(M), size)]
        batch = [(amps, s) for amps in live for s in corners[1:]]
        columns += [sum(amps[i] * traces[..., i] for i in s) for amps, s in batch]
        labels += [f"order-{M} corner {s} at amplitudes {amps}" for amps, s in batch]
        index = [distinct.setdefault(traces[..., i].tobytes(), (len(distinct), traces[..., i]))[0]
                 for i in range(M)]
        subsets.update(dict.fromkeys(tuple(index[i] for i in s) for s in corners[1:]))
        plans.append((traces, levels, live, corners, len(batch), tuple(index)))

    values = setup.solve_columns(columns, labels)
    fields = _direct_mixed_fields(setup, np.stack([t for _, t in distinct.values()], -1), subsets)
    base = setup.base_solution()
    solved = (values[..., j].reshape(base.values.shape) for j in range(len(columns)))
    results = []
    for traces, levels, live, corners, corner_solves, probes in plans:
        M = traces.shape[-1]
        direct = Field(grid, fields[probes], DOMAIN_Q)
        quotient = None
        gaps, eps_size = [], []
        for amps in levels:
            if amps in live:
                acc = np.zeros_like(base.values)
                for s in corners:
                    acc = acc + (-1.0) ** (M - len(s)) * (base.values if not s else next(solved))
                quotient = Field(grid, acc / float(np.prod(amps)), DOMAIN_Q)
            else:
                quotient = zero_field(grid)
            eps_size.append(max(amps))
            gaps.append(norm(quotient - direct, "L2Q"))
        rate = _rate_report(eps_size, gaps) if len(levels) >= 2 else None
        gap = gaps[-1] if gaps else None
        results.append(MixedOrderResult(quotient, direct, gap, rate, corner_solves))
    return results
