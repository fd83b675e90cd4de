"""Coefficients and nonlinearities: diffusion tensors, nonlinear reaction
terms as expression trees with exact u-derivatives, and admissibility checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .expr import Expression, mentions
from .grid import DOMAIN_Q, Field, SpaceTimeGrid

CLASS_A = "A_T"                      # C^1 with sub-sqrt-log growth of the u-derivative
CLASS_ANALYTIC = "admissible-analytic"  # analytic in u, vanishing at u = 0
CLASS_LINEAR = "linear-potential"    # affine in u

CLASSES = (CLASS_A, CLASS_ANALYTIC, CLASS_LINEAR)


class ModelError(ValueError):
    pass


def _as_expression(e) -> Expression:
    if isinstance(e, Expression):
        return e
    if isinstance(e, (int, float)):
        return Expression.constant(float(e))
    return Expression(str(e))


# ---------------------------------------------------------------------------
# Diffusion tensor


@dataclass
class DiffusionTensor:
    """Symmetric diffusion tensor gamma(x[, y], t) with ellipticity constant
    rho0: sampled eigenvalues must stay inside [rho0, 1/rho0]."""

    entries: tuple            # 1D: (g11,) ; 2D: (g11, g12, g22)
    rho0: float = 0.5

    @classmethod
    def identity(cls) -> "DiffusionTensor":
        return cls((Expression.constant(1.0),), rho0=0.9)

    @classmethod
    def scalar(cls, expr, rho0=0.5) -> "DiffusionTensor":
        return cls((_as_expression(expr),), rho0=rho0)

    @classmethod
    def matrix2d(cls, g11, g12, g22, rho0=0.5) -> "DiffusionTensor":
        return cls(tuple(_as_expression(e) for e in (g11, g12, g22)), rho0=rho0)

    def __post_init__(self):
        self.entries = tuple(_as_expression(e) for e in self.entries)
        if len(self.entries) not in (1, 3):
            raise ModelError("expect 1 entry (scalar) or 3 entries (2D symmetric)")
        if not 0 < self.rho0 < 1:
            raise ModelError("rho0 must lie in (0, 1)")

    @property
    def is_matrix(self) -> bool:
        return len(self.entries) == 3

    def time_dependent(self) -> bool:
        return any(e.uses("t") for e in self.entries)

    def component(self, i: int, j: int, x, y=0.0, t=0.0):
        if not self.is_matrix:
            return self.entries[0](x=x, y=y, t=t) if i == j else np.zeros_like(np.asarray(x, dtype=float))
        key = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}[(i, j)]
        return self.entries[key](x=x, y=y, t=t)

    def check_ellipticity(self, grid: SpaceTimeGrid) -> None:
        """Sample eigenvalues on grid nodes at 5 times; reject those outside
        [rho0, 1/rho0] or not finite.  The 2x2 formula serves a scalar too:
        a I has mean a and radius 0 (NaN where a is infinite, so rejected).
        On a 1D grid only g11 is judged, the one entry its operator reads."""
        meshes = grid.meshes()
        for t in np.linspace(0.0, grid.T, 5):
            a, b, c = (
                np.broadcast_to(np.asarray(self.component(i, j, *meshes, t=t), float), grid.nx)
                for i, j in ((0, 0), (0, 1), (1, 1))
            )
            if grid.dim == 1:
                b, c = 0.0, a
            mean = (a + c) / 2
            rad = np.sqrt(((a - c) / 2) ** 2 + b**2)
            lo, hi = float(np.min(mean - rad)), float(np.max(mean + rad))
            if not self.rho0 - 1e-12 <= lo <= hi <= 1.0 / self.rho0 + 1e-12:
                raise ModelError(
                    f"sampled eigenvalues [{lo:.4g}, {hi:.4g}] leave [{self.rho0}, {1/self.rho0:.4g}] at t={t:.4g}"
                )


# ---------------------------------------------------------------------------
# Nonlinearity


@dataclass
class Nonlinearity:
    """Reaction term a(x[, y], t, u) as an expression tree plus a class tag.

    Tags: A_T, admissible-analytic, linear-potential.  A tag is a
    hypothesis of the recovery results, not of solvability: the solvers do
    not check it; validate(grid) does.  The paper's B_T terms have no tag:
    their tail, glued on at T - eps, is null_control's tail argument.
    """

    expr: Expression
    tag: str = CLASS_ANALYTIC

    def __post_init__(self):
        self.expr = _as_expression(self.expr)
        if self.tag not in CLASSES:
            raise ModelError(f"unknown class tag {self.tag!r}")

    @classmethod
    def parse(cls, source: str, tag=CLASS_ANALYTIC) -> "Nonlinearity":
        return cls(Expression(source), tag)

    @classmethod
    def zero(cls) -> "Nonlinearity":
        return cls(Expression.constant(0.0), CLASS_LINEAR)

    def validate(self, grid: SpaceTimeGrid) -> None:
        """The class check, ModelError on failure: an A_T term must pass
        check_growth, a linear-potential term must be affine in u
        (is_affine; a source a(x, t, 0) != 0 is allowed), and an analytic
        term must vanish at u = 0 on 64 seeded samples of (x, t)."""
        if self.tag == CLASS_A:
            growth = check_growth(self, grid)
            if not growth.satisfies:
                raise ModelError(f"breaks the {CLASS_A} growth condition: {growth.note}")
        if self.tag == CLASS_LINEAR and not self.is_affine():
            raise ModelError(f"class {CLASS_LINEAR}: term is not affine in u")
        if self.tag != CLASS_ANALYTIC:
            return
        rng = default_rng(0)
        xy = [rng.uniform(lo, up, 64) for lo, up in zip(grid.lower, grid.upper)]
        ts = rng.uniform(0.0, grid.T, 64)
        vals = np.broadcast_to(np.asarray(self.expr(*xy, t=ts, u=0.0), dtype=float), (64,))
        worst = float(np.max(np.abs(vals)))
        if worst > 1e-12:
            raise ModelError(f"class {self.tag}: term does not vanish at u=0 (max |b(x,t,0)| = {worst:.3g})")

    def is_affine(self) -> bool:
        """Whether a is affine in u, read off the expression, not the tag: its
        u-derivative does not involve u.  (Asking only that the second
        u-derivative fold to 0 would pass abs(u), as sign(u) differentiates
        to 0.)"""
        return not mentions(self.expr.derivative_root("u", 1), "u")

    def __call__(self, x, t, u, y=0.0, k: int = 0):
        """Value of the k-th u-derivative at broadcastable points."""
        if k < 0:
            raise ModelError("derivative order must be >= 0")
        return self.expr(x=x, y=y, t=t, u=u, var="u", order=k)

    def along(self, base: Field, k: int) -> Field:
        """The Taylor coefficient field d_u^k a(x, t, base(x, t)) over Q,
        along a Q base field."""
        if base.domain != DOMAIN_Q:
            raise ModelError("a Taylor coefficient needs a Q base field")
        g = base.grid
        x, *y = g.meshes()
        v = np.asarray(self(x, g.level_times(), base.values, *y, k=k), dtype=float)
        return Field(g, np.broadcast_to(v, (g.n_levels, *g.nx)).copy(), DOMAIN_Q)


# ---------------------------------------------------------------------------
# Growth condition check (sampled heuristic; FALSE verdicts carry a witness)


@dataclass
class GrowthReport:
    satisfies: bool
    y_samples: np.ndarray
    curve: np.ndarray          # sup over sampled (x,t) of d_u a / ln^(1/2) y
    note: str


def check_growth(nl: Nonlinearity, grid: SpaceTimeGrid, y_max: float = 1e6) -> GrowthReport:
    """Sample sup_(x,t) d_y a(x,t,y) / ln^(1/2)|y| at 40 values of y in
    [e, y_max] and 25 seeded points (x, t), and judge whether the tail
    trends to zero.  A False verdict is a certificate (the sampled curve
    fails monotone decay toward 0 by a margin); a True verdict is heuristic
    only.
    """
    if y_max <= math.e:
        raise ModelError("y_max must exceed e so the ln^(1/2) region is sampled")
    rng = default_rng(0)
    xs, *ys = (rng.uniform(lo, up, 25) for lo, up in zip(grid.lower, grid.upper))
    ts = rng.uniform(0.0, grid.T, 25)
    y_grid = np.exp(np.linspace(1.0, math.log(y_max), 40))
    curve = np.empty(40)
    for i, yv in enumerate(y_grid):
        d = nl(xs, ts, np.full(25, yv), *ys, k=1)
        d = np.broadcast_to(np.asarray(d, dtype=float), (25,))
        curve[i] = float(np.max(np.abs(d))) / math.sqrt(math.log(yv))
    # the condition is a limsup, so judge the decay of the suffix envelope
    # (pointwise values may oscillate under a decaying envelope)
    envelope = np.maximum.accumulate(curve[::-1])[::-1]
    peak = float(envelope[0])
    tail = float(envelope[-1])
    ok = bool(tail <= max(0.6 * peak, 1e-12))
    note = (
        "envelope decays toward 0 (heuristic)"
        if ok
        else f"sampled violation: envelope tail {tail:.3g} vs peak {peak:.3g}"
    )
    return GrowthReport(ok, y_grid, curve, note)

