"""Numerical verification suite: Carleman inequality ratio checks, the
discrete maximum principle, and the non-uniqueness construction for passive
measurements.

These checks witness inequalities on concrete discrete solutions; they never
certify the estimates.  Each Carleman check is one trapezoid integral over
the grid's quadrature per weight parameter: the first over Omega and the
levels in [ENDPOINT_CLIP T, (1 - ENDPOINT_CLIP) T], the second over Omega
and the levels of [0, t0].  Weight functions degenerate at the time
endpoints (first weight, hence the clip) and grow like (1/K)^(2 lambda)
(second weight), so both checks split a common exponential scale off their
weights, which leaves each ratio unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import product

import numpy as np

from .dnmap import measure
from .expr import Expression
from .forward import assemble_operator, solve_linear
from .grid import (
    DOMAIN_OMEGA,
    DOMAIN_Q,
    FACE_IDS,
    FACE_NAMES,
    BoundaryPortion,
    Field,
    ResolvedPortion,
    SpaceTimeGrid,
    _trapezoid,
    norm,
    resolve_portion,
)
from .linearize import probe_trace
from .model import DiffusionTensor

ENDPOINT_CLIP = 0.02        # clip t in [kT, (1-k)T]; the weight vanishes there anyway
LOG_RANGE_FLAG = 690.0      # ~ 1e300 dynamic range in natural log
UNDERSHOOT_TOL = 1e-8       # a nonnegative solution's interior min is >= -UNDERSHOOT_TOL * sup
# the sampled weight parameters: (lambda, mu) of the first check, lambda of the second
LAMBDAS = (1.0, 2.0, 4.0)
MUS = (0.5, 1.0)
LAMBDAS2 = (2.0, 4.0, 8.0)


class AnalysisError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Weight configuration


@dataclass
class CarlemanConfig:
    """Weight data for both Carleman checks.

    psi: positive weight base on the closure of Omega with nonvanishing
    gradient and nonpositive conormal flux on the unobserved boundary part
    (sampled, not certified).  Second-weight parameters obey K > 0 and
    K + t0 < min(1, 1/(2L)).
    """

    psi: Expression
    K: float = 0.15
    t0: float = 0.15625
    L: float = 1.0

    def __post_init__(self):
        if self.K <= 0:  # the second weight 1/(K + t0 - t) needs K > 0 at t = t0
            raise AnalysisError(f"parameter constraint violated: K = {self.K:.4g} must be positive")
        bound = min(1.0, 1.0 / (2 * self.L))
        if self.K + self.t0 >= bound:
            raise AnalysisError(f"parameter constraint violated: K + t0 = {self.K + self.t0:.4g} "
                                f">= min(1, 1/(2L)) = {bound:.4g}")

    def psi_values(self, grid: SpaceTimeGrid) -> np.ndarray:
        vals = np.broadcast_to(np.asarray(self.psi(*grid.meshes()), dtype=float), grid.nx).copy()
        if np.min(vals) <= 0:
            raise AnalysisError("psi must be positive on the closure of Omega")
        return vals

    @staticmethod
    def first_weight(psi, t, T, lam, mu):
        """(theta_1^2 e^-M, eta, phi) at weight-base values psi and times t
        that broadcast against them: phi = e^(mu psi) / (t^2 (T - t)^2),
        eta = (e^(mu psi) - e^(2 mu max psi)) / (t^2 (T - t)^2), theta_1 =
        e^(lam eta) and M = max 2 lam eta.  Both sides of the first check
        carry theta_1^2, so the scale e^-M leaves their ratio unchanged and
        keeps the weight from underflowing."""
        tt = t**2 * (T - t) ** 2
        e = np.exp(mu * psi)
        eta = (e - math.exp(2 * mu * float(np.max(psi)))) / tt
        two = 2 * lam * eta
        return np.exp(two - np.max(two)), eta, e / tt

    def check_weight_conditions(self, grid: SpaceTimeGrid, gamma, gamma0: ResolvedPortion) -> dict:
        """Sampled |grad psi| > 0 on Omega, and the largest conormal flux
        gamma grad psi . nu at t = 0 over the faces gamma0 leaves unobserved
        (None, and the condition holds, when it observes every face)."""
        meshes = grid.meshes()
        grads = [np.broadcast_to(np.asarray(self.psi(*meshes, var=v, order=1), dtype=float),
                                 grid.nx).reshape(-1) for v in "xy"[:grid.dim]]
        rest = [FACE_NAMES[f] for f in grid.faces() if f not in gamma0.faces]
        worst = None
        if rest:
            nodes = resolve_portion(grid, BoundaryPortion.named(*rest))
            xy = [m.reshape(-1)[nodes.flat] for m in meshes]
            axis, side = np.array(nodes.face_of_node, dtype=int).reshape(-1, 2).T
            sign = np.where(side == 1, 1.0, -1.0)  # the outward normal is sign * e_axis
            gamma = gamma if gamma is not None else DiffusionTensor.identity()
            worst = float(np.max(sum(
                gamma.component(i, j, *xy, t=0.0) * grads[i][nodes.flat]
                * np.where(axis == j, sign, 0.0) for i, j in product(range(grid.dim), repeat=2)
            )))
        return {
            "grad_nonvanishing": bool(np.min(sum(g**2 for g in grads)) > 0),
            "max_flux_on_unobserved": worst,
            "flux_condition_holds": worst is None or worst <= 1e-12,
        }


def default_weight_base(grid: SpaceTimeGrid, gamma0_faces=("left",)) -> Expression:
    """Quadratic weight base amp * (c0 + |x - x0|^2).  The center x0 lies a
    quarter span beyond the face opposite the first observed face, and
    mid-box along the other axis.  With that placement the conormal flux
    condition holds on the sampled unobserved faces of an interval; on
    rectangles the tangential faces are checked and reported, not
    guaranteed.

    The amplitude is chosen so the exponent 2 lambda eta spans at most about
    90 natural-log units over the clipped cylinder for the sampled (lambda,
    mu) of LAMBDAS and MUS: the weight keeps its shape but stays resolvable
    in double precision, which keeps inequality ratios stable under
    refinement.
    """
    axis, side = FACE_IDS[gamma0_faces[0]]
    span = grid.upper[axis] - grid.lower[axis]
    center = [0.5 * (lo + hi) for lo, hi in zip(grid.lower, grid.upper)]
    center[axis] = grid.upper[axis] + 0.25 * span if side == 0 else grid.lower[axis] - 0.25 * span
    # exponent scale at the clip edge: |eta| ~ mu * 2 psi_max / (clip-time factor)
    tmin = ENDPOINT_CLIP * grid.T * (1 - ENDPOINT_CLIP) * grid.T
    amp = 90.0 * tmin**2 / (2 * max(LAMBDAS) * max(MUS) * 2.0)
    far = sum(max(abs(lo - c), abs(hi - c)) ** 2
              for lo, hi, c in zip(grid.lower, grid.upper, center))
    scale = (far + 1.0) / amp
    terms = " + ".join(f"({v} - {c!r})^2" for v, c in zip("xy", center))
    return Expression(f"(0.5 + {terms}) / {scale!r}")


@dataclass
class InequalityReport:
    entries: list                     # per parameter point: dict with lhs, rhs, ratio
    degenerate: bool = False
    notes: list = dc_field(default_factory=list)

    def max_ratio(self) -> float:
        vals = [e["ratio"] for e in self.entries if np.isfinite(e["ratio"])]
        return max(vals) if vals else 0.0

    def all_finite(self) -> bool:
        return all(np.isfinite(e["ratio"]) for e in self.entries)


def _gradient_fields(u: Field):
    """Central-difference spatial gradient per time level (one-sided at the
    boundary)."""
    return [np.gradient(u.values, h, axis=1 + axis) for axis, h in enumerate(u.grid.h)]


def _entry(lhs, rhs, **params) -> dict:
    """params, both sides and lhs / rhs: 0 when both vanish, inf when only rhs does."""
    ratio = 0.0 if (lhs == 0.0 and rhs == 0.0) else (lhs / rhs if rhs > 0 else np.inf)
    return {**params, "lhs": lhs, "rhs": rhs, "ratio": ratio}


def carleman_check_1(u: Field, F: Field, cfg: CarlemanConfig, gamma0) -> InequalityReport:
    """Interior-weight inequality: weighted interior energy vs weighted
    source plus observed-flux terms, per (lambda, mu) of LAMBDAS x MUS."""
    grid = u.grid
    resolved = gamma0 if isinstance(gamma0, ResolvedPortion) else resolve_portion(grid, gamma0)
    times = grid.times()
    clip = (times >= ENDPOINT_CLIP * grid.T) & (times <= (1 - ENDPOINT_CLIP) * grid.T)
    t, w_time = grid.level_times()[clip], grid.time_weights()[clip]
    w_space = grid.space_weights().reshape(-1)

    def integral(values):
        return float(w_time @ (values.reshape(len(w_time), -1) @ w_space))

    def on_portion(values):
        return values.reshape(len(w_time), -1)[:, resolved.flat]

    grad2 = sum(g**2 for g in _gradient_fields(u))[clip]
    u2, F2 = u.values[clip] ** 2, F.values[clip] ** 2
    dn2 = np.abs(measure(u, resolved).values[clip]) ** 2
    psi = cfg.psi_values(grid)
    entries, notes = [], []
    for lam, mu in product(LAMBDAS, MUS):
        theta2, eta, phi = cfg.first_weight(psi, t, grid.T, lam, mu)
        M = 2 * lam * float(np.max(eta))
        if M < -700.0:
            notes.append(f"(lambda={lam}, mu={mu}): unscaled weight would underflow "
                         f"(peak exponent {M:.3g}); scale-shifted arithmetic used")
        lhs = integral(theta2 * (lam * mu**2 * phi * grad2 + lam**3 * mu**4 * phi**3 * u2))
        flux = (lam * mu * on_portion(theta2) * on_portion(phi) * dn2) @ resolved.weights
        rhs = integral(theta2 * F2) + float(w_time @ flux)
        entries.append(_entry(lhs, rhs, **{"lambda": lam, "mu": mu}))
    degenerate = all(e["lhs"] == 0.0 and e["rhs"] == 0.0 for e in entries) and norm(u, "L2Q") > 0
    if degenerate:
        notes.append("weight underflowed everywhere")
    return InequalityReport(entries, degenerate, notes)


def carleman_check_2(u: Field, F: Field, cfg: CarlemanConfig, gamma=None) -> InequalityReport:
    """Initial-slice weight inequality on [0, t0], per lambda of LAMBDAS2,
    computed with a common exponential scaling split off so that
    theta_2^(2 lambda) never overflows."""
    grid = u.grid
    if cfg.t0 >= grid.T:
        raise AnalysisError("t0 must lie inside (0, T)")
    gamma = gamma if gamma is not None else DiffusionTensor.identity()
    k_t0 = int(round(cfg.t0 / grid.dt))
    if abs(grid.times()[k_t0] - cfg.t0) > 1e-9 * grid.T:
        raise AnalysisError("t0 must sit on a time level")
    levels = slice(k_t0 + 1)
    w_space = grid.space_weights().reshape(-1)

    def per_level(values):
        return values.reshape(k_t0 + 1, -1) @ w_space

    grads = [g[levels] for g in _gradient_fields(u)]
    meshes, t = grid.meshes(), grid.level_times()[levels]
    # the quadratic form sum gamma_ij du_i du_j
    quad = per_level(sum(gamma.component(i, j, *meshes, t=t) * grads[i] * grads[j]
                         for i, j in product(range(grid.dim), repeat=2)))
    u2, F2 = per_level(u.values[levels] ** 2), per_level(F.values[levels] ** 2)
    w_time = _trapezoid(k_t0 + 1, grid.dt)
    d = cfg.K + cfg.t0 - grid.times()[levels]  # 1 / theta_2

    entries, notes = [], []
    for lam in LAMBDAS2:
        M = -2.0 * lam * math.log(cfg.K)  # log theta_2^(2 lambda) at t = t0: scale by exp(-M)
        if M + 2.0 * lam * math.log(cfg.K + cfg.t0) > LOG_RANGE_FLAG:
            notes.append(f"lambda {lam}: dynamic range beyond 1e300-equivalent; scaled arithmetic")
        s = np.exp(-2.0 * lam * np.log(d) - M)
        # the initial slice on the lhs; the slice at t0 and the initial gradient on the rhs
        lhs = float(w_time @ (s * (lam * u2 / d**2 + cfg.L * quad))) + lam * math.exp(
            -(2 * lam + 1) * math.log(cfg.K + cfg.t0) - M) * u2[0]
        rhs = (float(w_time @ (s * F2))
               + lam * math.exp(-(2 * lam + 1) * math.log(cfg.K) - M) * u2[-1]
               + math.exp(-2 * lam * math.log(cfg.K + cfg.t0) - M) * quad[0])
        entries.append(_entry(float(lhs), float(rhs), **{"lambda": lam, "L": cfg.L}))
    return InequalityReport(entries, False, notes)


# ---------------------------------------------------------------------------
# Maximum principle


@dataclass
class MaxPrincipleCertificate:
    """The discrete minimum of a solution with nonnegative boundary data and
    zero initial data.  The maximum principle holds when it is nonnegative
    (the interior dips at most UNDERSHOOT_TOL * sup below zero) and strictly
    positive after the first level."""

    solution: Field
    interior_min: float
    min_after_first_level: float
    sup: float

    @property
    def undershoot(self) -> float:
        return -self.interior_min / self.sup

    @property
    def nonnegative(self) -> bool:
        return self.undershoot <= UNDERSHOOT_TOL

    @property
    def strictly_positive_later(self) -> bool:
        return self.min_after_first_level > 0.0


def max_principle_check(grid: SpaceTimeGrid, gamma, q, trace: Field | None = None,
                        scheme: str = "be") -> MaxPrincipleCertificate:
    """Solve with boundary data trace, by default (t/T)^2 on the full
    boundary, and zero initial data, then measure the discrete minimum.
    Implicit Euler on the flux stencil is inverse-positive, so a certificate
    that does not hold flags a scheme or data bug."""
    if trace is None:
        trace = probe_trace(grid, lambda *args: np.ones_like(np.asarray(args[0], dtype=float)))
    solution = solve_linear(grid, gamma, q, f=trace, scheme=scheme).solution
    flat = solution.values.reshape(grid.n_levels, -1)[:, grid.interior_mask()]
    return MaxPrincipleCertificate(solution, float(np.min(flat)), float(np.min(flat[1:])),
                                   float(np.max(np.abs(solution.values))))


# ---------------------------------------------------------------------------
# Non-uniqueness construction


@dataclass
class NonUniquenessDemo:
    g1: Field
    g2: Field
    source1: Field               # the u-independent nonlinearity value A_1(x,t)
    source2: Field
    trace_sup: float
    g_gap: float
    sup_fields: float


def _bump(r2):
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def nonuniqueness_demo(
    grid: SpaceTimeGrid,
    gamma=None,
    collar: float = 0.15,
    centers=(0.4, 0.6),
    amplitudes=(1.0, -0.8),
) -> NonUniquenessDemo:
    """Two time-independent states supported away from a boundary collar,
    each an exact discrete solution of u_t - div(gamma grad u) + A_j = 0 with
    A_j = div(gamma grad u_j): distinct initial data, identical (zero)
    passive DN traces.  The bumps take the largest radius that keeps each
    inside the collar box, times 0.9."""
    if collar <= 0 or collar >= 0.5 * min(
        u - l for l, u in zip(grid.lower, grid.upper)
    ):
        raise AnalysisError("collar width must leave room for interior supports")
    room = np.inf
    for frac in centers:
        for i in range(grid.dim):
            c = grid.lower[i] + frac * (grid.upper[i] - grid.lower[i])
            room = min(room, c - (grid.lower[i] + collar), (grid.upper[i] - collar) - c)
    if room <= 0:
        raise AnalysisError("bump centers sit inside the collar")
    width = 0.9 * room
    meshes = grid.meshes()

    def state(center_frac, amp):
        r2 = np.zeros(grid.nx)
        for i in range(grid.dim):
            c = grid.lower[i] + center_frac * (grid.upper[i] - grid.lower[i])
            r2 = r2 + ((meshes[i] - c) / width) ** 2
        vals = amp * _bump(r2)
        lo = [grid.lower[i] + collar for i in range(grid.dim)]
        hi = [grid.upper[i] - collar for i in range(grid.dim)]
        inside = np.ones(grid.nx, dtype=bool)
        for i in range(grid.dim):
            inside &= (meshes[i] >= lo[i]) & (meshes[i] <= hi[i])
        if np.any((vals != 0) & ~inside):
            raise AnalysisError("bump support leaks into the boundary collar")
        return vals

    s1 = state(centers[0], amplitudes[0])
    s2 = state(centers[1], amplitudes[1])
    if np.allclose(s1, s2):
        raise AnalysisError("degenerate input: the two states must differ at t = 0")

    L0 = assemble_operator(grid, gamma, 0.0)
    sources = []
    fields = []
    for s in (s1, s2):
        u_field = Field(grid, np.repeat(s[None], grid.n_levels, axis=0), DOMAIN_Q)
        fields.append(u_field)
        # u_t = 0, so A = div(gamma grad u) = -(L0 u), an exact discrete source
        A = -(L0 @ s.reshape(-1)).reshape(grid.nx)
        sources.append(Field(grid, np.repeat(A[None], grid.n_levels, axis=0), DOMAIN_Q))

    full = resolve_portion(grid, BoundaryPortion.full())
    m1 = measure(fields[0], full)
    m2 = measure(fields[1], full)
    sup_fields = max(float(np.max(np.abs(s1))), float(np.max(np.abs(s2))))
    trace_sup = max(float(np.max(np.abs(m1.values))), float(np.max(np.abs(m2.values))))
    gap = norm(Field(grid, s1 - s2, DOMAIN_OMEGA), "L2Omega")
    return NonUniquenessDemo(
        Field(grid, s1, DOMAIN_OMEGA),
        Field(grid, s2, DOMAIN_OMEGA),
        sources[0],
        sources[1],
        trace_sup,
        gap,
        sup_fields,
    )
