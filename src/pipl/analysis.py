"""Numerical verification suite: Carleman inequality ratio checks, the
discrete maximum principle, and the non-uniqueness construction for passive
measurements.

These checks witness inequalities on concrete discrete solutions; they never
certify the estimates.  Weight functions degenerate at the time endpoints
(first weight) and grow like (1/K)^(2 lambda) (second weight), so endpoint
cells are clipped and the second check runs in log-scaled arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dnmap import measure
from .expr import Expression
from .forward import assemble_operator, solve_linear
from .grid import (
    DOMAIN_OMEGA,
    DOMAIN_Q,
    BoundaryPortion,
    Field,
    ResolvedPortion,
    SpaceTimeGrid,
    norm,
    resolve_portion,
)
from .linearize import probe_trace
from .model import DiffusionTensor

ENDPOINT_CLIP = 0.02        # clip t in [kT, (1-k)T]; the weight vanishes there anyway
LOG_RANGE_FLAG = 690.0      # ~ 1e300 dynamic range in natural log
UNDERSHOOT_TOL = 1e-8       # a nonnegative solution's interior min is >= -UNDERSHOOT_TOL * sup


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
    lambdas: tuple = (1.0, 2.0, 4.0)
    mus: tuple = (0.5, 1.0)
    K: float = 0.15
    t0: float = 0.15625
    L: float = 1.0
    lambdas2: tuple = (2.0, 4.0, 8.0)

    def __post_init__(self):
        if self.K <= 0:  # the second weight 1/(K + t0 - t) needs K > 0 at t = t0
            raise AnalysisError(f"parameter constraint violated: K = {self.K:.4g} must be positive")
        if self.K + self.t0 >= min(1.0, 1.0 / (2 * self.L)):
            raise AnalysisError(
                f"parameter constraint violated: K + t0 = {self.K + self.t0:.4g} "
                f">= min(1, 1/(2L)) = {min(1.0, 1.0 / (2 * self.L)):.4g}"
            )

    def psi_values(self, grid: SpaceTimeGrid) -> np.ndarray:
        vals = np.broadcast_to(np.asarray(self.psi(*grid.meshes()), dtype=float), grid.nx).copy()
        if np.min(vals) <= 0:
            raise AnalysisError("psi must be positive on the closure of Omega")
        return vals

    def check_weight_conditions(self, grid: SpaceTimeGrid, gamma, gamma0: ResolvedPortion) -> dict:
        """Sampled |grad psi| > 0 interior and conormal-flux sign on the
        complement of the observation portion."""
        meshes, names = grid.meshes(), "xy"[:grid.dim]
        grads = (np.asarray(self.psi(*meshes, var=v, order=1), dtype=float) for v in names)
        grad2 = sum(np.broadcast_to(g, grid.nx) ** 2 for g in grads)
        grad_ok = bool(np.min(grad2) > 0)
        gamma = gamma if gamma is not None else DiffusionTensor.identity()
        full = resolve_portion(grid, BoundaryPortion.full())
        observed = set(
            zip((tuple(f) for f in gamma0.face_of_node), gamma0.multi_indices)
        )
        worst_flux = -np.inf
        for face, mi in zip(full.face_of_node, full.multi_indices):
            if (tuple(face), mi) in observed:
                continue
            xy = grid.node_coords(mi)
            grad = [float(self.psi(*xy, var=v, order=1)) for v in names]
            nu = grid.face_normal(face)
            flux = 0.0
            for i in range(grid.dim):
                for j in range(grid.dim):
                    flux += float(gamma.component(i, j, *xy, t=0.0)) * grad[i] * nu[j]
            worst_flux = max(worst_flux, flux)
        return {
            "grad_nonvanishing": grad_ok,
            "max_flux_on_unobserved": worst_flux,
            "flux_condition_holds": bool(worst_flux <= 1e-12),
        }


def default_weight_base(grid: SpaceTimeGrid, gamma0_faces=("left",)) -> Expression:
    """Quadratic weight base amp * (c0 + |x - x0|^2) with the center placed
    outside the domain beyond the face opposite the observation portion.
    With that placement the conormal flux condition holds on the sampled
    unobserved faces of an interval; on rectangles the tangential faces are
    checked and reported, not guaranteed.

    The amplitude is chosen so the exponent 2 lambda eta spans at most about
    90 natural-log units over the clipped cylinder for CarlemanConfig's
    default (lambda, mu) grids: the weight keeps its shape but stays
    resolvable in double precision, which keeps inequality ratios stable
    under refinement.
    """
    from .grid import FACE_IDS

    faces = [FACE_IDS[name] for name in gamma0_faces]
    axis, side = faces[0]
    span = grid.upper[axis] - grid.lower[axis]
    # center beyond the face opposite Gamma_0
    x0 = (grid.upper[axis] + 0.25 * span) if side == 0 else (grid.lower[axis] - 0.25 * span)
    # exponent scale at the clip edge: |eta| ~ mu * 2 psi_max / (clip-time factor)
    tmin = ENDPOINT_CLIP * grid.T * (1 - ENDPOINT_CLIP) * grid.T
    # CarlemanConfig's class attributes are its field defaults
    amp = 90.0 * tmin**2 / (2 * max(CarlemanConfig.lambdas) * max(CarlemanConfig.mus) * 2.0)
    if grid.dim == 1:
        far = max(abs(grid.lower[0] - x0), abs(grid.upper[0] - x0))
        scale = (far**2 + 1.0) / amp
        return Expression(f"(0.5 + (x - {x0!r})^2) / {scale!r}")
    var = "x" if axis == 0 else "y"
    other = "y" if axis == 0 else "x"
    oc = 0.5 * (grid.lower[1 - axis] + grid.upper[1 - axis])
    far = max(abs(grid.lower[axis] - x0), abs(grid.upper[axis] - x0)) ** 2
    far += (0.5 * (grid.upper[1 - axis] - grid.lower[1 - axis])) ** 2
    scale = (far + 1.0) / amp
    return Expression(f"(0.5 + ({var} - {x0!r})^2 + ({other} - {oc!r})^2) / {scale!r}")


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
    g = u.grid
    grads = []
    for axis in range(g.dim):
        grads.append(np.gradient(u.values, g.h[axis], axis=1 + axis))
    return grads


def carleman_check_1(
    u: Field,
    F: Field,
    cfg: CarlemanConfig,
    gamma0,
    gamma=None,
) -> InequalityReport:
    """Interior-weight inequality: weighted interior energy vs weighted
    source plus observed-flux terms, per (lambda, mu)."""
    grid = u.grid
    psi = cfg.psi_values(grid)
    psi_max = float(np.max(psi))
    resolved = gamma0 if isinstance(gamma0, ResolvedPortion) else resolve_portion(grid, gamma0)
    dn = measure(u, resolved)
    grads = _gradient_fields(u)
    grad2 = sum(gv**2 for gv in grads)
    w_space = grid.space_weights().reshape(-1)
    w_time = grid.time_weights()
    times = grid.times()
    clip = (times >= ENDPOINT_CLIP * grid.T) & (times <= (1 - ENDPOINT_CLIP) * grid.T)
    tt_max = max((t**2) * (grid.T - t) ** 2 for t in times[clip])

    entries = []
    notes = []
    for lam in cfg.lambdas:
        for mu in cfg.mus:
            # common scale M = max of 2 lambda eta over the clipped cylinder:
            # both sides carry theta_1^2, so working with exp(2 lam eta - M)
            # leaves the ratio unchanged and never underflows.  eta's
            # numerator is negative, so the max is at the largest t^2 (T - t)^2
            M = 2 * lam * ((math.exp(mu * psi_max) - math.exp(2 * mu * psi_max)) / tt_max)
            if M < -700.0:
                notes.append(
                    f"(lambda={lam}, mu={mu}): unscaled weight would underflow "
                    f"(peak exponent {M:.3g}); scale-shifted arithmetic used"
                )
            lhs = 0.0
            rhs = 0.0
            for k, t in enumerate(times):
                if not clip[k]:
                    continue
                tt = (t**2) * (grid.T - t) ** 2
                phi = np.exp(mu * psi) / tt
                eta = (np.exp(mu * psi) - math.exp(2 * mu * psi_max)) / tt
                theta2 = np.exp(2 * lam * eta - M)
                integrand = theta2 * (
                    lam * mu**2 * phi * grad2[k] + lam**3 * mu**4 * phi**3 * u.values[k] ** 2
                )
                lhs += w_time[k] * float(np.dot(integrand.reshape(-1), w_space))
                rhs += w_time[k] * float(
                    np.dot((theta2 * F.values[k] ** 2).reshape(-1), w_space)
                )
                # boundary term on the observation portion
                th_b = theta2.reshape(-1)[resolved.flat]
                phi_b = phi.reshape(-1)[resolved.flat]
                rhs += w_time[k] * float(
                    np.dot(lam * mu * th_b * phi_b * np.abs(dn.values[k]) ** 2, resolved.weights)
                )
            ratio = 0.0 if (lhs == 0.0 and rhs == 0.0) else (lhs / rhs if rhs > 0 else np.inf)
            entries.append({"lambda": lam, "mu": mu, "lhs": lhs, "rhs": rhs, "ratio": ratio})
    degenerate = all(e["lhs"] == 0.0 and e["rhs"] == 0.0 for e in entries) and norm(
        u, "L2Q"
    ) > 0
    if degenerate:
        notes.append("weight underflowed everywhere")
    return InequalityReport(entries, degenerate, notes)


def carleman_check_2(
    u: Field,
    F: Field,
    cfg: CarlemanConfig,
    gamma=None,
) -> InequalityReport:
    """Initial-slice weight inequality on [0, t0], per (lambda, L), computed
    with a common exponential scaling split off so that theta_2^(2 lambda)
    never overflows."""
    grid = u.grid
    if cfg.t0 >= grid.T:
        raise AnalysisError("t0 must lie inside (0, T)")
    gamma = gamma if gamma is not None else DiffusionTensor.identity()
    times = grid.times()
    k_t0 = int(round(cfg.t0 / grid.dt))
    if abs(times[k_t0] - cfg.t0) > 1e-9 * grid.T:
        raise AnalysisError("t0 must sit on a time level")
    grads = _gradient_fields(u)
    meshes = grid.meshes()
    w_space = grid.space_weights().reshape(-1)

    # quadratic form sum gamma_ij du_i du_j per level
    def gamma_quad(k, t):
        acc = np.zeros(grid.nx)
        for i in range(grid.dim):
            for j in range(grid.dim):
                gij = np.broadcast_to(
                    np.asarray(gamma.component(i, j, *meshes, t=t), dtype=float), grid.nx
                )
                acc = acc + gij * grads[i][k] * grads[j][k]
        return acc

    w_time = np.full(k_t0 + 1, grid.dt)
    w_time[0] *= 0.5
    w_time[-1] *= 0.5

    entries = []
    notes = []
    theta_log_max = -2.0 * math.log(cfg.K)          # log theta2^2 at t = t0
    for lam in cfg.lambdas2:
        log_peak = lam * theta_log_max
        log_floor = -2.0 * lam * math.log(cfg.K + cfg.t0)
        if log_peak - log_floor > LOG_RANGE_FLAG:
            notes.append(f"lambda {lam}: dynamic range beyond 1e300-equivalent; scaled arithmetic")
        M = log_peak  # scale everything by exp(-M)
        lhs = 0.0
        rhs = 0.0
        for k in range(k_t0 + 1):
            t = times[k]
            log_th2lam = -2.0 * lam * math.log(cfg.K + cfg.t0 - t)
            s = math.exp(log_th2lam - M)
            theta2sq = 1.0 / (cfg.K + cfg.t0 - t) ** 2
            integrand = s * (lam * theta2sq * u.values[k] ** 2 + cfg.L * gamma_quad(k, t))
            lhs += w_time[k] * float(np.dot(integrand.reshape(-1), w_space))
            rhs += w_time[k] * s * float(np.dot((F.values[k] ** 2).reshape(-1), w_space))
        # initial-slice term on the lhs
        s0 = math.exp(-(2 * lam + 1) * math.log(cfg.K + cfg.t0) - M)
        lhs += lam * s0 * float(np.dot((u.values[0] ** 2).reshape(-1), w_space))
        # rhs slice terms at t0 and the initial gradient
        st0 = math.exp(-(2 * lam + 1) * math.log(cfg.K) - M)
        rhs += lam * st0 * float(np.dot((u.values[k_t0] ** 2).reshape(-1), w_space))
        sg = math.exp(-2 * lam * math.log(cfg.K + cfg.t0) - M)
        rhs += sg * float(np.dot(gamma_quad(0, 0.0).reshape(-1), w_space))
        ratio = 0.0 if (lhs == 0.0 and rhs == 0.0) else (lhs / rhs if rhs > 0 else np.inf)
        entries.append({"lambda": lam, "L": cfg.L, "lhs": lhs, "rhs": rhs, "ratio": ratio})
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
