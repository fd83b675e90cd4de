"""Complex geometrical optics solutions in carrier-factored form.

A forward probe is u = psi_minus * (theta_plus + z) with carrier
psi_minus = exp(rho w.x + rho^2 t) and oscillatory profile
theta_plus = (1 - exp(-rho^(3/4) t)) exp(-i(x,t).(xi,tau)), xi.w = 0.
Substituting u into (d_t - Lap + q)u = 0 cancels every carrier factor and
leaves the profile equation

    z_t - Lap z - 2 rho w.grad z + q z = -[phi' + (|xi|^2 - i tau + q) phi] E,

solved with zero initial and lateral data (the partial-data variant pins the
profile to zero on the designated aperture portion instead).  Backward
probes carry psi_plus = 1/psi_minus and theta_minus = 1 - exp(-rho^(3/4)(T-t)).
Carriers are never materialized; products of a matched forward/backward pair
cancel them exactly, which is the only way the pipeline ever uses them.

The profile operator depends on (rho, omega, direction) alone, so the
remainders of many (xi, tau) of one (rho, omega, direction, aperture) are
one multi-column march (RemainderMarch), stepped level by level, whose
plane waves are space waves times time waves, both formed once per march
(real ones when every xi and tau is zero); its stepper holds the LU of its
last step.  CGOFactory.build keeps every level of its one-probe march; the
probe sweep of recon.potential drives a march of many probes itself and
uses each level as it comes.  Neither forms a step residual, which
CGOFactory.residual forms on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .forward import Propagator, SolverError, potential_values
from .grid import DOMAIN_Q, BoundaryPortion, Field, SpaceTimeGrid, resolve_portion

OVERFLOW_LIMIT = np.exp(50.0)
RESOLUTION_LIMIT = 0.5   # warn when rho^(3/4) * dt exceeds this


class CGOError(ValueError):
    pass


@dataclass(frozen=True)
class CGOParameters:
    rho: float
    omega: tuple
    xi: tuple
    tau: float
    direction: str = "forward"
    aperture: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.rho, *self.omega, *self.xi, self.tau, self.aperture])):
            raise CGOError("rho, omega, xi, tau and aperture must be finite")
        if self.rho <= 0:
            raise CGOError("carrier strength rho must be positive")
        if self.direction not in ("forward", "backward"):
            raise CGOError("direction must be forward or backward")
        w = np.asarray(self.omega, dtype=float)
        if abs(np.linalg.norm(w) - 1.0) > 1e-12:
            raise CGOError("omega must be a unit vector")
        xi = np.asarray(self.xi, dtype=float)
        if len(xi) != len(w):
            raise CGOError("xi and omega must have equal length")
        if abs(float(np.dot(xi, w))) > 1e-10 * max(1.0, float(np.linalg.norm(xi))):
            raise CGOError("xi must be orthogonal to omega")
        if self.aperture < 0:
            raise CGOError("aperture must be >= 0")

    @classmethod
    def make(cls, rho, omega, xi=None, tau=0.0, direction="forward", aperture=0.0):
        omega = tuple(float(v) for v in np.atleast_1d(omega))
        xi = tuple(0.0 for _ in omega) if xi is None else tuple(float(v) for v in np.atleast_1d(xi))
        return cls(float(rho), omega, xi, float(tau), direction, float(aperture))

    def matched_backward(self) -> "CGOParameters":
        zero = tuple(0.0 for _ in self.omega)
        return CGOParameters(self.rho, self.omega, zero, 0.0, "backward", self.aperture)


def ramp(params: CGOParameters, t):
    """Boundary-layer ramp 1 - exp(-rho^(3/4) s) with s = t (forward) or
    T - t handled by the caller."""
    return 1.0 - np.exp(-params.rho**0.75 * t)


@dataclass
class CGOSolution:
    params: CGOParameters
    grid: SpaceTimeGrid
    theta: np.ndarray                  # oscillatory profile on Q, 0 at t = 0 or T
    z: Field                           # remainder profile on Q
    remainder_norm: float
    warnings: list = dc_field(default_factory=list)

    def profile(self) -> Field:
        """theta + z on Q."""
        return Field(self.grid, self.theta + self.z.values, DOMAIN_Q)


class CGOFactory:
    """Builds CGO remainders against a fixed potential, caching the stepper
    per (rho, omega, direction) since the profile operator is independent of
    (xi, tau)."""

    def __init__(self, grid: SpaceTimeGrid, q=None, scheme: str = "be", partial: bool = False):
        self.grid, self.q, self.scheme, self.partial = grid, q, scheme, partial
        self.q_levels, self._props = potential_values(grid, q), {}

    def propagator(self, params: CGOParameters) -> Propagator:
        """The profile stepper for (rho, omega, direction), built on first use."""
        key = (params.rho, params.omega, params.direction)
        if key not in self._props:
            sign = -2.0 if params.direction == "forward" else +2.0
            advection = tuple(sign * params.rho * w for w in params.omega)
            qf = (self.q if params.direction == "forward"
                  else Field(self.grid, self.q_levels[::-1].copy(), DOMAIN_Q))
            self._props[key] = Propagator(self.grid, None, qf, self.scheme, advection)
        return self._props[key]

    def build(self, params: CGOParameters) -> CGOSolution:
        """One probe, from a one-column RemainderMarch that forms and tallies
        every level at once; theta and the remainder are real when the march
        is."""
        grid = self.grid
        march = RemainderMarch(self, [params])
        theta, src, trace = march.fields(slice(None))
        z = np.empty_like(theta)
        for level, _, z_level in march.steps(lambda level: (
                theta[level], src[level], None if trace is None else trace[level])):
            z[level] = z_level
        march.tally(slice(None), z)
        shape = (grid.n_levels, *grid.nx)
        return CGOSolution(params, grid, theta[..., 0].reshape(shape),
                           Field(grid, z[..., 0].reshape(shape), DOMAIN_Q), march.finish()[0],
                           march.warnings)

    def residual(self, sol: CGOSolution) -> float:
        """The largest step |A_k z - rhs| of sol's remainder over max(1, max
        |source|): one Propagator.residual over the levels in marching order,
        on the march's fields formed again, every level at once."""
        march = RemainderMarch(self, [sol.params])
        _, src, trace = march.fields(slice(None))
        order = slice(None, None, 1 if march.forward else -1)
        z = sol.z.values.reshape(self.grid.n_levels, -1, 1)[order]
        worst = march.prop.residual(z, None if trace is None else trace[order], src[order])[0]
        return float(worst / max(1.0, np.abs(src).max()))


class RemainderMarch:
    """The remainders z of probes sharing (rho, omega, direction, aperture),
    a column per params, stepped together one time level at a time on the
    factory's stepper: t = 0 first for forward probes, t = T first for
    backward ones (in s = T - t their profile equation is the forward scheme
    with advection +2 rho w).  With every xi and tau zero, exp(-i 0) = 1 and
    the march runs on float blocks, each value bytewise the real part of the
    complex march's (whose imaginary parts are exact zeros).  Per level and
    column it records the peak |z| and the space integral of |z|^2, the same
    whether a level is formed and tallied alone or with others; finish()
    turns them into remainder norms."""

    def __init__(self, factory: CGOFactory, params_list):
        first = params_list[0]
        shared = (first.rho, first.omega, first.direction, first.aperture)
        if any((p.rho, p.omega, p.direction, p.aperture) != shared for p in params_list):
            raise CGOError("a march needs one (rho, omega, direction, aperture) for all probes")
        grid = self.grid = factory.grid
        self.params, self.prop = list(params_list), factory.propagator(first)
        self.forward = first.direction == "forward"
        self.levels = range(grid.n_levels) if self.forward else range(grid.nt, -1, -1)
        layer = first.rho**0.75 * grid.dt
        self.warnings = [
            f"boundary layer under-resolved: rho^(3/4)*dt = {layer:.3g} > {RESOLUTION_LIMIT}"
        ] if layer > RESOLUTION_LIMIT else []
        self.t, self.space_weights = grid.times(), grid.space_weights().ravel()
        rho34, t = first.rho**0.75, self.t if self.forward else grid.T - self.t
        self.phi, self.dphi = ramp(first, t), rho34 * np.exp(-rho34 * t)
        self.q_levels = factory.q_levels.reshape(grid.n_levels, -1, 1)
        # per column: space wave exp(-i xi.x), time wave exp(-i tau t) per
        # level, and |xi|^2 - i tau
        xi, x = np.array([p.xi for p in params_list]), [m.reshape(-1, 1) for m in grid.meshes()]
        tau = np.array([p.tau for p in params_list])
        i = 1j if np.any(xi) or np.any(tau) else 0.0  # exp(-i 0) = 1: a real march
        xi_x = xi[:, 0] * x[0] if grid.dim == 1 else xi[:, 0] * x[0] + xi[:, 1] * x[1]
        self.wave_x = np.exp(-i * xi_x)
        self.wave_t = np.exp(-i * (tau * self.t[:, None, None]))
        self.shift = np.array([float(np.dot(p.xi, p.xi)) - i * p.tau for p in params_list])
        # per level and column: peak |z| and space integral of |z|^2
        self.peak, self.sum_sq = (np.zeros((grid.n_levels, len(params_list))) for _ in range(2))
        self.pinned = None
        if factory.partial:
            # z is -theta on the designated aperture portion, zero elsewhere
            portion = resolve_portion(grid, BoundaryPortion.directional(
                first.omega, first.aperture, -1 if self.forward else +1))
            self.pinned = np.isin(self.prop.boundary_idx, portion.flat)

    def steps(self, fields):
        """(level, theta, z) for every level in marching order, with theta,
        the source and lateral data from fields(level).  A caller may take
        its own step k - 1 on the march's stepper at level k, which solves
        with the LU that the stepper holds from the march's step."""
        prop = self.prop
        for k, level in enumerate(self.levels):
            theta, s_next, trace = fields(level)
            if k == 0:
                z = np.zeros_like(theta)
                if trace is not None:
                    z[prop.boundary_idx] = trace
            else:
                z = prop.step(k - 1, z, trace, (s, s_next))
            s = s_next
            yield level, theta, z

    def tally(self, levels, z):
        """Records the peak |z| and space integral of |z|^2 per level of z (a
        level's block, or a slice's) and column; each a contiguous row of |z|,
        which sums the same however many rows are tallied at once."""
        rows = np.abs(np.swapaxes(z, -1, -2), order="C")
        self.peak[levels] = rows.max(axis=-1)
        rows *= rows
        rows *= self.space_weights
        self.sum_sq[levels] = rows.sum(axis=-1)

    def finish(self):
        """Per column, the remainder's L2(Q) norm; SolverError if some |z|
        passed e^50 or is not finite."""
        for params, peak in zip(self.params, self.peak.max(axis=0)):
            if not peak <= OVERFLOW_LIMIT:
                raise SolverError(f"CGO remainder at rho {params.rho} exceeded the overflow "
                                  f"guard (peak {peak:.3g}, limit e^50)")
        sum_sq = (np.ascontiguousarray(self.sum_sq.T) * self.grid.time_weights()).sum(axis=1)
        return np.sqrt(sum_sq).tolist()

    def fields(self, levels):
        """theta, the source and the lateral data of z (None for full data)
        on a time level, (n_space, columns) each, or on a slice of levels,
        with a leading level axis; a forward level forms its plane waves E,
        one product of the march's waves, once for both."""
        phi, dphi = (a[levels, None, None] for a in (self.phi, self.dphi))
        q, m = self.q_levels[levels], len(self.params)
        if self.forward:
            E = self.wave_x * self.wave_t[levels]
            theta = phi * E
            # -(dphi + (|xi|^2 - i tau + q) phi) E, operation by operation in place
            vals = self.shift + q
            vals *= phi
            vals += dphi
            np.negative(vals, out=vals)
            vals *= E
        else:
            theta = np.repeat(phi * np.ones_like(q), m, axis=-1)
            vals = np.repeat(-(dphi + q * phi), m, axis=-1)
        if self.pinned is None:
            return theta, vals, None
        trace = np.zeros((*theta.shape[:-2], len(self.pinned), m), theta.dtype)
        trace[..., self.pinned, :] = -theta[..., self.prop.boundary_idx[self.pinned], :]
        return theta, vals, trace


def phi_rho(rho, t, T):
    """Ramp product phi_rho(t) of a matched pair: the forward ramp at t times
    the backward ramp at T - t."""
    rho34 = rho**0.75
    return 1.0 - np.exp(-rho34 * t) - np.exp(-rho34 * (T - t)) + np.exp(-rho34 * T)
