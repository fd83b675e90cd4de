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
one multi-column sweep (CGOFactory.build_columns).  Each of a batch's
buffers (sources, theta values, remainders) is n_levels x n_space x columns;
batch_width keeps it under BATCH_CAP values.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .forward import Propagator, SolverError, potential_values
from .grid import (
    DOMAIN_Q,
    BoundaryPortion,
    Field,
    GridError,
    SpaceTimeGrid,
    l2q_inner,
    norm,
    resolve_portion,
)

OVERFLOW_LIMIT = np.exp(50.0)
RESOLUTION_LIMIT = 0.5   # warn when rho^(3/4) * dt exceeds this
# Most values one build_columns buffer should hold: its sources, its theta
# values and its remainders are each n_levels x n_space x columns.
BATCH_CAP = 2**19


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


def plane_wave(grid: SpaceTimeGrid, xi, tau) -> np.ndarray:
    """exp(-i (xi.x + tau t)) on every node of Q, shaped (n_levels, *nx), from
    one exp of the summed phase (not a product of space and time factors),
    so each value is the one a per-level evaluation gives."""
    meshes = grid.meshes()
    s = xi[0] * meshes[0]
    if grid.dim == 2:
        s = s + xi[1] * meshes[1]
    phase = -1j * (s + tau * grid.level_times())
    return np.exp(phase, out=phase)


@dataclass
class CGOSolution:
    params: CGOParameters
    grid: SpaceTimeGrid
    theta: np.ndarray                  # oscillatory profile on Q, 0 at t = 0 or T
    z: Field                           # remainder profile on Q
    remainder_norm: float
    warnings: list = dc_field(default_factory=list)
    residual: float = 0.0              # discrete-system residual of the z solve

    def profile(self) -> Field:
        """theta + z on Q."""
        return Field(self.grid, self.theta + self.z.values, DOMAIN_Q)


def batch_width(grid: SpaceTimeGrid) -> int:
    """Most columns one build_columns call should take on this grid, so that
    each of its (n_levels, n_space, columns) buffers stays under BATCH_CAP
    (one column at least)."""
    return max(1, BATCH_CAP // (grid.n_levels * grid.n_space))


class CGOFactory:
    """Builds CGO remainders against a fixed potential, caching the stepper
    per (rho, omega, direction) since the profile operator is independent of
    (xi, tau)."""

    def __init__(self, grid: SpaceTimeGrid, q=None, scheme: str = "be", partial: bool = False):
        self.grid = grid
        self.q = q
        self.q_levels = potential_values(grid, q)
        self.scheme = scheme
        self.partial = partial
        self._props: dict = {}

    def propagator(self, params: CGOParameters) -> Propagator:
        """The profile stepper for (rho, omega, direction), built on first use."""
        key = (params.rho, params.omega, params.direction)
        if key not in self._props:
            sign = -2.0 if params.direction == "forward" else +2.0
            advection = tuple(sign * params.rho * w for w in params.omega)
            if params.direction == "forward":
                qf = self.q
            else:
                qf = Field(self.grid, self.q_levels[::-1].copy(), DOMAIN_Q)
            self._props[key] = Propagator(self.grid, None, qf, self.scheme, advection)
        return self._props[key]

    def _portion_trace(self, params: CGOParameters, theta):
        """Lateral data for z, per column of theta (n_levels, n_space, m):
        zero everywhere (full variant, None) or -theta on the designated
        aperture portion extended by zero (partial variant)."""
        if not self.partial:
            return None
        grid = self.grid
        sign = -1 if params.direction == "forward" else +1
        portion = resolve_portion(
            grid, BoundaryPortion.directional(params.omega, params.aperture, sign)
        )
        bd = grid.boundary_flat_indices()
        pinned = np.isin(bd, portion.flat)
        trace = np.zeros((grid.n_levels, len(bd), theta.shape[-1]), dtype=theta.dtype)
        trace[:, pinned] = -theta[:, bd[pinned]]
        return trace

    def build(self, params: CGOParameters) -> CGOSolution:
        """One probe: the one-column case of build_columns."""
        return self.build_columns([params])[0]

    def build_columns(self, params_list) -> list:
        """One CGOSolution per params, all sharing (rho, omega, direction,
        aperture), from one multi-column sweep of their shared stepper; the
        thetas and remainders of the solutions are columns of one array each.
        Each column's remainder, norm, residual and warnings are those of its
        own one-column build."""
        first = params_list[0]
        shared = (first.rho, first.omega, first.direction, first.aperture)
        if any((p.rho, p.omega, p.direction, p.aperture) != shared for p in params_list):
            raise CGOError("build_columns needs one (rho, omega, direction, aperture) for all")
        grid = self.grid
        warnings = []
        layer = first.rho**0.75 * grid.dt
        if layer > RESOLUTION_LIMIT:
            warnings.append(
                f"boundary layer under-resolved: rho^(3/4)*dt = {layer:.3g} > {RESOLUTION_LIMIT}"
            )
        shape = (grid.n_levels, grid.n_space, len(params_list))
        dtype = complex if first.direction == "forward" else float
        theta, src = np.empty(shape, dtype), np.empty(shape, dtype)
        for j, params in enumerate(params_list):
            theta[..., j], src[..., j] = self._fields(params)
        trace = self._portion_trace(first, theta)
        prop = self.propagator(first)
        if first.direction == "backward":
            # time-reversed solve: s = T - t turns the backward profile
            # equation into the forward scheme with advection +2 rho w
            src = src[::-1]
            trace = None if trace is None else trace[::-1]
        # the stepped systems' residual, per column, over its source scale
        residuals = np.zeros(len(params_list))
        z = prop.run(f=trace, source=src, residual=residuals)
        scale = np.ones(len(params_list))
        for level in src:
            scale = np.maximum(scale, np.max(np.abs(level), axis=0))
        residuals /= scale
        if first.direction == "backward":
            z = z[::-1]
        out = []
        for j, params in enumerate(params_list):
            zf = Field(grid, z[..., j].reshape(grid.n_levels, *grid.nx), DOMAIN_Q)
            peak = float(np.max(np.abs(zf.values)))
            if peak > OVERFLOW_LIMIT:
                raise SolverError(
                    f"CGO remainder at rho {params.rho} exceeded the overflow guard "
                    f"(peak {peak:.3g} > e^50)"
                )
            out.append(CGOSolution(params, grid, theta[..., j].reshape(zf.values.shape), zf,
                                   norm(zf, "L2Q"), list(warnings), float(residuals[j])))
        return out

    def _fields(self, params: CGOParameters):
        """theta and the source of the profile equation for one probe, each
        shaped (n_levels, n_space); a forward probe forms its plane wave
        E once for both."""
        grid = self.grid
        rho34 = params.rho**0.75
        t = grid.level_times()
        if params.direction == "forward":
            phi = ramp(params, t)
            dphi = rho34 * np.exp(-rho34 * t)
            xi2 = float(np.dot(params.xi, params.xi))
            E = plane_wave(grid, params.xi, params.tau)
            theta = phi * E
            # -(dphi + (xi2 - i tau + q) phi) E, operation by operation in place
            vals = xi2 - 1j * params.tau + self.q_levels
            vals *= phi
            vals += dphi
            np.negative(vals, out=vals)
            vals *= E
        else:
            phi = ramp(params, grid.T - t)
            dphi = rho34 * np.exp(-rho34 * (grid.T - t))
            theta = phi * np.ones(grid.nx)
            vals = -(dphi + self.q_levels * phi)
        return theta.reshape(grid.n_levels, -1), vals.reshape(grid.n_levels, -1)


def phi_rho(rho, t, T):
    """Ramp product phi_rho(t) of a matched pair: the forward ramp at t times
    the backward ramp at T - t."""
    rho34 = rho**0.75
    return 1.0 - np.exp(-rho34 * t) - np.exp(-rho34 * (T - t)) + np.exp(-rho34 * T)


def product_symbol(fwd: CGOParameters, bwd: CGOParameters, grid: SpaceTimeGrid) -> Field:
    """Leading profile product phi_rho(t) exp(-i(x,t).(xi,tau)) of a matched
    pair; the carrier product is identically one."""
    if fwd.direction != "forward" or bwd.direction != "backward":
        raise CGOError("need a (forward, backward) pair")
    if fwd.rho != bwd.rho or fwd.omega != bwd.omega:
        raise CGOError("pair must share rho and omega")
    t = grid.level_times()
    vals = phi_rho(fwd.rho, t, grid.T) * plane_wave(grid, fwd.xi, fwd.tau)
    return Field(grid, vals, DOMAIN_Q)


def pairing(f: Field, sol_fwd: CGOSolution, sol_bwd: CGOSolution):
    """Integral of f times the carrier-cancelled product of a matched pair.

    Returns (value, leading) where value uses the full profiles
    (theta+z)_+ (theta+z)_- and leading is the phi_rho E term alone.
    """
    if f.domain != DOMAIN_Q:
        raise GridError("pairing expects f on Q")
    if sol_fwd.params.direction != "forward" or sol_bwd.params.direction != "backward":
        raise CGOError("need a (forward, backward) pair")
    if sol_fwd.params.rho != sol_bwd.params.rho or sol_fwd.params.omega != sol_bwd.params.omega:
        raise CGOError("pair must share rho and omega")
    prod = Field(f.grid, sol_fwd.profile().values * sol_bwd.profile().values, DOMAIN_Q)
    value = l2q_inner(f, prod)
    leading = l2q_inner(f, product_symbol(sol_fwd.params, sol_bwd.params, f.grid))
    return complex(value), complex(leading)


def fourier_integral(f: Field, xi, tau) -> complex:
    """Direct trapezoidal quadrature of integral f exp(-i(x,t).(xi,tau)),
    the oracle the pairing converges to as rho grows."""
    return complex(l2q_inner(f, Field(f.grid, plane_wave(f.grid, xi, tau), DOMAIN_Q)))
