"""Potential and Taylor-coefficient recovery from boundary functionals.

Twin experiments: a truth model generates boundary data, a reference model
is available to the reconstructor.  All probe algebra is done on CGO
profiles (carriers cancelled).  A probe is one zero-data sweep of the
forward CGO profile W_ref times a coefficient field c: the difference
profile d solves the truth-side equation with source c W_ref, and the probe
records d_nu d on the observation portion.  For potential recovery
c = q_ref - q_truth; a Taylor probe of order k takes
c = -(delta_truth - delta_ref) P with P the positive-solution product, one
sweep by linearity.  Pairing with the matched backward CGO w_bwd, built
once per (rho, omega, aperture), gives the boundary functional

    - integral_Sigma  w_bwd  d_nu d  dS dt  =  integral_Q c W_truth w_bwd dx dt

without ever materializing an exponential carrier.  The functional
approximates a phi_rho-weighted Fourier sample of c, which the
FourierSampleSet synthesis inverts.  Taylor recovery is potential recovery
followed by a division: its samples, paired against the shared base
potential qbar = d_u b(., 0), flip sign, pass through the same synthesis
and notes, and the synthesized delta P is divided by P.

With a real operator, potential and sweep coefficient (checked), the probe
at (-xi, -tau) is the complex conjugate of the probe at (xi, tau): per omega
only one probe of each conjugate pair (and the self-conjugate xi = 0,
tau = 0 point) is marched, and its partner is copied as its conjugate.  The
marched probes of one omega are stepped together, level by level: at each
time level the forward CGO remainders take their step (cgo.RemainderMarch)
and then the difference profiles take theirs, with the source coefficient
* W_ref at that level; no step residual is formed.  A stepper holds the LU
of its last step, so a Taylor sweep's difference step, on the factory's
stepper, solves with the remainder step's LU of its level.  Only per-level
(n_space, probes) blocks are held, with DN traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from ..analysis import max_principle_check
from ..cgo import CGOFactory, CGOParameters, RemainderMarch
from ..dnmap import normal_derivative_matrix
from ..forward import Propagator, potential_values
from ..grid import (
    DOMAIN_Q,
    DOMAIN_SIGMA,
    BoundaryPortion,
    Field,
    GridError,
    ResolvedPortion,
    SpaceTimeGrid,
    complement_portion,
    integral,
    l2q_inner,
    norm,
    resolve_portion,
    zero_field,
)
from ..model import Nonlinearity
from .fourier import FourierSample, FourierSampleSet, frequency_lattice

# Tikhonov weight of the Fourier synthesis in potential and Taylor recovery.
SYNTHESIS_ALPHA = 1e-6


@dataclass
class ReconstructionResult:
    recovered: Field
    residuals: dict = dc_field(default_factory=dict)
    regularization: dict = dc_field(default_factory=dict)
    truth_error: float | None = None
    notes: list = dc_field(default_factory=list)
    samples: FourierSampleSet | None = None

    def compare_truth(self, truth: Field) -> float:
        space = "L2Q" if truth.domain == DOMAIN_Q else "L2Omega"
        denom = norm(truth, space)
        err = norm(self.recovered - truth, space) / (denom if denom > 0 else 1.0)
        self.truth_error = err
        return err


@dataclass
class PotentialProbe:
    """One synthesized measurement: the profile-form DN difference for a
    forward CGO probe against the reference model."""

    params: CGOParameters
    dn_difference: np.ndarray          # (n_levels, n_portion_nodes), complex
    portion: ResolvedPortion
    remainder_fwd: float
    warnings: tuple = ()
    volume_functional: complex | None = None   # truth-side diagnostic


def _sweep_probes(grid, factory, q_sweep, coefficient, rho, n_xi, n_tau, partial=False,
                  aperture=0.0, volume=None):
    """Probe sweep shared by potential and Taylor synthesis: a list of
    PotentialProbe, omega by omega (e_1 in 1D, e_1 and e_2 in 2D).

    Per omega: one Propagator for q_sweep with the profile advection (the
    factory's own when q_sweep is the factory's potential) and one
    normal-derivative matrix on the observation portion (the faces outside
    the omega aperture for partial data).  Only the first half of the
    lattice and its middle point are marched: the lattice reversed is its
    negation, and with a real potential and coefficient the probe of point
    n - 1 - i is the conjugate of the probe of point i.  The marched points
    step together level by level: the forward CGO remainders, then the
    zero-data difference profiles with source coefficient * profile.
    volume, if given, maps (CGOParameters, truth-side profile W_ref + d
    (n_levels, n_space)), which is then kept, to the volume functional.
    """
    if any(np.iscomplexobj(v) for v in (coefficient, factory.q_levels,
                                        potential_values(grid, q_sweep))):
        raise GridError("probe sweeps copy each conjugate (xi, tau) pair's second probe "
                        "from its first, which needs a real coefficient and potential")
    probes = []
    for omega in [(1.0,)] if grid.dim == 1 else [(1.0, 0.0), (0.0, 1.0)]:
        params = [CGOParameters.make(rho, omega, xi=xi, tau=tau, aperture=aperture)
                  for xi, tau in frequency_lattice(grid, omega, n_xi, n_tau)]
        probes += _sweep_omega(grid, factory, q_sweep, coefficient, params, partial, volume)
    return probes


def _sweep_omega(grid, factory, q_sweep, coefficient, params, partial, volume):
    if not params:
        return []
    first = params[0]
    portion = (
        complement_portion(grid, BoundaryPortion.directional(first.omega, first.aperture, +1))
        if partial
        else resolve_portion(grid, BoundaryPortion.full())
    )
    B = normal_derivative_matrix(grid, portion)
    n = len(params)
    marched = n // 2 + 1
    march = RemainderMarch(factory, params[:marched])
    if q_sweep is factory.q:
        # the factory's forward-profile stepper has this q and advection:
        # both steps of a level share its system
        prop = march.prop
    else:
        prop = Propagator(grid, None, q_sweep, factory.scheme,
                          tuple(-2.0 * first.rho * w for w in first.omega))
    c = coefficient.reshape(grid.n_levels, -1, 1)
    dn = np.empty((grid.n_levels, portion.n_nodes, marched), dtype=complex)
    w_truth = None if volume is None else np.empty((grid.n_levels, grid.n_space, marched),
                                                   dtype=complex)
    for k, (level, theta, z) in enumerate(march.steps(march.fields)):
        march.tally(level, z)
        w_ref = theta + z
        s_next = w_ref * c[level]
        if k == 0:
            d = np.zeros_like(s_next)
        else:
            d = prop.step(k - 1, d, None, (s, s_next))
        s = s_next
        dn[level] = B @ d
        if w_truth is not None:
            np.add(w_ref, d, out=w_truth[level])
    remainders = march.finish()
    probes = [
        PotentialProbe(p, dn[..., j], portion, remainders[j], tuple(march.warnings),
                       None if volume is None else volume(p, w_truth[..., j]))
        for j, p in enumerate(params[:marched])
    ]
    for i in range(marched, n):
        # the conjugate partner n - 1 - i was marched above; conj turns the
        # exact zeros (level 0, corner nodes) into -0j, and + 0.0 makes them
        # +0j again, as a marched probe has them
        p = probes[n - 1 - i]
        probes.append(replace(p, params=params[i], dn_difference=p.dn_difference.conj() + 0.0,
                              volume_functional=None if p.volume_functional is None
                              else p.volume_functional.conjugate()))
    return probes


def _pairings(grid, probes, q, scheme="be", partial=False):
    """One Fourier sample per probe: minus the Sigma integral of the matched
    backward profile against the probe's DN difference, which equals the
    volume functional integral_Q c W_truth w_bwd of the sweep coefficient c.
    The backward CGO depends only on (rho, omega, aperture) and is built
    once per distinct triple."""
    factory = CGOFactory(grid, q, scheme, partial=partial)
    backward = {}
    for p in probes:
        key = p.params.matched_backward()
        if key not in backward:
            bwd = factory.build(key)
            backward[key] = (bwd.profile().values.reshape(grid.n_levels, -1), bwd.remainder_norm)
        w_bwd, remainder_bwd = backward[key]
        boundary = Field(grid, w_bwd[:, p.portion.flat] * p.dn_difference, DOMAIN_SIGMA,
                         p.portion)
        yield FourierSample(
            p.params.omega, p.params.xi, p.params.tau, -integral(boundary), p.params.rho,
            p.remainder_fwd, remainder_bwd, p.warnings,
        )


def synthesize_potential_probes(
    grid: SpaceTimeGrid,
    q_truth,
    q_ref,
    rho: float = 32.0,
    scheme: str = "be",
    mode: str = "full",
    aperture: float = 0.0,
    n_xi: int = 4,
    n_tau: int = 4,
    keep_diagnostics: bool = False,
):
    """Twin-experiment data generation for potential recovery.

    For each lattice point, builds the reference forward CGO profile W_ref,
    solves the truth-model difference profile d (zero data, source
    (q_ref - q_truth) W_ref), and records the profile DN trace of d on the
    observation portion.
    """
    partial = mode == "partial"
    factory = CGOFactory(grid, q_ref, scheme, partial=partial)
    dq_vals = potential_values(grid, q_ref) - potential_values(grid, q_truth)
    backward = {}

    def volume(params, w_truth):
        # volume side of the identity: integral (q_ref - q_truth) W_truth
        # w_bwd over Q, which must equal -boundary functional
        key = params.matched_backward()
        if key not in backward:
            backward[key] = factory.build(key).profile().values
        return l2q_inner(Field(grid, dq_vals * backward[key], DOMAIN_Q),
                         Field(grid, w_truth.reshape(dq_vals.shape), DOMAIN_Q))

    return _sweep_probes(grid, factory, q_truth, dq_vals, rho, n_xi, n_tau, partial, aperture,
                         volume=volume if keep_diagnostics else None)


def assemble_samples(
    grid: SpaceTimeGrid, probes, q_ref, scheme="be", mode="full"
) -> FourierSampleSet:
    """Boundary functionals -> Fourier samples of (q_ref - q_truth)."""
    return FourierSampleSet(grid, list(_pairings(grid, probes, q_ref, scheme, mode == "partial")))


def _synthesis(sset: FourierSampleSet) -> ReconstructionResult:
    """The tail of potential and Taylor recovery: the Fourier synthesis of
    the samples, with the samples' distinct CGO warnings (in their first
    order) and a note of a large remainder."""
    notes = list(dict.fromkeys(w for s in sset.samples for w in s.warnings))
    big_remainder = max((max(s.remainder_fwd, s.remainder_bwd) for s in sset.samples), default=0.0)
    if big_remainder > 0.5:
        notes.append(f"large CGO remainder diagnostics (max {big_remainder:.3g})")
    defect = sset.conjugate_symmetry_defect()
    return ReconstructionResult(
        sset.synthesize(alpha=SYNTHESIS_ALPHA),
        residuals={"conjugate_symmetry_defect": defect},
        regularization={"method": "tikhonov-fourier-synthesis", "alpha": SYNTHESIS_ALPHA,
                        "modes": len(sset.modes())},
        notes=notes,
        samples=sset,
    )


def recover_potential(
    grid: SpaceTimeGrid,
    probes,
    q_ref,
    scheme: str = "be",
    mode: str = "full",
    truth_difference: Field | None = None,
) -> ReconstructionResult:
    """Recover q_ref - q_truth from profile DN differences by CGO pairing and
    regularized Fourier synthesis.  The notes carry the samples' distinct
    CGO warnings and a note of a large remainder."""
    result = _synthesis(assemble_samples(grid, probes, q_ref, scheme, mode))
    if truth_difference is not None:
        result.compare_truth(truth_difference)
    return result


# ---------------------------------------------------------------------------
# Positive auxiliary solutions


def _smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def positive_solution(
    grid: SpaceTimeGrid,
    gamma,
    q,
    shape_fn=None,
    scheme: str = "be",
    ramp_time: float | None = None,
):
    """Bounded positive solution of the linearized equation driven by
    nonnegative ramped boundary data on the full boundary (zero initial
    data): probe_trace's trace of shape_fn, under its (t/T)^2 ramp, or
    under a smoothstep that saturates at 1 for t >= ramp_time when
    ramp_time is given, keeping the solution bounded away from zero on most
    of the cylinder (useful as a division weight).  Returns (field,
    certificate); raises if the discrete maximum principle fails.
    """
    from ..linearize import probe_trace

    if shape_fn is None:
        shape_fn = lambda *args: np.ones_like(np.asarray(args[0], dtype=float))
    ramp = None if ramp_time is None else lambda t: _smoothstep(t / ramp_time)
    trace = probe_trace(grid, shape_fn, ramp)
    if np.min(trace.values) < 0:
        raise GridError("boundary shape must be nonnegative")
    if np.max(trace.values) <= 0:
        raise GridError("boundary shape must be positive somewhere (f > 0 on a sub-portion)")
    cert = max_principle_check(grid, gamma, q, trace, scheme)
    if not (cert.nonnegative and cert.strictly_positive_later):
        raise RuntimeError(
            f"maximum-principle violation: interior min {cert.min_after_first_level:.3g} "
            "(discretization or data bug)"
        )
    return cert.solution, cert


# ---------------------------------------------------------------------------
# Taylor-coefficient recovery (orders k >= 2; k = 1 is potential recovery)


def _positive_product(order, positive_fields) -> np.ndarray:
    """P, the product of the order - 1 positive auxiliary solutions of a
    Taylor probe of order at least 2."""
    if order < 2:
        raise GridError("orders below 2 reduce to potential recovery")
    if len(positive_fields) != order - 1:
        raise GridError("need order-1 positive auxiliary solutions")
    return math.prod(v.values for v in positive_fields)


def synthesize_taylor_probes(
    grid: SpaceTimeGrid,
    nl_truth: Nonlinearity,
    nl_ref: Nonlinearity,
    order: int,
    positive_fields,
    rho: float = 32.0,
    scheme: str = "be",
    n_tau: int = 4,
    n_xi: int = 4,
):
    """Order-M linearized DN differences for the twin at base solution 0.

    The M-th linearized field for model j (distinct single-probe structure,
    first probe a CGO trace) factors through the carrier; its profile solves

        P_qbar W_j = -d_u^M b_j(.,0) * (theta + z) * prod positive_fields,

    with zero data.  The measured object is d_nu(W_truth - W_ref); by
    linearity it is one sweep with coefficient -(delta_truth - delta_ref) P.
    Both models must share qbar = d_u b(., 0), which is checked.
    """
    pos_prod = _positive_product(order, positive_fields)
    base = zero_field(grid)
    qbar = nl_truth.along(base, 1)
    if np.max(np.abs(qbar.values - nl_ref.along(base, 1).values)) > 1e-10:
        raise GridError("first-order coefficients differ at the base; recover order 1 first")
    delta = nl_truth.along(base, order).values - nl_ref.along(base, order).values
    factory = CGOFactory(grid, qbar, scheme)
    return _sweep_probes(grid, factory, qbar, -delta * pos_prod, rho, n_xi, n_tau)


def recover_taylor(
    grid: SpaceTimeGrid,
    probes,
    nl_ref: Nonlinearity,
    order: int,
    positive_fields,
    scheme: str = "be",
    truth_difference: Field | None = None,
) -> ReconstructionResult:
    """Recover delta_k = d_u^k b_truth(.,0) - d_u^k b_ref(.,0) for k >= 2:
    potential recovery of the probes against qbar = d_u b_ref(., 0), whose
    samples flip sign, followed by a division.

    The boundary functional equals integral delta_k * P over Q against the
    CGO pair kernel, with P the positive-solution product; synthesis returns
    delta_k * P, and pointwise division by P yields delta_k.  Nodes with P
    at most 1e-6 max(P) are skipped outright (degenerate corner); the
    recovered field is additionally zeroed where P is at most 0.05 max(P):
    there the measurements carry no usable information and dividing only
    amplifies synthesis error.  The notes carry the samples' distinct CGO
    warnings, a note of a large remainder and the count of masked nodes.
    """
    pos_prod = _positive_product(order, positive_fields)
    sset = assemble_samples(grid, probes, nl_ref.along(zero_field(grid), 1), scheme)
    for sample in sset.samples:
        # the sweep coefficient is -delta * P, so the sample flips once more
        sample.value = -sample.value
    result = _synthesis(sset)
    product = result.recovered.values
    peak = float(np.max(pos_prod))
    threshold = 1e-6 * peak
    mask = pos_prod > threshold
    recovered_vals = np.zeros_like(product)
    recovered_vals[mask] = product[mask] / pos_prod[mask]
    floor = 0.05 * peak
    recovered_vals[pos_prod <= floor] = 0.0
    masked = int(np.sum(~mask))
    result.recovered = Field(grid, recovered_vals, DOMAIN_Q)
    result.regularization = {
        "method": "tikhonov-fourier-synthesis + positive-product division",
        "alpha": SYNTHESIS_ALPHA,
        "masked_nodes": masked,
        "mask_threshold": threshold,
        "division_floor": floor,
    }
    if masked:
        result.notes.append(f"{masked} nodes masked below the positive-product threshold")
    if truth_difference is not None:
        result.compare_truth(truth_difference)
    return result
