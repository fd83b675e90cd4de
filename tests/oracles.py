"""Test oracles and readers that the library itself never calls: the plane
wave and the direct CGO pairing with its Fourier-integral limit, the
volume/boundary reciprocity of potential probes, the readers of the field
and DN-measurement CSV files that the library writes, the Carleman
checks written level by level and node by node, the Runge fit of one
basis from its own march with its Gram matrix filled entry by entry, and
the step system of a Propagator."""

import math

import numpy as np

from pipl.analysis import (
    ENDPOINT_CLIP,
    LAMBDAS,
    LAMBDAS2,
    LOG_RANGE_FLAG,
    MUS,
    AnalysisError,
    InequalityReport,
    _gradient_fields,
)
from pipl.cgo import CGOError, CGOParameters, CGOSolution, phi_rho
from pipl.dnmap import measure
from pipl.grid import (
    DOMAIN_OMEGA,
    DOMAIN_Q,
    DOMAIN_SIGMA,
    BoundaryPortion,
    Field,
    GridError,
    ResolvedPortion,
    SpaceTimeGrid,
    l2q_inner,
    norm,
    resolve_portion,
)
from pipl.model import DiffusionTensor
from pipl.recon.potential import assemble_samples


def plane_wave(grid: SpaceTimeGrid, xi, tau) -> np.ndarray:
    """exp(-i (xi.x + tau t)) on every node of Q, shaped (n_levels, *nx), as
    the space wave exp(-i xi.x) times the time wave exp(-i tau t), the
    product RemainderMarch forms, so each value is the one a march gives."""
    meshes = grid.meshes()
    s = xi[0] * meshes[0]
    if grid.dim == 2:
        s = s + xi[1] * meshes[1]
    return np.exp(-1j * s) * np.exp(-1j * (tau * grid.level_times()))


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


def reciprocity_report(grid: SpaceTimeGrid, probes, q_ref) -> dict:
    """Relative gap between the volume functional (truth-side diagnostic) and
    the boundary functional, per probe, for full-data probes of the "be"
    scheme.  Needs probes synthesized with keep_diagnostics=True."""
    if any(p.volume_functional is None for p in probes):
        raise GridError("probe lacks the volume diagnostic")
    gaps = []
    for p, s in zip(probes, assemble_samples(grid, probes, q_ref).samples):
        vol = p.volume_functional
        scale = max(abs(vol), abs(s.value))
        gaps.append(abs(vol - s.value) / scale if scale > 0 else 0.0)
    return {"per_probe": gaps, "max": max(gaps) if gaps else 0.0}


def load_field_csv(grid: SpaceTimeGrid, path, domain=DOMAIN_Q) -> Field:
    """The field that grid.save_field_csv wrote to path."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# shape:"):
        raise GridError("missing '# shape:' header")
    blocks, current = [], []
    for line in lines[1:]:
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        current.append([float(v) for v in line.split(",")])
    if current:
        blocks.append(current)
    arrays = [np.array(b).reshape(grid.nx) for b in blocks]
    if domain == DOMAIN_OMEGA:
        return Field(grid, arrays[0], DOMAIN_OMEGA)
    return Field(grid, np.array(arrays), DOMAIN_Q)


def load_measurement(grid: SpaceTimeGrid, portion, csv_path) -> Field:
    """The rows in save_measurement's order: level by level, the portion's
    nodes in order within a level.  A corner on two faces has two rows that
    its node id alone does not tell apart."""
    resolved = portion if isinstance(portion, ResolvedPortion) else resolve_portion(grid, portion)
    shape = (grid.n_levels, resolved.n_nodes)
    with open(csv_path) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    if len(rows) != shape[0] * shape[1]:
        raise GridError(f"{len(rows)} rows for {shape[0]} levels x {shape[1]} portion nodes")
    t = np.array([float(r[0]) for r in rows]).reshape(shape)
    node = np.array([int(r[1]) for r in rows]).reshape(shape)
    if np.any(node != resolved.flat) or np.any(
            np.abs(t - grid.times()[:, None]) > 1e-12 * max(1.0, grid.T)):
        raise GridError("rows are not the portion's nodes at each grid level in turn")
    return Field(grid, np.array([float(r[-1]) for r in rows]).reshape(shape), DOMAIN_SIGMA,
                 resolved)


def carleman_check_1_levels(u: Field, F: Field, cfg, gamma0) -> InequalityReport:
    """analysis.carleman_check_1 as one sum per clipped level, its weight
    written out per level and its scale M in closed form."""
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
    for lam in LAMBDAS:
        for mu in MUS:
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


def carleman_check_2_levels(u: Field, F: Field, cfg, gamma=None) -> InequalityReport:
    """analysis.carleman_check_2 as one sum per level of [0, t0], gamma
    evaluated level by level."""
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
    theta_log_max = -2.0 * math.log(cfg.K)
    for lam in LAMBDAS2:
        log_peak = lam * theta_log_max
        log_floor = -2.0 * lam * math.log(cfg.K + cfg.t0)
        if log_peak - log_floor > LOG_RANGE_FLAG:
            notes.append(f"lambda {lam}: dynamic range beyond 1e300-equivalent; scaled arithmetic")
        M = log_peak
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
        s0 = math.exp(-(2 * lam + 1) * math.log(cfg.K + cfg.t0) - M)
        lhs += lam * s0 * float(np.dot((u.values[0] ** 2).reshape(-1), w_space))
        st0 = math.exp(-(2 * lam + 1) * math.log(cfg.K) - M)
        rhs += lam * st0 * float(np.dot((u.values[k_t0] ** 2).reshape(-1), w_space))
        sg = math.exp(-2 * lam * math.log(cfg.K + cfg.t0) - M)
        rhs += sg * float(np.dot(gamma_quad(0, 0.0).reshape(-1), w_space))
        ratio = 0.0 if (lhs == 0.0 and rhs == 0.0) else (lhs / rhs if rhs > 0 else np.inf)
        entries.append({"lambda": lam, "L": cfg.L, "lhs": lhs, "rhs": rhs, "ratio": ratio})
    return InequalityReport(entries, False, notes)


def weight_conditions_nodes(cfg, grid: SpaceTimeGrid, gamma, gamma0: ResolvedPortion) -> dict:
    """CarlemanConfig.check_weight_conditions with the flux summed node by
    node from scalar calls, over the (face, node) pairs that gamma0 lacks
    (-inf when it has them all)."""
    meshes, names = grid.meshes(), "xy"[:grid.dim]
    grads = (np.asarray(cfg.psi(*meshes, var=v, order=1), dtype=float) for v in names)
    grad2 = sum(np.broadcast_to(g, grid.nx) ** 2 for g in grads)
    gamma = gamma if gamma is not None else DiffusionTensor.identity()
    full = resolve_portion(grid, BoundaryPortion.full())
    observed = set(zip((tuple(f) for f in gamma0.face_of_node), gamma0.multi_indices))
    worst_flux = -np.inf
    for face, mi in zip(full.face_of_node, full.multi_indices):
        if (tuple(face), mi) in observed:
            continue
        xy = grid.node_coords(mi)
        grad = [float(cfg.psi(*xy, var=v, order=1)) for v in names]
        nu = grid.face_normal(face)
        flux = 0.0
        for i in range(grid.dim):
            for j in range(grid.dim):
                flux += float(gamma.component(i, j, *xy, t=0.0)) * grad[i] * nu[j]
        worst_flux = max(worst_flux, flux)
    return {
        "grad_nonvanishing": bool(np.min(grad2) > 0),
        "max_flux_on_unobserved": worst_flux,
        "flux_condition_holds": bool(worst_flux <= 1e-12),
    }


def runge_fit_columns(grid: SpaceTimeGrid, target: Field, prop, family, w_space) -> float:
    """The L2 gap of the least-squares fit of the target by the fields that
    prop marches from the stacked boundary data family (n_levels,
    n_boundary, n), in the space weights w_space: the Gram matrix filled
    entry by entry and shifted by RCOND times its mean diagonal."""
    from pipl.recon.runge import RCOND

    fields = np.moveaxis(prop.run(f=family), -1, 0)
    tgt = target.values.real.reshape(grid.n_levels, -1)
    w_time = grid.time_weights()
    n = len(fields)
    A, b = np.zeros((n, n)), np.zeros(n)
    for i in range(n):
        wi = fields[i] * w_space[None, :]
        for j in range(i, n):
            A[i, j] = A[j, i] = float(np.dot(w_time, np.sum(wi * fields[j], axis=1)))
        b[i] = float(np.dot(w_time, np.sum(wi * tgt, axis=1)))
    coeff, *_ = np.linalg.lstsq(A + RCOND * np.trace(A) / n * np.eye(n), b, rcond=None)
    resid = np.tensordot(coeff, fields, axes=(0, 0)) - tgt
    return float(np.sqrt(np.dot(w_time, resid**2 @ w_space)))


def system(prop, k):
    """(A_k, M_k, LU of A_k) of the Propagator prop's step k: level k of its
    stacked bands (its one system if it does not depend on time), and the
    LU that its step k solves with."""
    level = k if prop.time_dependent else None
    return prop._A.at(level), prop._M.at(level), prop._lu(k)
