"""Test oracles and readers that the library itself never calls: the plane
wave and the direct CGO pairing with its Fourier-integral limit, the
volume/boundary reciprocity of potential probes, and the readers of the
field and DN-measurement CSV files that the library writes."""

import numpy as np

from pipl.cgo import CGOError, CGOParameters, CGOSolution, phi_rho
from pipl.dnmap import DNMeasurement
from pipl.grid import (
    DOMAIN_OMEGA,
    DOMAIN_Q,
    Field,
    GridError,
    ResolvedPortion,
    SpaceTimeGrid,
    l2q_inner,
    resolve_portion,
)
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


def load_measurement(grid: SpaceTimeGrid, portion, csv_path) -> DNMeasurement:
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
    return DNMeasurement(grid, resolved, np.array([float(r[-1]) for r in rows]).reshape(shape))
