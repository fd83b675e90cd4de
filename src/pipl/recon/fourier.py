"""Fourier sample bookkeeping and regularized synthesis.

CGO pairings deliver approximate samples of integral f(x,t) w(t) E(xi,tau)
over Q, where E = exp(-i(x,t).(xi,tau)) and w is the known ramp product
phi_rho(t).  Synthesis fits a truncated exponential basis to those samples
by Tikhonov-regularized least squares; the ramp weight is kept inside the
design matrix so the ramp-in/ramp-out bias does not pollute the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..cgo import phi_rho
from ..grid import DOMAIN_Q, Field, SpaceTimeGrid


@dataclass
class FourierSample:
    omega: tuple
    xi: tuple
    tau: float
    value: complex
    rho: float
    remainder_fwd: float = 0.0
    remainder_bwd: float = 0.0
    warnings: tuple = ()


def frequency_lattice(grid: SpaceTimeGrid, omega, n_xi: int, n_tau: int):
    """(xi, tau) pairs with xi a multiple of the unit vector orthogonal to
    omega (empty direction in 1D, where only tau varies) and tau a DFT
    frequency of (0, T)."""
    omega = np.asarray(omega, dtype=float)
    taus = [2 * np.pi * l / grid.T for l in range(-n_tau, n_tau + 1)]
    pairs = []
    if grid.dim == 1:
        xis = [(0.0,)]
    else:
        perp = np.array([-omega[1], omega[0]])
        # spatial extent along the perpendicular direction sets the base frequency
        ext = abs(perp[0]) * (grid.upper[0] - grid.lower[0]) + abs(perp[1]) * (
            grid.upper[1] - grid.lower[1]
        )
        base = 2 * np.pi / ext
        xis = [tuple(j * base * perp) for j in range(-n_xi, n_xi + 1)]
    for xi in xis:
        for tau in taus:
            pairs.append((xi, float(tau)))
    return pairs


@dataclass
class FourierSampleSet:
    grid: SpaceTimeGrid
    samples: list = dc_field(default_factory=list)

    def __len__(self):
        return len(self.samples)

    def conjugate_symmetry_defect(self) -> float:
        """Relative defect between samples at (xi, tau) and conj at
        (-xi, -tau); small for real integrands.  It is 0 by construction
        for samples paired from the probe sweep's probes, which copies the
        probe at (-xi, -tau) as the conjugate of the one at (xi, tau)."""
        index = {}
        for s in self.samples:
            key = (tuple(np.round(s.xi, 12)), round(s.tau, 12), s.rho, s.omega)
            index[key] = s.value
        worst = 0.0
        scale = max((abs(s.value) for s in self.samples), default=0.0)
        if scale == 0.0:
            return 0.0
        for s in self.samples:
            nkey = (
                tuple(np.round(tuple(-v for v in s.xi), 12)),
                round(-s.tau, 12),
                s.rho,
                s.omega,
            )
            if nkey in index:
                worst = max(worst, abs(np.conj(index[nkey]) - s.value))
        return worst / scale

    # -- synthesis ----------------------------------------------------------

    def modes(self):
        """Distinct (xi, tau) frequencies across all samples: the synthesis basis."""
        seen = {}
        for s in self.samples:
            key = (tuple(np.round(s.xi, 12)), round(s.tau, 12))
            seen.setdefault(key, (s.xi, s.tau))
        return list(seen.values())

    def synthesize(self, alpha: float = 1e-6) -> Field:
        """Least-squares fit of sum_j c_j exp(+i(xi_j.x + tau_j t)), one term
        per distinct sample frequency, to the samples; returns the real part
        as a Q field.

        Sample m integrates against phi_rho(t) exp(-i(xi_m.x + tau_m t)) at its
        own carrier strength rho.  Kernels and modes factor into space and
        time, so the design matrix is the entrywise product of a space Gram
        and a ramp-weighted time Gram, and the output is one matmul.
        """
        grid = self.grid
        x = np.stack([m.reshape(-1) for m in grid.meshes()])      # (dim, n_space)
        t = grid.times()
        xi = np.array([s.xi for s in self.samples])
        tau = np.array([s.tau for s in self.samples])
        rho = np.array([s.rho for s in self.samples])
        modes = self.modes()
        space_modes = np.exp(1j * (np.array([m[0] for m in modes]) @ x))
        time_modes = np.exp(1j * np.outer([m[1] for m in modes], t))
        space_gram = (np.exp(-1j * (xi @ x)) * grid.space_weights().reshape(-1)) @ space_modes.T
        time_weights = grid.time_weights() * phi_rho(rho[:, None], t, grid.T)
        time_gram = (np.exp(-1j * np.outer(tau, t)) * time_weights) @ time_modes.T
        G = space_gram * time_gram
        rhs = np.array([s.value for s in self.samples])
        scale = float(np.max(np.abs(G))) or 1.0
        lhs = G.conj().T @ G + alpha * scale**2 * np.eye(len(modes))
        coeff = np.linalg.solve(lhs, G.conj().T @ rhs)
        out = ((time_modes.T * coeff) @ space_modes).real
        return Field(grid, out.reshape(grid.n_levels, *grid.nx), DOMAIN_Q)
