"""Inverse solvers: potential and Taylor-coefficient recovery through CGO
Fourier probing, initial-data recovery by dense-column Tikhonov with SVD
filter factors, boundary null control, and Runge approximation fitting."""

from .fourier import FourierSample, FourierSampleSet, frequency_lattice
from .initial import InitialDataMap, recover_initial, stability_curve
from .control import control_basis, horizon_level, null_control
from .potential import (
    PotentialProbe,
    ReconstructionResult,
    positive_solution,
    recover_potential,
    recover_taylor,
    synthesize_potential_probes,
    synthesize_taylor_probes,
)
from .runge import RegionMask, check_sizes, runge_family, runge_fit

__all__ = [
    "FourierSample",
    "FourierSampleSet",
    "InitialDataMap",
    "PotentialProbe",
    "ReconstructionResult",
    "RegionMask",
    "check_sizes",
    "control_basis",
    "frequency_lattice",
    "horizon_level",
    "null_control",
    "positive_solution",
    "recover_initial",
    "recover_potential",
    "recover_taylor",
    "runge_family",
    "runge_fit",
    "stability_curve",
    "synthesize_potential_probes",
    "synthesize_taylor_probes",
]
