"""Experiment orchestration.

Config files are INI-style sections of ``key = value`` lines with quoted
expression strings.  Every run writes a manifest (resolved config, tool
version, seed, wall time) plus reports and tidy CSVs into the output
directory.  ``--check`` binds the acceptance thresholds to the run and exits
nonzero when a gate fails.

Exit codes: 0 success, 2 config/expression parse error, 3 solver failure,
4 check-mode threshold failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CarlemanConfig,
    carleman_check_1,
    carleman_check_2,
    default_weight_base,
    max_principle_check,
    nonuniqueness_demo,
)
from .cgo import CGOFactory, CGOParameters
from .dnmap import DNMeasurement, add_noise, passive_map, save_measurement
from .expr import Expression, ExprError, ParseError
from .forward import SolverError, solve_linear, solve_semilinear
from .grid import (
    BoundaryPortion,
    Field,
    GridError,
    SpaceTimeGrid,
    field_from_function,
    norm,
    resolve_portion,
    save_field_csv,
)
from .linearize import LinearizationSetup, higher_order, probe_trace
from .model import DiffusionTensor, ModelError, Nonlinearity
from .recon import (
    BTStructure,
    RegionMask,
    null_control,
    positive_solution,
    recover_initial,
    recover_potential,
    recover_taylor,
    runge_fit,
    stability_curve,
    synthesize_potential_probes,
    synthesize_taylor_probes,
)

KINDS = (
    "forward",
    "dnmap",
    "cgo-verify",
    "linearize",
    "recover-q",
    "recover-b",
    "recover-g",
    "stability",
    "carleman",
    "maxprin",
    "runge",
    "control",
    "nonunique-demo",
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing


def _unquote(v: str) -> str:
    v = v.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "\"'":
        return v[1:-1]
    return v


def load_config(path) -> dict:
    cp = configparser.ConfigParser(interpolation=None)
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file {path} not readable")
    return {s: {k: _unquote(v) for k, v in cp[s].items()} for s in cp.sections()}


def _floats(value: str):
    return [float(v) for v in value.replace(",", " ").split()]


def _ints(value: str):
    return [int(v) for v in value.replace(",", " ").split()]


def build_grid(cfg: dict) -> SpaceTimeGrid:
    g = cfg.get("grid", {})
    dim = int(g.get("dim", 1))
    lower = _floats(g.get("lower", "0" if dim == 1 else "0 0"))
    upper = _floats(g.get("upper", "1" if dim == 1 else "1 1"))
    nx = _ints(g.get("nx", "65" if dim == 1 else "17 17"))
    nt = int(g.get("nt", 64))
    T = float(g.get("t", g.get("horizon", 1.0)))
    return SpaceTimeGrid.make(lower, upper, nx, nt, T)


def build_gamma(cfg: dict):
    m = cfg.get("model", {})
    if "g11" in m:
        return DiffusionTensor.matrix2d(
            m["g11"], m.get("g12", "0"), m.get("g22", m["g11"]),
            rho0=float(m.get("rho0", 0.5)),
        )
    gam = m.get("gamma", "1")
    if gam.strip() == "1":
        return None
    return DiffusionTensor.scalar(gam, rho0=float(m.get("rho0", 0.5)))


def build_nonlinearity(cfg: dict, grid) -> Nonlinearity:
    m = cfg.get("model", {})
    source = m.get("nonlinearity", "0")
    tag = m.get("class", "linear-potential")
    nl = Nonlinearity.parse(source, tag=tag)
    nl.validate(grid)
    return nl


def _expr_field(grid, source, domain="Omega"):
    e = Expression(source)
    if domain == "Omega":
        if grid.dim == 1:
            return field_from_function(grid, lambda x: e(x=x), "Omega")
        return field_from_function(grid, lambda x, y: e(x=x, y=y), "Omega")
    if grid.dim == 1:
        return field_from_function(grid, lambda x, t: e(x=x, t=t), "Q")
    return field_from_function(grid, lambda x, y, t: e(x=x, y=y, t=t), "Q")


def _portion(names: str) -> BoundaryPortion:
    names = names.strip()
    if names == "full":
        return BoundaryPortion.full()
    return BoundaryPortion.named(*[s.strip() for s in names.split(",")])


def _seed(cfg: dict) -> int:
    env = os.environ.get("PIPL_SEED")
    if env is not None:
        return int(env)
    return int(cfg.get("experiment", {}).get("seed", 0))


# ---------------------------------------------------------------------------
# Tidy CSV emission


def emit_plotdata(report: dict, kind: str, outdir: Path) -> list:
    """One observation per row; empty reports produce header-only files."""
    written = []

    def write(name, header, rows):
        path = outdir / name
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        written.append(str(path))

    if kind in ("forward", "dnmap"):
        rows = [
            (r["nx"], r["nt"], r["h"], r["error"])
            for r in report.get("convergence", [])
        ]
        write("convergence.csv", ("nx", "nt", "h", "error"), rows)
    elif kind == "cgo-verify":
        rows = [
            (r["rho"], r["remainder_norm"], r["residual"])
            for r in report.get("sweep", [])
        ]
        write("remainder_decay.csv", ("rho", "remainder_norm", "residual"), rows)
    elif kind == "stability":
        rows = [
            (r["delta"], r["trial"], r["error"], r["dn_diff_norm"])
            for r in report.get("trials", [])
        ]
        write("stability_curve.csv", ("delta", "trial", "error", "dn_diff_norm"), rows)
    elif kind == "carleman":
        rows = [
            (e.get("lambda"), e.get("mu", e.get("L")), e["lhs"], e["rhs"], e["ratio"])
            for e in report.get("entries", [])
        ]
        write("ratio_sweep.csv", ("lambda", "mu_or_L", "lhs", "rhs", "ratio"), rows)
    elif kind == "linearize":
        rows = [
            (r["order"], r["eps"], r["gap"])
            for r in report.get("gaps", [])
        ]
        write("linearization_gaps.csv", ("order", "eps", "gap"), rows)
    elif kind == "runge":
        rows = [(r["mode"], r["n_basis"], r["gap"]) for r in report.get("fits", [])]
        write("runge_gaps.csv", ("mode", "n_basis", "gap"), rows)
    elif kind == "control":
        rows = [(i, v) for i, v in enumerate(report.get("terminal_history", []))]
        write("terminal_history.csv", ("iteration", "terminal_norm"), rows)
    else:
        rows = [(k, v) for k, v in sorted(report.get("metrics", {}).items())]
        write("metrics.csv", ("metric", "value"), rows)
    return written


# ---------------------------------------------------------------------------
# Experiment runners: each returns (report dict, check failures list)


def run_forward(cfg, grid, outdir, jobs):
    section = cfg.get("forward", {})
    scheme = cfg.get("experiment", {}).get("scheme", "cn")
    gamma = build_gamma(cfg)
    nl = build_nonlinearity(cfg, grid)
    g0 = _expr_field(grid, section.get("initial", "sin(pi*x)")) if section.get(
        "initial", "sin(pi*x)"
    ) else None
    rep = solve_semilinear(grid, gamma, nl, g=g0, scheme=scheme)
    save_field_csv(rep.solution, outdir / "solution.csv")
    report = {"converged": rep.converged, "iterations": rep.iterations, "metrics": {}}

    oracle_src = section.get("oracle")
    if oracle_src:
        oracle = _expr_field(grid, oracle_src, "Q")
        err = norm(rep.solution - oracle, "L2Q") / max(norm(oracle, "L2Q"), 1e-300)
        report["metrics"]["oracle_rel_l2q_error"] = err

    failures = []
    if not rep.converged:
        failures.append(f"semilinear solve did not converge in {rep.iterations} iterations")
    sizes = _ints(section.get("convergence", "33 65 129 257"))
    if oracle_src and sizes:
        t0 = time.time()
        rows = []
        for nxv in sizes:
            # dt proportional to h: scale the step count with the node count
            ntv = max(2, int(round(grid.nt * (nxv - 1) / (grid.nx[0] - 1))))
            gg = SpaceTimeGrid.make(grid.lower, grid.upper, [nxv], ntv, grid.T)
            o = _expr_field(gg, oracle_src, "Q")
            r = solve_linear(
                gg, gamma, None, g=_expr_field(gg, section.get("initial", "sin(pi*x)")),
                scheme=scheme,
            )
            rows.append(
                {"nx": nxv, "nt": ntv, "h": gg.h[0], "error": norm(r.solution - o, "L2Q")}
            )
        elapsed = time.time() - t0
        order = float(
            np.polyfit(np.log([r["h"] for r in rows]), np.log([r["error"] for r in rows]), 1)[0]
        )
        report["convergence"] = rows
        report["metrics"]["observed_order"] = order
        report["metrics"]["convergence_runtime_s"] = elapsed
        if order < 1.8:
            failures.append(f"forward convergence order {order:.3f} < 1.8")
        if elapsed >= 10.0:
            failures.append(f"convergence sweep took {elapsed:.1f}s >= 10s")
    return report, failures


def run_dnmap(cfg, grid, outdir, jobs):
    section = cfg.get("dnmap", {})
    scheme = cfg.get("experiment", {}).get("scheme", "cn")
    gamma = build_gamma(cfg)
    nl = build_nonlinearity(cfg, grid)
    portion = _portion(section.get("portion", "left"))
    g0 = _expr_field(grid, section.get("initial", "sin(pi*x)"))
    m = passive_map(grid, gamma, nl, g0, portion, scheme=scheme)
    noise_level = float(section.get("noise", 0.0))
    if noise_level > 0:
        m = add_noise(m, section.get("noise_model", "gaussian-relative"), noise_level, _seed(cfg))
    save_measurement(m, outdir / "measurement.csv", outdir / "measurement.json")
    report = {"metrics": {"trace_l2": m.l2()}}

    failures = []
    oracle_src = section.get("oracle_dn")  # expression in t for the first portion node
    sizes = _ints(section.get("convergence", "33 65 129 257"))
    if oracle_src:
        e = Expression(oracle_src)
        rows = []
        for nxv in sizes:
            ntv = max(2, int(round(grid.nt * (nxv - 1) / (grid.nx[0] - 1))))
            gg = SpaceTimeGrid.make(grid.lower, grid.upper, [nxv], ntv, grid.T)
            mm = passive_map(
                gg, gamma, nl, _expr_field(gg, section.get("initial", "sin(pi*x)")),
                portion, scheme=scheme,
            )
            ref = np.array([e(t=t) for t in gg.times()])
            rows.append(
                {
                    "nx": nxv,
                    "nt": ntv,
                    "h": gg.h[0],
                    "error": float(np.max(np.abs(mm.values[:, 0] - ref))),
                }
            )
        order = float(
            np.polyfit(np.log([r["h"] for r in rows]), np.log([r["error"] for r in rows]), 1)[0]
        )
        report["convergence"] = rows
        report["metrics"]["observed_order"] = order
        if order < 1.8:
            failures.append(f"dn trace order {order:.3f} < 1.8")
    return report, failures


def run_cgo_verify(cfg, grid, outdir, jobs):
    section = cfg.get("cgo", {})
    scheme = cfg.get("experiment", {}).get("scheme", "be")
    q_src = section.get("q", "exp(-40*(x-0.5)^2)")
    q = _expr_field(grid, q_src, "Q")
    rhos = _floats(section.get("rhos", "8 16 32 64"))
    omega = _floats(section.get("omega", "1" if grid.dim == 1 else "1 0"))
    factory = CGOFactory(grid, q, scheme)

    def build_one(rho):
        sol = factory.build(CGOParameters.make(rho, omega))
        peak = float(np.max(np.abs(sol.profile().values)))
        return {
            "rho": rho,
            "remainder_norm": sol.remainder_norm,
            "residual": sol.residual,
            "warnings": list(sol.warnings),
            "profile_peak": peak,
        }

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            sweep = list(pool.map(build_one, rhos))
    else:
        sweep = [build_one(r) for r in rhos]
    report = {"sweep": sweep, "metrics": {}}
    norms = [s["remainder_norm"] for s in sweep]
    report["metrics"]["final_over_initial"] = norms[-1] / norms[0] if norms[0] else 0.0
    (outdir / "cgo_report.json").write_text(json.dumps(sweep, indent=2, sort_keys=True))

    failures = []
    if not all(b < a for a, b in zip(norms, norms[1:])):
        failures.append(f"remainder norms not strictly decreasing: {norms}")
    if norms and norms[0] and norms[-1] / norms[0] >= 0.5:
        failures.append(f"final/initial remainder ratio {norms[-1]/norms[0]:.3f} >= 0.5")
    if any(s["profile_peak"] > math.exp(50) for s in sweep):
        failures.append("materialized profile exceeded the overflow guard")
    unresolved = [s["rho"] for s in sweep if s["warnings"]]
    if unresolved:
        failures.append(
            f"boundary layer under-resolved at rho {unresolved}; decay not certified"
        )
    return report, failures


def run_linearize(cfg, grid, outdir, jobs):
    section = cfg.get("linearize", {})
    scheme = cfg.get("experiment", {}).get("scheme", "be")
    gamma = build_gamma(cfg)
    nl = build_nonlinearity(cfg, grid)
    g0 = _expr_field(grid, section.get("base_initial", "0.8*sin(pi*x)"))
    setup = LinearizationSetup(grid, gamma, nl, g0, scheme=scheme)
    shapes = [
        probe_trace(grid, lambda x, s=shift: np.cos(s * x) + 1.5)
        for shift in (1.0, 2.0, 3.0)
    ]
    max_order = int(section.get("max_order", 3))
    # per-order amplitude windows balancing truncation against the eps^-M
    # rounding floor of the corner sums
    default_sched = {1: "1e-2 1e-3", 2: "1e-2 1e-3", 3: "3e-3 1e-3"}
    gaps_rows = []
    slopes = {}
    corner_solves = 0
    for order in range(1, max_order + 1):
        eps_sched = _floats(section.get(f"eps{order}", default_sched.get(order, "1e-2 1e-3")))
        res = higher_order(setup, shapes[:order], eps_sched)
        corner_solves += (2**order - 1) * len(eps_sched)  # base corner shared
        for e, gap in zip(eps_sched, res.rate.gaps if res.rate else []):
            gaps_rows.append({"order": order, "eps": e, "gap": gap})
        slopes[order] = res.rate.slope if res.rate else None
    report = {
        "gaps": gaps_rows,
        "slopes": {str(k): v for k, v in slopes.items()},
        "corner_solves": corner_solves,
        "newton_calls": setup.newton_calls,
        "newton_iterations": setup.newton_iterations,
        "metrics": {f"slope_order_{k}": (v if v is not None else 0.0) for k, v in slopes.items()},
    }
    failures = []
    for order, slope in slopes.items():
        if slope is None:
            failures.append(f"order {order}: no measurable gap slope")
        elif not 0.8 <= slope <= 1.2:
            failures.append(f"order {order} slope {slope:.3f} outside [0.8, 1.2]")
    return report, failures


def run_recover_q(cfg, grid, outdir, jobs):
    section = cfg.get("recover_q", cfg.get("recover-q", {}))
    scheme = cfg.get("experiment", {}).get("scheme", "be")
    rho = float(section.get("rho", 32.0))
    n_tau = int(section.get("n_tau", 4))
    truth_src = section.get(
        "truth_difference", "(1 + 0.4*sin(pi*x))*exp(-25*(t-0.5)^2)"
    )
    dq = _expr_field(grid, truth_src, "Q")
    mode = section.get("mode", "full")
    probes = synthesize_potential_probes(
        grid, dq, None, rho=rho, n_tau=n_tau, scheme=scheme, mode=mode
    )
    res = recover_potential(
        grid, probes, None, scheme=scheme, mode=mode,
        truth_difference=Field(grid, -dq.values, "Q"),
    )
    save_field_csv(res.recovered, outdir / "recovered_q_difference.csv")
    # zero-difference control case
    probes0 = synthesize_potential_probes(
        grid, dq, dq, rho=rho, n_tau=1, scheme=scheme, mode=mode
    )
    res0 = recover_potential(grid, probes0, dq, scheme=scheme, mode=mode)
    zero_err = norm(res0.recovered, "L2Q") / max(norm(dq, "L2Q"), 1e-300)
    report = {
        "metrics": {
            "rel_l2q_error": res.truth_error,
            "zero_difference_error": zero_err,
            "conjugate_symmetry_defect": res.residuals["conjugate_symmetry_defect"],
        },
        "regularization": res.regularization,
    }
    failures = []
    if res.truth_error > 0.20:
        failures.append(f"potential recovery error {res.truth_error:.3f} > 0.20")
    if zero_err > 1e-6:
        failures.append(f"zero-difference control error {zero_err:.3g} > 1e-6")
    return report, failures


def run_recover_b(cfg, grid, outdir, jobs):
    section = cfg.get("recover_b", cfg.get("recover-b", {}))
    scheme = cfg.get("experiment", {}).get("scheme", "be")
    rho = float(section.get("rho", 32.0))
    order = int(section.get("order", 3))
    coeff_src = section.get("coefficient", "(1 + 0.2*sin(pi*x))*exp(-16*(t-0.65)^2)")
    nl_truth = Nonlinearity.parse(f"({coeff_src})*u^{order}")
    nl_ref = Nonlinearity.zero()
    pos = []
    for _ in range(order - 1):
        v, cert = positive_solution(grid, None, None, ramp_time=0.15 * grid.T, scheme=scheme)
        pos.append(v)
    probes = synthesize_taylor_probes(
        grid, nl_truth, nl_ref, order, pos, rho=rho,
        n_tau=int(section.get("n_tau", 4)), scheme=scheme,
    )
    fact = math.factorial(order)
    coeff = Expression(coeff_src)
    if grid.dim == 1:
        truth = field_from_function(grid, lambda x, t: fact * coeff(x=x, t=t), "Q")
    else:
        truth = field_from_function(grid, lambda x, y, t: fact * coeff(x=x, y=y, t=t), "Q")
    res = recover_taylor(
        grid, probes, nl_ref, order, pos, scheme=scheme, truth_difference=truth
    )
    save_field_csv(res.recovered, outdir / "recovered_taylor_difference.csv")
    report = {
        "metrics": {"rel_l2q_error": res.truth_error, "order": order},
        "regularization": res.regularization,
    }
    failures = []
    if res.truth_error > 0.25:
        failures.append(f"taylor recovery error {res.truth_error:.3f} > 0.25")
    return report, failures


def run_recover_g(cfg, grid, outdir, jobs):
    section = cfg.get("recover_g", cfg.get("recover-g", {}))
    scheme = cfg.get("experiment", {}).get("scheme", "be")
    gamma = build_gamma(cfg)
    nl = build_nonlinearity(cfg, grid)
    truth = _expr_field(grid, section.get("truth", "sin(pi*x)"))
    portion = _portion(section.get("portion", "left"))
    data = passive_map(grid, gamma, nl, truth, portion, scheme=scheme)
    noise = float(section.get("noise", 0.0))
    noise_norm = 0.0
    if noise > 0:
        noisy = add_noise(data, "gaussian-relative", noise, _seed(cfg))
        noise_norm = DNMeasurement(grid, data.portion, noisy.values - data.values).l2()
        data = noisy
    res = recover_initial(
        grid, gamma, nl, data, noise_norm=noise_norm, scheme=scheme, truth=truth
    )
    save_field_csv(res.recovered, outdir / "recovered_initial.csv")
    report = {
        "metrics": {"rel_l2_error": res.truth_error, "data_misfit": res.residuals["data_misfit"]},
        "regularization": res.regularization,
    }
    failures = []
    if noise == 0.0 and res.truth_error > 0.10:
        failures.append(f"noiseless initial-data error {res.truth_error:.3f} > 0.10")
    return report, failures


def run_stability(cfg, grid, outdir, jobs):
    section = cfg.get("stability", {})
    scheme = cfg.get("experiment", {}).get("scheme", "be")
    gamma = build_gamma(cfg)
    nl = build_nonlinearity(cfg, grid)
    truth = _expr_field(grid, section.get("truth", "sin(pi*x)"))
    portion = _portion(section.get("portion", "left"))
    deltas = _floats(section.get("deltas", "1e-1 1e-2 1e-3 1e-4"))
    trials = int(section.get("trials", 5))
    curve = stability_curve(
        grid, gamma, nl, truth, portion, deltas, trials=trials, seed=_seed(cfg), scheme=scheme
    )
    rows = []
    i = 0
    for delta in deltas:
        for trial in range(trials):
            rows.append(
                {
                    "delta": delta,
                    "trial": trial,
                    "error": curve.errors[i],
                    "dn_diff_norm": curve.magnitudes[i],
                }
            )
            i += 1
    report = {
        "trials": rows,
        "fits": {"two_term": curve.fit_two_term, "linear": curve.fit_linear},
        "metrics": {
            "two_term_residual": curve.fit_two_term.get("residual", 0.0),
            "linear_residual": curve.fit_linear.get("residual", 0.0),
        },
    }
    (outdir / "stability_report.json").write_text(
        json.dumps(curve.to_dict(), indent=2, sort_keys=True)
    )
    failures = []
    means = [curve.mean_errors[d] for d in sorted(deltas, reverse=True)]
    rho_rank = _spearman(curve.magnitudes, curve.errors)
    report["metrics"]["rank_correlation"] = rho_rank
    if not all(b <= a * (1 + 1e-9) for a, b in zip(means, means[1:])):
        failures.append(f"mean error not monotone across deltas: {means}")
    if rho_rank < 0.9:
        failures.append(f"rank correlation {rho_rank:.3f} < 0.9")
    if curve.fit_two_term.get("residual", 0.0) > curve.fit_linear.get("residual", 0.0) + 1e-12:
        failures.append("two-term fit residual exceeds the pure-linear fit")
    return report, failures


def _spearman(x, y) -> float:
    """Spearman rank correlation: the Pearson correlation of the ranks, tied
    values sharing the mean of their ranks."""
    ranks = []
    for v in (np.asarray(x, dtype=float), np.asarray(y, dtype=float)):
        s = np.sort(v)
        ranks.append((np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1) / 2)
    return float(np.corrcoef(*ranks)[0, 1])


def run_carleman(cfg, grid, outdir, jobs):
    section = cfg.get("carleman", {})
    gamma = build_gamma(cfg)
    portion = _portion(section.get("portion", "left"))
    A = float(section.get("a", 1.0))
    u = _expr_field(grid, section.get("solution", "exp(-pi^2*t)*sin(pi*x)"), "Q")
    F = Field(grid, A * u.values, "Q")
    psi_src = section.get("psi")
    psi = Expression(psi_src) if psi_src else default_weight_base(grid, tuple(
        s.strip() for s in section.get("portion", "left").split(",")
    ))
    default_t0 = 10 * grid.dt  # keep t0 on a time level of both grids
    cfg1 = CarlemanConfig(psi, K=float(section.get("k", 0.15)),
                          t0=float(section.get("t0", default_t0)), L=float(section.get("l", 1.0)))
    rep1 = carleman_check_1(u, F, cfg1, portion, gamma)
    rep2 = carleman_check_2(u, F, cfg1, gamma)
    entries = [
        {**e, "check": 1} for e in rep1.entries
    ] + [{**e, "check": 2} for e in rep2.entries]
    report = {
        "entries": entries,
        "weight_conditions": cfg1.check_weight_conditions(
            grid, gamma, resolve_portion(grid, portion)
        ),
        "metrics": {"max_ratio_1": rep1.max_ratio(), "max_ratio_2": rep2.max_ratio()},
        "notes": rep1.notes + rep2.notes,
    }
    failures = []
    if not (rep1.all_finite() and rep2.all_finite()):
        failures.append("non-finite inequality ratio")
    # refinement stability on one halved grid
    g2 = SpaceTimeGrid.make(grid.lower, grid.upper, [2 * (n - 1) + 1 for n in grid.nx],
                            2 * grid.nt, grid.T)
    u2 = _expr_field(g2, section.get("solution", "exp(-pi^2*t)*sin(pi*x)"), "Q")
    F2 = Field(g2, A * u2.values, "Q")
    psi2 = Expression(psi_src) if psi_src else default_weight_base(g2, tuple(
        s.strip() for s in section.get("portion", "left").split(",")
    ))
    cfg2 = CarlemanConfig(psi2, K=cfg1.K, t0=cfg1.t0, L=cfg1.L)
    rep1b = carleman_check_1(u2, F2, cfg2, portion, gamma)
    rep2b = carleman_check_2(u2, F2, cfg2, gamma)
    drift = 0.0
    for a, b in zip(rep1.entries + rep2.entries, rep1b.entries + rep2b.entries):
        if a["ratio"] > 0:
            drift = max(drift, abs(b["ratio"] - a["ratio"]) / a["ratio"])
    report["metrics"]["refinement_drift"] = drift
    if drift >= 0.20:
        failures.append(f"ratio drift {drift:.3f} >= 20% under refinement")

    # weight-function slice along x at mid-time, for plotting
    import math as _math

    x = grid.axis(0)
    psi_vals = np.broadcast_to(np.asarray(cfg1.psi(x=x), dtype=float), (grid.nx[0],))
    tmid = grid.T / 2
    tt = tmid**2 * (grid.T - tmid) ** 2
    mu = cfg1.mus[0]
    eta = (np.exp(mu * psi_vals) - _math.exp(2 * mu * float(np.max(psi_vals)))) / tt
    with open(outdir / "weight_slices.csv", "w") as fh:
        fh.write("x,psi,eta_mid,theta1_sq_scaled\n")
        lam = cfg1.lambdas[0]
        scale = float(np.max(2 * lam * eta))
        for xi, pv, ev in zip(x, psi_vals, eta):
            fh.write(f"{float(xi)!r},{float(pv)!r},{float(ev)!r},"
                     f"{float(np.exp(2 * lam * ev - scale))!r}\n")
    return report, failures


def run_maxprin(cfg, grid, outdir, jobs):
    section = cfg.get("maxprin", {})
    gamma = build_gamma(cfg)
    q = float(section.get("q", 0.0))
    cert = max_principle_check(grid, gamma, q if q else None)
    report = {
        "metrics": {
            "interior_min": cert.interior_min,
            "min_after_first_level": cert.min_after_first_level,
            "sup": cert.sup,
        }
    }
    failures = []
    if cert.interior_min < -1e-8 * cert.sup:
        failures.append("interior minimum below the nonnegativity tolerance")
    if cert.min_after_first_level <= 0:
        failures.append("interior values not strictly positive beyond the first level")
    return report, failures


def run_runge(cfg, grid, outdir, jobs):
    section = cfg.get("runge", {})
    scheme = cfg.get("experiment", {}).get("scheme", "be")
    q = _expr_field(grid, section.get("q", "0.5*exp(-30*(x-0.4)^2)"), "Q")
    sizes = _ints(section.get("sizes", "4 8 16 32"))
    rho = float(section.get("rho", 2.0))
    factory = CGOFactory(grid, q, scheme)
    sol = factory.build(CGOParameters.make(rho, [1.0] if grid.dim == 1 else [1.0, 0.0],
                                           tau=2 * math.pi / grid.T))
    x = grid.axis(0)
    carrier = np.array([np.exp(rho * x + rho**2 * t) for t in grid.times()])
    vals = (carrier * sol.profile().values).real if grid.dim == 1 else sol.profile().values.real
    target = Field(grid, vals / np.max(np.abs(vals)), "Q")
    fits = []
    for mode, kw in (
        ("full", {}),
        ("partial", {"omega": [1.0] if grid.dim == 1 else [1.0, 0.0],
                     "region": RegionMask.subinterval(grid, 0.55, 1.0)}),
    ):
        for N in sizes:
            fit = runge_fit(grid, target, q=q, n_basis=N, mode=mode, scheme=scheme, **kw)
            fits.append({"mode": mode, "n_basis": N, "gap": fit.gap})
    report = {"fits": fits, "metrics": {}}
    failures = []
    for mode in ("full", "partial"):
        gaps = [f["gap"] for f in fits if f["mode"] == mode]
        report["metrics"][f"gap_ratio_{mode}"] = gaps[-1] / gaps[0] if gaps[0] else 0.0
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            failures.append(f"{mode} gaps not strictly decreasing: {gaps}")
    return report, failures


def run_control(cfg, grid, outdir, jobs):
    section = cfg.get("control", {})
    scheme = cfg.get("experiment", {}).get("scheme", "be")
    gamma = build_gamma(cfg)
    eps = float(section.get("eps", 0.25 * grid.T))
    g0 = _expr_field(grid, section.get("initial", "sin(pi*x)"))
    portion = resolve_portion(grid, _portion(section.get("portion", "left")))
    tail_src = section.get("tail_nonlinearity", "u^3")
    bt = BTStructure(Nonlinearity.zero(), Nonlinearity.parse(tail_src), eps)
    res = null_control(
        grid, gamma, None, g0, eps=eps, portion=portion,
        n_time=int(section.get("n_time", 12)), scheme=scheme, bt=bt,
    )
    report = {
        "terminal_history": res.terminal_history,
        "metrics": {
            "uncontrolled_norm": res.uncontrolled_norm,
            "terminal_norm": res.terminal_norm,
            "reduction_factor": res.uncontrolled_norm / max(res.terminal_norm, 1e-300),
            "tail_sup_norm": res.continuation.get("sup_norm_over_tail", 0.0),
        },
        "notes": res.notes,
    }
    failures = []
    if res.uncontrolled_norm / max(res.terminal_norm, 1e-300) < 100:
        failures.append("terminal norm reduction below 100x")
    if res.continuation.get("sup_norm_over_tail", 0.0) > 10 * res.terminal_norm:
        failures.append("continued free solution exceeds 10x the terminal norm")
    return report, failures


def run_nonunique(cfg, grid, outdir, jobs):
    section = cfg.get("nonunique", {})
    gamma = build_gamma(cfg)
    demo = nonuniqueness_demo(
        grid, gamma,
        collar=float(section.get("collar", 0.15)),
    )
    save_field_csv(demo.g1, outdir / "g1.csv")
    save_field_csv(demo.g2, outdir / "g2.csv")
    report = {
        "metrics": {
            "g_gap_l2": demo.g_gap,
            "trace_sup": demo.trace_sup,
            "sup_fields": demo.sup_fields,
        }
    }
    failures = []
    if demo.g_gap < 0.1:
        failures.append(f"initial-data gap {demo.g_gap:.3f} < 0.1")
    if demo.trace_sup > 1e-8 * (1 + demo.sup_fields):
        failures.append("passive DN traces not negligible")
    return report, failures


RUNNERS = {
    "forward": run_forward,
    "dnmap": run_dnmap,
    "cgo-verify": run_cgo_verify,
    "linearize": run_linearize,
    "recover-q": run_recover_q,
    "recover-b": run_recover_b,
    "recover-g": run_recover_g,
    "stability": run_stability,
    "carleman": run_carleman,
    "maxprin": run_maxprin,
    "runge": run_runge,
    "control": run_control,
    "nonunique-demo": run_nonunique,
}


def run(kind: str, config_path, out_dir=None, check: bool = False, jobs: int = 1) -> int:
    """Execute one experiment; returns the process exit code."""
    t_start = time.time()
    try:
        cfg = load_config(config_path)
        cfg_kind = cfg.get("experiment", {}).get("kind")
        if cfg_kind and cfg_kind != kind:
            raise ConfigError(f"config kind {cfg_kind!r} does not match requested {kind!r}")
        if kind not in RUNNERS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        grid = build_grid(cfg)
        outdir = Path(out_dir if out_dir else cfg.get("output", {}).get("dir", f"out/{kind}"))
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, configparser.Error, ExprError, GridError, ModelError) as exc:
        _write_error(out_dir, kind, exc, EXIT_PARSE)
        return EXIT_PARSE

    try:
        report, failures = RUNNERS[kind](cfg, grid, outdir, jobs)
    except (ParseError, ExprError, ConfigError, GridError, ModelError) as exc:
        _write_error(outdir, kind, exc, EXIT_PARSE)
        return EXIT_PARSE
    except (SolverError, RuntimeError, np.linalg.LinAlgError) as exc:
        _write_error(outdir, kind, exc, EXIT_SOLVER)
        return EXIT_SOLVER

    manifest = {
        "kind": kind,
        "version": __version__,
        "seed": _seed(cfg),
        "config": cfg,
        "check": check,
        "jobs": jobs,
        "wall_time_s": time.time() - t_start,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (outdir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True, default=float))
    emit_plotdata(report, kind, outdir)

    if check and failures:
        (outdir / "check_failures.json").write_text(json.dumps(failures, indent=2))
        print("CHECK FAILED:", "; ".join(failures), file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _write_error(outdir, kind, exc, code):
    payload = {
        "kind": kind,
        "error": str(exc),
        "type": type(exc).__name__,
        "exit_code": code,
    }
    if isinstance(exc, ParseError):
        payload["byte_offset"] = exc.offset
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text, file=sys.stderr)
    try:
        if outdir is not None:
            Path(outdir).mkdir(parents=True, exist_ok=True)
            (Path(outdir) / "error.json").write_text(text)
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pipl",
        description="Parabolic inverse-problem laboratory: run named experiments from a config file.",
    )
    parser.add_argument("kind", choices=KINDS, help="experiment kind")
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--check", action="store_true", help="enforce acceptance thresholds")
    parser.add_argument("--jobs", type=int, default=1, help="worker cap for internal sweeps")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    return run(args.kind, args.config, args.out, args.check, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
