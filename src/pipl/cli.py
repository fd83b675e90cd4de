"""Experiment orchestration.

A config file holds INI sections of ``key = value`` lines, with expressions
as quoted strings.  ``SCHEMA`` names, for every experiment kind, the
sections and keys that kind reads, each with its parser and default.
``load_config`` resolves a file against it before any runner starts, and
runners read only the resolved values.  An unknown section, a key the kind
does not read, a malformed or non-finite number, a value outside its
choices, a non-integer ``PIPL_SEED``, a rho0 outside (0, 1), a gamma whose
sampled eigenvalues leave [rho0, 1/rho0], an analytic-class term nonzero at
u = 0 and a class A_T nonlinearity that breaks its growth condition raise
ConfigError, which names the section, the key and the line.

Every run writes a manifest (resolved config, tool version, seed, wall
time) plus reports and tidy CSVs into the output directory.  Each runner
records its acceptance gates in report.json (value, bound, ratio, passed);
``--check`` exits nonzero when one failed and lists the failures in
check_failures.json.

Exit codes: 0 success, 2 config, expression or parameter-constraint error,
3 solver failure, 4 check-mode threshold failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import operator
import os
import re
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    UNDERSHOOT_TOL,
    AnalysisError,
    CarlemanConfig,
    carleman_check_1,
    carleman_check_2,
    default_weight_base,
    max_principle_check,
    nonuniqueness_demo,
)
from .cgo import CGOError, CGOFactory, CGOParameters
from .dnmap import DNMeasurement, add_noise, passive_map, save_measurement
from .expr import Expression, ExprError
from .forward import SCHEMES, Propagator, SolverError, solve_linear, solve_semilinear
from .grid import (
    FACE_IDS,
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
from .model import CLASS_A, CLASSES, DiffusionTensor, ModelError, Nonlinearity, check_growth
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

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    """A config fault, located by section, key and line where it has them."""

    def __init__(self, message, section=None, key=None, line=None, offset=None):
        where = " ".join(
            part for part in (section and f"[{section}]", key, line and f"(line {line})") if part
        )
        super().__init__(f"{where}: {message}" if where else message)
        self.section, self.key, self.line, self.offset = section, key, line, offset


# ---------------------------------------------------------------------------
# Value parsers: each takes the unquoted text of one key and raises ValueError


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return value


def _list(parse):
    def parse_list(text):
        values = tuple(parse(v) for v in text.replace(",", " ").split())
        if not values:
            raise ValueError("needs at least one value")
        return values

    return parse_list


_floats, _ints = _list(_float), _list(int)


def _expr(text: str) -> str:
    Expression(text)  # a malformed expression raises ParseError with its byte offset
    return text


def _optional_expr(text: str):
    """An expression, or None for an empty value."""
    return _expr(text) if text else None


def _choice(*options, parse=str):
    def choose(text):
        value = parse(text)
        if value not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(map(str, options))}")
        return value

    return choose


def _faces(text: str) -> BoundaryPortion:
    names = tuple(s.strip() for s in text.split(","))
    unknown = [n for n in names if n not in FACE_IDS]
    if unknown:
        raise ValueError(f"unknown face {unknown[0]!r}; faces are {', '.join(FACE_IDS)}")
    return BoundaryPortion.named(*names)


def _portion(text: str) -> BoundaryPortion:
    return BoundaryPortion.full() if text == "full" else _faces(text)


# ---------------------------------------------------------------------------
# The schema: kind -> section -> key -> (parser, default).  A callable
# default is a function of the resolved [grid] section.

_LEFT = BoundaryPortion.named("left")
_SIZES = (33, 65, 129, 257)  # nx of the refined grids of a convergence sweep

_GRID = {
    "dim": (_choice(1, 2, parse=int), 1),
    "lower": (_floats, lambda g: (0.0,) * g["dim"]),
    "upper": (_floats, lambda g: (1.0,) * g["dim"]),
    "nx": (_ints, lambda g: (65,) if g["dim"] == 1 else (17,) * g["dim"]),
    "nt": (int, 64),
    "t": (_float, 1.0),
}

# the diffusion tensor: a scalar gamma, or the 2D entries g11, g12, g22
_GAMMA = {
    "gamma": (_expr, "1"),
    "g11": (_expr, None),
    "g12": (_expr, "0"),
    "g22": (_expr, None),  # None: g22 = g11
    "rho0": (_float, 0.5),
}
_MODEL = {
    **_GAMMA,
    "nonlinearity": (_expr, "0"),
    "class": (_choice(*CLASSES), "linear-potential"),
}


def _kind(kind, section, keys, model=None, scheme="be"):
    """(kind, its tables): [grid] first, so that callable defaults can read
    it, then [experiment] (with scheme when the kind reads one), [output],
    [model] when the kind reads it, and the kind's own section."""
    experiment = {"kind": (_choice(kind), kind), "seed": (int, 0)}
    if scheme:
        experiment["scheme"] = (_choice(*SCHEMES), scheme)
    tables = {"grid": _GRID, "experiment": experiment, "output": {"dir": (str, f"out/{kind}")}}
    if model:
        tables["model"] = model
    tables[section] = keys
    return kind, tables


SCHEMA = dict((
    _kind("forward", "forward", {
        "initial": (_optional_expr, "sin(pi*x)"),  # empty: zero initial data
        "oracle": (_optional_expr, None),
        "convergence": (_ints, _SIZES),
    }, _MODEL, scheme="cn"),
    _kind("dnmap", "dnmap", {
        "initial": (_expr, "sin(pi*x)"),
        "portion": (_portion, _LEFT),
        "noise": (_float, 0.0),
        "noise_model": (_choice("gaussian-relative", "gaussian-absolute"), "gaussian-relative"),
        "oracle_dn": (_optional_expr, None),  # in t, at the first portion node
        "convergence": (_ints, _SIZES),
    }, _MODEL, scheme="cn"),
    _kind("cgo-verify", "cgo", {
        "q": (_expr, "exp(-40*(x-0.5)^2)"),
        "rhos": (_floats, (8.0, 16.0, 32.0, 64.0)),
        "omega": (_floats, lambda g: (1.0,) + (0.0,) * (g["dim"] - 1)),
    }),
    _kind("linearize", "linearize", {
        "base_initial": (_expr, "0.8*sin(pi*x)"),
        "max_order": (_choice(1, 2, 3, parse=int), 3),  # one probe shape per order
        # per-order amplitude windows balancing truncation against the eps^-M
        # rounding floor of the corner sums
        "eps1": (_floats, (1e-2, 1e-3)),
        "eps2": (_floats, (1e-2, 1e-3)),
        "eps3": (_floats, (3e-3, 1e-3)),
    }, _MODEL),
    _kind("recover-q", "recover_q", {
        "rho": (_float, 32.0),
        "n_tau": (_count, 4),
        "truth_difference": (_expr, "(1 + 0.4*sin(pi*x))*exp(-25*(t-0.5)^2)"),
        "mode": (_choice("full", "partial"), "full"),
    }),
    _kind("recover-b", "recover_b", {
        "rho": (_float, 32.0),
        "order": (int, 3),
        "n_tau": (_count, 4),
        "coefficient": (_expr, "(1 + 0.2*sin(pi*x))*exp(-16*(t-0.65)^2)"),
    }),
    _kind("recover-g", "recover_g", {
        "truth": (_expr, "sin(pi*x)"),
        "portion": (_portion, _LEFT),
        "noise": (_float, 0.0),
    }, _MODEL),
    _kind("stability", "stability", {
        "truth": (_expr, "sin(pi*x)"),
        "portion": (_portion, _LEFT),
        "deltas": (_floats, (1e-1, 1e-2, 1e-3, 1e-4)),
        "trials": (_count, 5),
    }, _MODEL),
    _kind("carleman", "carleman", {
        "portion": (_faces, _LEFT),
        "a": (_float, 1.0),
        "solution": (_expr, "exp(-pi^2*t)*sin(pi*x)"),
        "psi": (_optional_expr, None),  # None: default_weight_base of each grid
        "k": (_float, 0.15),
        "t0": (_float, lambda g: 10 * (g["t"] / g["nt"])),  # 10 dt: on a level of both grids
        "l": (_float, 1.0),
    }, _GAMMA, scheme=None),
    _kind("maxprin", "maxprin", {"q": (_float, 0.0)}, _GAMMA, scheme=None),
    _kind("runge", "runge", {
        "q": (_expr, "0.5*exp(-30*(x-0.4)^2)"),
        "sizes": (_list(_count), (4, 8, 16, 32)),
        "rho": (_float, 2.0),
    }),
    _kind("control", "control", {
        "initial": (_expr, "sin(pi*x)"),
        "portion": (_portion, _LEFT),
        "eps": (_float, lambda g: 0.25 * g["t"]),
        "tail_nonlinearity": (_expr, "u^3"),
        "n_time": (_count, 12),
    }, _GAMMA),
    _kind("nonunique-demo", "nonunique", {"collar": (_float, 0.15)}, _GAMMA, scheme=None),
))

KINDS = tuple(SCHEMA)


# ---------------------------------------------------------------------------
# Loading


@dataclass(frozen=True)
class Config:
    """A config file resolved against SCHEMA.  values[section][key] holds
    every key the kind reads, typed (what manifest.json records); the rest
    is built from it.  gamma None is the identity, and nl is None for a kind
    that reads no nonlinearity."""

    values: dict
    grid: SpaceTimeGrid
    gamma: DiffusionTensor | None
    nl: Nonlinearity | None
    scheme: str | None
    seed: int


def _unquote(v: str) -> str:
    v = v.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in "\"'":
        return v[1:-1]
    return v


def _key_lines(text: str) -> dict:
    """Line numbers, read the way configparser reads the file: (section,
    None) for each section header and (section, key) for each key."""
    lines, section = {}, None
    for number, line in enumerate(text.splitlines(), 1):
        s = line.strip()
        if not s or s[0] in "#;" or line[0].isspace():
            continue
        header = re.match(r"\[(.+)\]", s)
        if header:
            section = header[1]
            lines[section, None] = number
        else:
            lines[section, re.split("[=:]", s, maxsplit=1)[0].strip().lower()] = number
    return lines


def _gamma(m: dict):
    if m["g11"] is not None:
        return DiffusionTensor.matrix2d(
            m["g11"], m["g12"], m["g11"] if m["g22"] is None else m["g22"], rho0=m["rho0"]
        )
    gamma = DiffusionTensor.scalar(m["gamma"], rho0=m["rho0"])  # checks rho0 for "1" too
    return None if m["gamma"].strip() == "1" else gamma


def load_config(path, kind: str) -> Config:
    """Resolve the config file at path against SCHEMA[kind].  The first
    fault raises ConfigError naming its section, key and line; the
    environment variable PIPL_SEED replaces [experiment] seed."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} not readable: {exc}") from exc
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text, source=str(path))
    lines = _key_lines(text)

    def fault(message, section, key=None, offset=None):
        return ConfigError(message, section, key, lines.get((section, key)), offset)

    tables = SCHEMA[kind]
    if cp.defaults():
        raise fault("unknown section", "DEFAULT")
    values = {name: {} for name in tables}
    # [experiment] first: a config of another kind fails on its kind key
    for name in sorted(cp.sections(), key=lambda n: n != "experiment"):
        if name not in tables:
            raise fault(f"unknown section; {kind} reads {', '.join(tables)}", name)
        for key, raw in cp[name].items():
            if key not in tables[name]:
                raise fault(f"unknown key; {kind} reads {', '.join(tables[name])} here", name, key)
            try:
                values[name][key] = tables[name][key][0](_unquote(raw))
            except ValueError as exc:  # an expression's ParseError carries its byte offset
                raise fault(str(exc), name, key, getattr(exc, "offset", None)) from exc
    for name, table in tables.items():  # [grid] first: callable defaults read it
        for key, (_, default) in table.items():
            if key not in values[name]:
                values[name][key] = default(values["grid"]) if callable(default) else default

    g = values["grid"]
    for key in ("lower", "upper", "nx"):
        if len(g[key]) != g["dim"]:
            raise fault(f"needs {g['dim']} entries for dim {g['dim']}", "grid", key)
    env = os.environ.get("PIPL_SEED")
    if env is not None:
        try:
            values["experiment"]["seed"] = int(env)
        except ValueError as exc:
            raise ConfigError(f"{env!r} is not an integer", key="PIPL_SEED") from exc
    if kind == "carleman":
        s = values["carleman"]
        try:
            CarlemanConfig(None, K=s["k"], t0=s["t0"], L=s["l"])  # checks K + t0 < min(1, 1/2L)
        except AnalysisError as exc:
            raise fault(str(exc), "carleman", "k") from exc

    grid = SpaceTimeGrid.make(g["lower"], g["upper"], g["nx"], g["nt"], g["t"])
    # the hypotheses of the recovery results: a uniformly elliptic gamma, and
    # the growth condition of class A_T
    m = values.get("model")
    try:
        gamma = _gamma(m) if m else None
    except ModelError as exc:  # rho0 outside (0, 1)
        raise fault(str(exc), "model", "rho0") from exc
    if gamma is not None:
        try:
            gamma.check_ellipticity(grid)
        except ModelError as exc:
            raise fault(str(exc), "model", "g11" if gamma.is_matrix else "gamma") from exc
    nl = None
    if m and "nonlinearity" in m:
        nl = Nonlinearity.parse(m["nonlinearity"], tag=m["class"])
        try:
            nl.validate(grid)  # an analytic-class term or B_T tail must vanish at u = 0
        except ModelError as exc:
            raise fault(str(exc), "model", "nonlinearity") from exc
        growth = check_growth(nl, grid) if nl.tag == CLASS_A else None
        if growth is not None and not growth.satisfies:
            raise fault(f"breaks the {CLASS_A} growth condition: {growth.note}", "model",
                        "nonlinearity")
    exp = values["experiment"]
    return Config(values, grid, gamma, nl, exp.get("scheme"), exp["seed"])


def _expr_field(grid, source, domain="Omega"):
    e = Expression(source)
    names = ("x", "y")[: grid.dim] + (("t",) if domain == "Q" else ())
    return field_from_function(grid, lambda *coords: e(**dict(zip(names, coords))), domain)


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
                # repr(float(v)): numpy floats repr as np.float64(...)
                fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
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
# Experiment runners: each returns its report dict, its --check gates
# recorded by _gate


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _gate(report, name, value, op=None, bound=None, passed=None, note=None):
    """Record one --check gate as report["gates"][name]: value, bound, ratio
    and passed.  A threshold gate passes when `value op bound`, or by passed
    where its test carries slack; its ratio is value / bound under an upper
    bound and bound / value over a lower one, so 1.0 is the edge of passing
    (None for a zero divisor).  A flag gate (no op) passes when value is
    true and has no ratio.  A failed gate also records its failure: note, or
    the comparison it broke."""
    if op is None:
        ratio, passed = None, bool(value)
    else:
        num, den = (value, bound) if op[0] == "<" else (bound, value)
        ratio = num / den if den else None
        passed = bool(_OPS[op](value, bound) if passed is None else passed)
    gate = {"value": value, "bound": bound, "ratio": ratio, "passed": passed}
    if not passed:
        gate["failure"] = note or f"{name} {value:.4g} not {op} {bound:.4g}"
    report.setdefault("gates", {})[name] = gate


def _step_ratio(values):
    """Largest ratio of consecutive values: below 1 when they strictly decrease."""
    return max((b / a if a else math.inf for a, b in zip(values, values[1:])), default=0.0)


def _convergence(grid, sizes, error, report):
    """error(refined grid) on 1D grids of sizes nodes, dt proportional to h;
    the observed order is the log-log slope of error against h, gated at 1.8."""
    rows = []
    for nxv in sizes:
        ntv = max(2, int(round(grid.nt * (nxv - 1) / (grid.nx[0] - 1))))
        gg = SpaceTimeGrid.make(grid.lower, grid.upper, [nxv], ntv, grid.T)
        rows.append({"nx": nxv, "nt": ntv, "h": gg.h[0], "error": error(gg)})
    order = float(
        np.polyfit(np.log([r["h"] for r in rows]), np.log([r["error"] for r in rows]), 1)[0]
    )
    report["convergence"] = rows
    report["metrics"]["observed_order"] = order
    _gate(report, "observed_order", order, ">=", 1.8)


def run_forward(c, outdir):
    s = c.values["forward"]

    def initial(grid):
        return _expr_field(grid, s["initial"]) if s["initial"] else None

    rep = solve_semilinear(c.grid, c.gamma, c.nl, g=initial(c.grid), scheme=c.scheme)
    save_field_csv(rep.solution, outdir / "solution.csv")
    report = {"converged": rep.converged, "iterations": rep.iterations, "metrics": {}}
    _gate(report, "converged", rep.converged,
          note=f"semilinear solve did not converge in {rep.iterations} iterations")

    oracle = s["oracle"]
    if oracle:
        exact = _expr_field(c.grid, oracle, "Q")
        err = norm(rep.solution - exact, "L2Q") / max(norm(exact, "L2Q"), 1e-300)
        report["metrics"]["oracle_rel_l2q_error"] = err
        t0 = time.time()
        _convergence(c.grid, s["convergence"], lambda gg: norm(
            solve_linear(gg, c.gamma, None, g=initial(gg), scheme=c.scheme).solution
            - _expr_field(gg, oracle, "Q"), "L2Q",
        ), report)
        elapsed = time.time() - t0
        report["metrics"]["convergence_runtime_s"] = elapsed
        _gate(report, "convergence_runtime_s", elapsed, "<", 10.0)
    return report


def run_dnmap(c, outdir):
    s = c.values["dnmap"]
    m = passive_map(c.grid, c.gamma, c.nl, _expr_field(c.grid, s["initial"]), s["portion"],
                    scheme=c.scheme)
    if s["noise"] > 0:
        m = add_noise(m, s["noise_model"], s["noise"], c.seed)
    save_measurement(m, outdir / "measurement.csv", outdir / "measurement.json")
    report = {"metrics": {"trace_l2": m.l2()}}

    if s["oracle_dn"]:
        e = Expression(s["oracle_dn"])

        def error(gg):
            mm = passive_map(gg, c.gamma, c.nl, _expr_field(gg, s["initial"]), s["portion"],
                             scheme=c.scheme)
            ref = np.array([e(t=t) for t in gg.times()])
            return float(np.max(np.abs(mm.values[:, 0] - ref)))

        _convergence(c.grid, s["convergence"], error, report)
    return report


def run_cgo_verify(c, outdir):
    s = c.values["cgo"]
    factory = CGOFactory(c.grid, _expr_field(c.grid, s["q"], "Q"), c.scheme)
    sweep = []
    for rho in s["rhos"]:
        sol = factory.build(CGOParameters.make(rho, s["omega"]))
        sweep.append({
            "rho": rho,
            "remainder_norm": sol.remainder_norm,
            "residual": sol.residual,
            "warnings": list(sol.warnings),
            "profile_peak": float(np.max(np.abs(sol.profile().values))),
        })
    norms = [r["remainder_norm"] for r in sweep]
    final_over_initial = norms[-1] / norms[0] if norms[0] else 0.0
    report = {"sweep": sweep, "metrics": {"final_over_initial": final_over_initial}}
    (outdir / "cgo_report.json").write_text(json.dumps(sweep, indent=2, sort_keys=True))

    _gate(report, "remainder_step_ratio", _step_ratio(norms), "<", 1.0)
    _gate(report, "final_over_initial", final_over_initial, "<", 0.5)
    unresolved = [r["rho"] for r in sweep if r["warnings"]]
    _gate(report, "resolved", not unresolved,
          note=f"boundary layer under-resolved at rho {unresolved}; decay not certified")
    return report


def run_linearize(c, outdir):
    s = c.values["linearize"]
    grid = c.grid
    setup = LinearizationSetup(grid, c.gamma, c.nl, _expr_field(grid, s["base_initial"]),
                               scheme=c.scheme)
    shapes = [
        probe_trace(grid, lambda x, k=shift: np.cos(k * x) + 1.5)
        for shift in (1.0, 2.0, 3.0)
    ]
    gaps_rows = []
    slopes = {}
    corner_solves = 0
    for order in range(1, s["max_order"] + 1):
        eps_sched = s[f"eps{order}"]
        res = higher_order(setup, shapes[:order], eps_sched)
        corner_solves += res.corner_solves
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
    for order, slope in slopes.items():
        name = f"|slope_order_{order} - 1|"
        if slope is None:
            _gate(report, name, False, note=f"order {order}: no measurable gap slope")
        else:
            _gate(report, name, abs(slope - 1.0), "<=", 0.2)
    return report


def run_recover_q(c, outdir):
    s = c.values["recover_q"]
    grid, scheme, mode = c.grid, c.scheme, s["mode"]
    dq = _expr_field(grid, s["truth_difference"], "Q")
    probes = synthesize_potential_probes(
        grid, dq, None, rho=s["rho"], n_tau=s["n_tau"], scheme=scheme, mode=mode
    )
    res = recover_potential(
        grid, probes, None, scheme=scheme, mode=mode,
        truth_difference=Field(grid, -dq.values, "Q"),
    )
    save_field_csv(res.recovered, outdir / "recovered_q_difference.csv")
    # zero-difference control case
    probes0 = synthesize_potential_probes(
        grid, dq, dq, rho=s["rho"], n_tau=1, scheme=scheme, mode=mode
    )
    res0 = recover_potential(grid, probes0, dq, scheme=scheme, mode=mode)
    zero_err = norm(res0.recovered, "L2Q") / max(norm(dq, "L2Q"), 1e-300)
    report = {"metrics": {"rel_l2q_error": res.truth_error, "zero_difference_error": zero_err,
                          "conjugate_symmetry_defect": res.residuals["conjugate_symmetry_defect"]},
              "regularization": res.regularization}
    _gate(report, "rel_l2q_error", res.truth_error, "<=", 0.20)
    _gate(report, "zero_difference_error", zero_err, "<=", 1e-6)
    return report


def run_recover_b(c, outdir):
    s = c.values["recover_b"]
    grid, scheme, order = c.grid, c.scheme, s["order"]
    nl_truth = Nonlinearity.parse(f"({s['coefficient']})*u^{order}")
    nl_ref = Nonlinearity.zero()
    pos = [positive_solution(grid, None, None, ramp_time=0.15 * grid.T, scheme=scheme)[0]]
    pos *= order - 1
    probes = synthesize_taylor_probes(
        grid, nl_truth, nl_ref, order, pos, rho=s["rho"], n_tau=s["n_tau"], scheme=scheme,
    )
    coefficient = _expr_field(grid, s["coefficient"], "Q").values
    truth = Field(grid, math.factorial(order) * coefficient, "Q")
    res = recover_taylor(
        grid, probes, nl_ref, order, pos, scheme=scheme, truth_difference=truth
    )
    save_field_csv(res.recovered, outdir / "recovered_taylor_difference.csv")
    report = {"metrics": {"rel_l2q_error": res.truth_error, "order": order},
              "regularization": res.regularization}
    _gate(report, "rel_l2q_error", res.truth_error, "<=", 0.25)
    return report


def run_recover_g(c, outdir):
    s = c.values["recover_g"]
    grid = c.grid
    truth = _expr_field(grid, s["truth"])
    data = passive_map(grid, c.gamma, c.nl, truth, s["portion"], scheme=c.scheme)
    noise_norm = 0.0
    if s["noise"] > 0:
        noisy = add_noise(data, "gaussian-relative", s["noise"], c.seed)
        noise_norm = DNMeasurement(grid, data.portion, noisy.values - data.values).l2()
        data = noisy
    res = recover_initial(
        grid, c.gamma, c.nl, data, noise_norm=noise_norm, scheme=c.scheme, truth=truth
    )
    save_field_csv(res.recovered, outdir / "recovered_initial.csv")
    report = {
        "converged": res.converged,
        "notes": res.notes,
        "metrics": {"rel_l2_error": res.truth_error, "data_misfit": res.residuals["data_misfit"]},
        "regularization": res.regularization,
    }
    _gate(report, "converged", res.converged,
          note=f"initial-data recovery did not converge: {'; '.join(res.notes)}")
    if s["noise"] == 0.0:
        _gate(report, "rel_l2_error", res.truth_error, "<=", 0.10)
    return report


def run_stability(c, outdir):
    s = c.values["stability"]
    deltas, trials = s["deltas"], s["trials"]
    curve = stability_curve(
        c.grid, c.gamma, c.nl, _expr_field(c.grid, s["truth"]), s["portion"], deltas,
        trials=trials, seed=c.seed, scheme=c.scheme,
    )
    rows = [
        {"delta": delta, "trial": trial, "error": err, "dn_diff_norm": mag}
        for (delta, trial), err, mag in zip(
            product(deltas, range(trials)), curve.errors, curve.magnitudes
        )
    ]
    two_term = curve.fit_two_term.get("residual", 0.0)
    linear = curve.fit_linear.get("residual", 0.0)
    means = [curve.mean_errors[d] for d in sorted(deltas, reverse=True)]
    rho_rank = _spearman(curve.magnitudes, curve.errors)
    report = {
        "converged": curve.converged,
        "trials": rows,
        "fits": {"two_term": curve.fit_two_term, "linear": curve.fit_linear},
        "metrics": {"two_term_residual": two_term, "linear_residual": linear,
                    "rank_correlation": rho_rank},
    }
    (outdir / "stability_report.json").write_text(
        json.dumps(curve.to_dict(), indent=2, sort_keys=True)
    )
    _gate(report, "converged", curve.converged,
          note="a trial's initial-data recovery did not converge")
    # mean errors may tie to 1e-9 relative, and the two-term fit may lose to
    # the linear one by 1e-12
    _gate(report, "mean_error_step_ratio", _step_ratio(means), "<=", 1.0,
          passed=all(b <= a * (1 + 1e-9) for a, b in zip(means, means[1:])))
    _gate(report, "rank_correlation", rho_rank, ">=", 0.9)
    _gate(report, "two_term_residual", two_term, "<=", linear, passed=two_term <= linear + 1e-12)
    return report


def _spearman(x, y) -> float:
    """Spearman rank correlation: the Pearson correlation of the ranks, tied
    values sharing the mean of their ranks."""
    ranks = []
    for v in (np.asarray(x, dtype=float), np.asarray(y, dtype=float)):
        s = np.sort(v)
        ranks.append((np.searchsorted(s, v, "left") + np.searchsorted(s, v, "right") + 1) / 2)
    return float(np.corrcoef(*ranks)[0, 1])


def run_carleman(c, outdir):
    s = c.values["carleman"]
    grid, gamma, portion = c.grid, c.gamma, s["portion"]

    def checks(g):
        """The weights on grid g and both inequality checks of the solution there."""
        u = _expr_field(g, s["solution"], "Q")
        F = Field(g, s["a"] * u.values, "Q")
        psi = Expression(s["psi"]) if s["psi"] else default_weight_base(g, portion.faces)
        weights = CarlemanConfig(psi, K=s["k"], t0=s["t0"], L=s["l"])
        return weights, carleman_check_1(u, F, weights, portion, gamma), carleman_check_2(
            u, F, weights, gamma
        )

    weights, rep1, rep2 = checks(grid)
    entries = [
        {**e, "check": 1} for e in rep1.entries
    ] + [{**e, "check": 2} for e in rep2.entries]
    report = {
        "entries": entries,
        "weight_conditions": weights.check_weight_conditions(
            grid, gamma, resolve_portion(grid, portion)
        ),
        "metrics": {"max_ratio_1": rep1.max_ratio(), "max_ratio_2": rep2.max_ratio()},
        "notes": rep1.notes + rep2.notes,
    }
    _gate(report, "ratios_finite", rep1.all_finite() and rep2.all_finite(),
          note="non-finite inequality ratio")
    # refinement stability on one halved grid
    _, rep1b, rep2b = checks(SpaceTimeGrid.make(
        grid.lower, grid.upper, [2 * (n - 1) + 1 for n in grid.nx], 2 * grid.nt, grid.T
    ))
    drift = 0.0
    for a, b in zip(rep1.entries + rep2.entries, rep1b.entries + rep2b.entries):
        if a["ratio"] > 0:
            drift = max(drift, abs(b["ratio"] - a["ratio"]) / a["ratio"])
    report["metrics"]["refinement_drift"] = drift
    _gate(report, "refinement_drift", drift, "<", 0.20)

    # weight-function slice along x at mid-time, for plotting
    x = grid.axis(0)
    psi_vals = np.broadcast_to(np.asarray(weights.psi(x=x), dtype=float), (grid.nx[0],))
    tmid = grid.T / 2
    tt = tmid**2 * (grid.T - tmid) ** 2
    mu = weights.mus[0]
    eta = (np.exp(mu * psi_vals) - math.exp(2 * mu * float(np.max(psi_vals)))) / tt
    with open(outdir / "weight_slices.csv", "w") as fh:
        fh.write("x,psi,eta_mid,theta1_sq_scaled\n")
        lam = weights.lambdas[0]
        scale = float(np.max(2 * lam * eta))
        for xi, pv, ev in zip(x, psi_vals, eta):
            fh.write(f"{float(xi)!r},{float(pv)!r},{float(ev)!r},"
                     f"{float(np.exp(2 * lam * ev - scale))!r}\n")
    return report


def run_maxprin(c, outdir):
    q = c.values["maxprin"]["q"]
    cert = max_principle_check(c.grid, c.gamma, q if q else None)
    report = {"metrics": {"interior_min": cert.interior_min,
                          "min_after_first_level": cert.min_after_first_level, "sup": cert.sup}}
    _gate(report, "undershoot", cert.undershoot, "<=", UNDERSHOOT_TOL)
    _gate(report, "min_after_first_level", cert.min_after_first_level, ">", 0.0)
    return report


def run_runge(c, outdir):
    s = c.values["runge"]
    grid, scheme, rho = c.grid, c.scheme, s["rho"]
    q = _expr_field(grid, s["q"], "Q")
    omega = [1.0] if grid.dim == 1 else [1.0, 0.0]
    sol = CGOFactory(grid, q, scheme).build(
        CGOParameters.make(rho, omega, tau=2 * math.pi / grid.T)
    )
    vals = sol.profile().values
    if grid.dim == 1:  # the target carries its carrier exp(rho x + rho^2 t) in 1D
        vals = np.exp(rho * grid.axis(0) + rho**2 * grid.level_times()) * vals
    target = Field(grid, vals.real / np.max(np.abs(vals.real)), "Q")
    prop = Propagator(grid, None, q, scheme)
    fits = []
    for mode, kw in (
        ("full", {}),
        ("partial", {"omega": omega, "region": RegionMask.subinterval(grid, 0.55, 1.0)}),
    ):
        for N in s["sizes"]:
            fit = runge_fit(grid, target, prop, n_basis=N, mode=mode, **kw)
            fits.append({"mode": mode, "n_basis": N, "gap": fit.gap})
    report = {"fits": fits, "metrics": {}}
    for mode in ("full", "partial"):
        gaps = [f["gap"] for f in fits if f["mode"] == mode]
        report["metrics"][f"gap_ratio_{mode}"] = gaps[-1] / gaps[0] if gaps[0] else 0.0
        _gate(report, f"{mode}_gap_step_ratio", _step_ratio(gaps), "<", 1.0)
    return report


def run_control(c, outdir):
    s = c.values["control"]
    grid, eps = c.grid, s["eps"]
    bt = BTStructure(Nonlinearity.zero(), Nonlinearity.parse(s["tail_nonlinearity"]), eps)
    res = null_control(
        grid, c.gamma, None, _expr_field(grid, s["initial"]), eps=eps,
        portion=resolve_portion(grid, s["portion"]), n_time=s["n_time"], scheme=c.scheme, bt=bt,
    )
    converged = res.continuation.get("converged", True)
    reduction = res.uncontrolled_norm / max(res.terminal_norm, 1e-300)
    tail_sup = res.continuation.get("sup_norm_over_tail", 0.0)
    report = {
        "converged": converged,
        "terminal_history": res.terminal_history,
        "metrics": {
            "uncontrolled_norm": res.uncontrolled_norm,
            "terminal_norm": res.terminal_norm,
            "reduction_factor": reduction,
            "tail_sup_norm": tail_sup,
        },
        "notes": res.notes,
    }
    _gate(report, "reduction_factor", reduction, ">=", 100.0)
    _gate(report, "tail_sup_norm", tail_sup, "<=", 10 * res.terminal_norm)
    _gate(report, "converged", converged, note="free continuation did not converge: "
          + "; ".join(res.continuation.get("warnings", ())))
    return report


def run_nonunique(c, outdir):
    demo = nonuniqueness_demo(c.grid, c.gamma, collar=c.values["nonunique"]["collar"])
    save_field_csv(demo.g1, outdir / "g1.csv")
    save_field_csv(demo.g2, outdir / "g2.csv")
    report = {"metrics": {"g_gap_l2": demo.g_gap, "trace_sup": demo.trace_sup,
                          "sup_fields": demo.sup_fields}}
    _gate(report, "g_gap_l2", demo.g_gap, ">=", 0.1)
    _gate(report, "trace_sup", demo.trace_sup, "<=", 1e-8 * (1 + demo.sup_fields))
    return report


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


def _plain(value):
    """JSON form of the one resolved value type json cannot encode: a
    BoundaryPortion, as its face names or "full"."""
    return list(value.faces) or value.kind


def run(kind: str, config_path, out_dir=None, check: bool = False, jobs: int = 1) -> int:
    """Execute one experiment; returns the process exit code.  jobs is
    recorded in the manifest and changes nothing else."""
    t_start = time.time()
    outdir = out_dir
    try:
        if kind not in RUNNERS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        c = load_config(config_path, kind)
        outdir = Path(out_dir if out_dir else c.values["output"]["dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        report = RUNNERS[kind](c, outdir)
    except (ConfigError, configparser.Error, ExprError, GridError, ModelError, AnalysisError,
            CGOError) as exc:
        _write_error(outdir, kind, exc, EXIT_PARSE)
        return EXIT_PARSE
    except (SolverError, RuntimeError, np.linalg.LinAlgError) as exc:
        _write_error(outdir, kind, exc, EXIT_SOLVER)
        return EXIT_SOLVER

    failures = [g["failure"] for g in report.setdefault("gates", {}).values() if not g["passed"]]
    manifest = {
        "kind": kind,
        "version": __version__,
        "seed": c.seed,
        "config": c.values,
        "check": check,
        "jobs": jobs,
        "wall_time_s": time.time() - t_start,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=_plain)
    )
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
    if isinstance(exc, ConfigError):
        payload.update(section=exc.section, key=exc.key, line=exc.line)
    if getattr(exc, "offset", None) is not None:  # ParseError, or a ConfigError wrapping one
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
    parser.add_argument("--jobs", type=int, default=1,
                        help="recorded in the manifest; every sweep runs in one thread")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    return run(args.kind, args.config, args.out, args.check, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
