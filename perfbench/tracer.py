"""Outside-in tracer for pipl.

The tracer wraps public entry points of the ``pipl`` modules at run time,
without editing their source:

* methods are replaced on their class;
* module functions are rebound in every ``pipl.*`` namespace that holds the
  same function object (``from .forward import solve_linear`` makes a second
  binding that must be replaced too);
* ``scipy.sparse.linalg.splu`` and ``spsolve`` are wrapped as the LU layer
  under ``forward``.

Each call records a span ``[name, parent, start, end, info]`` in memory; the
spans are written out once, when the job ends.  ``per_function`` turns a
span list into per-function calls, total and self time (span minus its
direct children, which never overlap in single-threaded code), and
``layer_metrics`` derives the benchmark's per-layer metrics from that table.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import pathlib
import sys
import time

import numpy as np


def _fingerprint(value):
    """Stable key of a build input: array contents by digest, the rest by repr."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"nd{value.shape}{value.dtype.str}:{digest}"
    if isinstance(getattr(value, "values", None), np.ndarray):  # pipl Field
        return _fingerprint(value.values)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_fingerprint(v) for v in value) + ")"
    return repr(value)


# Span info: each function takes (args, kwargs, result) of a wrapped call and
# returns counts to sum per span name; a "key" entry is counted as distinct.


def _build_info(args, kwargs, result):
    bound = inspect.signature(type(args[0]).__init__).bind(*args, **kwargs)
    bound.apply_defaults()
    key = {k: v for k, v in bound.arguments.items() if k != "self"}
    return {"key": hashlib.sha1(_fingerprint(tuple(key.items())).encode()).hexdigest()}


def _factorize_info(args, kwargs, result):
    return {"nnz": int(result.L.nnz + result.U.nnz)}


def _sweep_info(args, kwargs, result):
    """Right-hand-side columns of one forward or adjoint sweep (a complex
    column counts once) and columns times time steps.  result[0] is the first
    level of a forward sweep, or the initial-data gradient of an adjoint one."""
    prop = args[0]
    columns = int(np.size(result[0]) // prop.grid.n_space)
    return {"columns": columns, "column_steps": columns * prop.grid.nt}


def _iterations_info(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _semilinear_info(args, kwargs, result):
    return {"unconverged": 0 if result.converged else 1}


def _cgo_info(args, kwargs, result):
    factory = args[0]
    params = args[1] if len(args) > 1 else kwargs["params"]
    if params.direction != "backward":
        return {"backward": 0}
    key = _fingerprint((params.rho, params.omega, factory.q_levels))
    return {"backward": 1, "key": hashlib.sha1(key.encode()).hexdigest()}


def _synthesize_info(args, kwargs, result):
    return {"samples": len(args[0].samples)}


def _write_info(args, kwargs, result):
    return {"bytes": len(args[1]) if len(args) > 1 else len(kwargs["data"])}


# What gets wrapped: (span name, module, attribute path, info or None).
TARGETS = (
    ("grid.meshes", "pipl.grid", "SpaceTimeGrid.meshes", None),
    ("grid.save_field_csv", "pipl.grid", "save_field_csv", None),
    ("expr.eval", "pipl.expr", "Expression.__call__", None),
    ("model.freeze_quotient", "pipl.model", "freeze_quotient", None),
    ("model.taylor_table", "pipl.model", "taylor_table", None),
    ("forward.build", "pipl.forward", "Propagator.__init__", _build_info),
    ("forward.assemble", "pipl.forward", "assemble_operator", None),
    ("forward.factorize", "scipy.sparse.linalg", "splu", _factorize_info),
    ("forward.spsolve", "scipy.sparse.linalg", "spsolve", None),
    ("forward.run", "pipl.forward", "Propagator.run", _sweep_info),
    ("forward.adjoint", "pipl.forward", "Propagator.adjoint", _sweep_info),
    ("forward.solve_linear", "pipl.forward", "solve_linear", None),
    ("forward.solve_backward", "pipl.forward", "solve_backward", None),
    ("forward.semilinear", "pipl.forward", "solve_semilinear", _semilinear_info),
    ("forward.newton", "pipl.forward", "_newton", _iterations_info),
    ("forward.picard", "pipl.forward", "_picard", _iterations_info),
    ("dnmap.measure", "pipl.dnmap", "measure", None),
    ("dnmap.passive_map", "pipl.dnmap", "passive_map", None),
    ("dnmap.normal_derivative_matrix", "pipl.dnmap", "normal_derivative_matrix", None),
    ("dnmap.add_noise", "pipl.dnmap", "add_noise", None),
    ("dnmap.save_measurement", "pipl.dnmap", "save_measurement", None),
    ("cgo.build", "pipl.cgo", "CGOFactory.build", _cgo_info),
    ("cgo.phase", "pipl.cgo", "phase", None),
    ("linearize.higher_order", "pipl.linearize", "higher_order", None),
    ("linearize.direct_fields", "pipl.linearize", "_direct_mixed_fields", None),
    ("linearize.solve_probe", "pipl.linearize", "LinearizationSetup.solve_probe", None),
    ("fourier.synthesize", "pipl.recon.fourier", "FourierSampleSet.synthesize", _synthesize_info),
    ("potential.synthesize_potential_probes", "pipl.recon.potential",
     "synthesize_potential_probes", None),
    ("potential.synthesize_taylor_probes", "pipl.recon.potential",
     "synthesize_taylor_probes", None),
    ("potential.assemble_samples", "pipl.recon.potential", "assemble_samples", None),
    ("potential.recover_potential", "pipl.recon.potential", "recover_potential", None),
    ("potential.recover_taylor", "pipl.recon.potential", "recover_taylor", None),
    ("potential.positive_solution", "pipl.recon.potential", "positive_solution", None),
    ("initial.recover", "pipl.recon.initial", "recover_initial", None),
    ("initial.stability_curve", "pipl.recon.initial", "stability_curve", None),
    ("initial.tikhonov_solve", "pipl.recon.initial", "_cg", None),
    ("initial.discrepancy", "pipl.recon.initial", "_discrepancy", None),
    ("initial.map_forward", "pipl.recon.initial", "InitialDataMap.forward", None),
    ("initial.map_adjoint", "pipl.recon.initial", "InitialDataMap.adjoint", None),
    ("initial.operator_scale", "pipl.recon.initial", "InitialDataMap.operator_scale", None),
    ("control.null_control", "pipl.recon.control", "null_control", None),
    ("control.basis", "pipl.recon.control", "control_basis", None),
    ("runge.fit", "pipl.recon.runge", "runge_fit", None),
    ("runge.basis", "pipl.recon.runge", "runge_basis", None),
    ("cli.emit_plotdata", "pipl.cli", "emit_plotdata", None),
    ("cli.write_text", "pathlib", "Path.write_text", _write_info),
)

# spans whose self time is the CLI's output cost
OUTPUT_SPANS = ("cli.emit_plotdata", "cli.write_text", "grid.save_field_csv",
                "dnmap.save_measurement")


class Tracer:
    """Records spans of the wrapped entry points of one process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, info=None):
        """fn wrapped so that each call records a span under name."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; missing ones are listed, not fatal,
        so the tracer keeps working while the code under it is refactored."""
        for name, module_name, path, info in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, info)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is module or mod_name == "pipl" or mod_name.startswith("pipl."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def dump(self, path):
        pathlib.Path(path).write_text(json.dumps({"spans": self.spans, "missing": self.missing}))


def per_function(spans):
    """{name: {"calls", "total_s", "self_s", "unique", <summed info counts>}}
    for the spans of one process; "unique" counts distinct info keys."""
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    table, keys = {}, {}
    for i, (name, parent, t0, t1, info) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time[i]
        for k, v in (info or {}).items():
            if k == "key":
                keys.setdefault(name, set()).add(v)
            else:
                row[k] = row.get(k, 0) + v
    for name, row in table.items():
        row["unique"] = len(keys.get(name, ()))
    return table


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, better).  Counts repeat exactly between
# runs of the same code; times are self times unless the name says "per",
# which uses the inclusive span time per unit of work.
LAYER_METRICS = (
    ("forward.build.calls", "count", "lower"),
    ("forward.build.self_s", "s", "lower"),
    ("forward.build.unique_ratio", "ratio", "higher"),
    ("forward.assemble.calls", "count", "lower"),
    ("forward.assemble.self_s", "s", "lower"),
    ("forward.factorizations", "count", "lower"),
    ("forward.factorize.self_s", "s", "lower"),
    ("forward.lu_nnz", "count", "lower"),
    ("forward.run.calls", "count", "lower"),
    ("forward.run.columns", "count", "lower"),
    ("forward.run.self_s", "s", "lower"),
    ("forward.run.us_per_column_step", "us", "lower"),
    ("forward.adjoint.calls", "count", "lower"),
    ("forward.adjoint.columns", "count", "lower"),
    ("forward.adjoint.self_s", "s", "lower"),
    ("forward.adjoint.us_per_column_step", "us", "lower"),
    ("forward.newton.solves", "count", "lower"),
    ("forward.newton.iterations", "count", "lower"),
    ("forward.newton.self_s", "s", "lower"),
    ("forward.newton.ms_per_iteration", "ms", "lower"),
    ("forward.spsolve.calls", "count", "lower"),
    ("forward.spsolve.self_s", "s", "lower"),
    ("forward.picard.solves", "count", "lower"),
    ("forward.picard.iterations", "count", "lower"),
    ("forward.picard.self_s", "s", "lower"),
    ("forward.semilinear.unconverged", "count", "lower"),
    ("model.freeze_quotient.calls", "count", "lower"),
    ("model.freeze_quotient.self_s", "s", "lower"),
    ("cgo.build.calls", "count", "lower"),
    ("cgo.build.backward_calls", "count", "lower"),
    ("cgo.build.backward_unique_ratio", "ratio", "higher"),
    ("cgo.build.self_s", "s", "lower"),
    ("cgo.build.ms_per_probe", "ms", "lower"),
    ("fourier.synthesize.calls", "count", "lower"),
    ("fourier.synthesize.samples", "count", "lower"),
    ("fourier.synthesize.self_s", "s", "lower"),
    ("potential.synthesize_probes.self_s", "s", "lower"),
    ("potential.assemble_samples.self_s", "s", "lower"),
    ("potential.recover.self_s", "s", "lower"),
    ("initial.recover.calls", "count", "lower"),
    ("initial.recover.self_s", "s", "lower"),
    ("initial.alpha_trials", "count", "lower"),
    ("initial.map_applications", "count", "lower"),
    ("initial.ms_per_tikhonov_solve", "ms", "lower"),
    ("control.null_control.self_s", "s", "lower"),
    ("dnmap.measure.calls", "count", "lower"),
    ("dnmap.measure.self_s", "s", "lower"),
    ("runge.fit.calls", "count", "lower"),
    ("runge.fit.self_s", "s", "lower"),
    ("linearize.corner_solves", "count", "lower"),
    ("linearize.higher_order.self_s", "s", "lower"),
    ("grid.meshes.calls", "count", "lower"),
    ("grid.meshes.self_s", "s", "lower"),
    ("expr.eval.calls", "count", "lower"),
    ("expr.eval.self_s", "s", "lower"),
    ("cli.output.bytes", "B", "lower"),
    ("cli.output.s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

COUNT_UNITS = ("count", "ratio", "B")


def layer_metrics(table, output_bytes):
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""

    def get(name, key="calls"):
        return table.get(name, {}).get(key, 0)

    def unique(name, calls):
        return _ratio(get(name, "unique"), calls)

    m = {
        "forward.build.calls": get("forward.build"),
        "forward.build.self_s": get("forward.build", "self_s"),
        "forward.build.unique_ratio": unique("forward.build", get("forward.build")),
        "forward.assemble.calls": get("forward.assemble"),
        "forward.assemble.self_s": get("forward.assemble", "self_s"),
        "forward.factorizations": get("forward.factorize"),
        "forward.factorize.self_s": get("forward.factorize", "self_s"),
        "forward.lu_nnz": get("forward.factorize", "nnz"),
        "forward.run.calls": get("forward.run"),
        "forward.run.columns": get("forward.run", "columns"),
        "forward.run.self_s": get("forward.run", "self_s"),
        "forward.run.us_per_column_step": 1e6 * _ratio(get("forward.run", "total_s"),
                                                       get("forward.run", "column_steps")),
        "forward.adjoint.calls": get("forward.adjoint"),
        "forward.adjoint.columns": get("forward.adjoint", "columns"),
        "forward.adjoint.self_s": get("forward.adjoint", "self_s"),
        "forward.adjoint.us_per_column_step": 1e6 * _ratio(get("forward.adjoint", "total_s"),
                                                           get("forward.adjoint", "column_steps")),
        "forward.newton.solves": get("forward.newton"),
        "forward.newton.iterations": get("forward.newton", "iterations"),
        "forward.newton.self_s": get("forward.newton", "self_s"),
        "forward.newton.ms_per_iteration": 1e3 * _ratio(get("forward.newton", "total_s"),
                                                        get("forward.newton", "iterations")),
        "forward.spsolve.calls": get("forward.spsolve"),
        "forward.spsolve.self_s": get("forward.spsolve", "self_s"),
        "forward.picard.solves": get("forward.picard"),
        "forward.picard.iterations": get("forward.picard", "iterations"),
        "forward.picard.self_s": get("forward.picard", "self_s"),
        "forward.semilinear.unconverged": get("forward.semilinear", "unconverged"),
        "model.freeze_quotient.calls": get("model.freeze_quotient"),
        "model.freeze_quotient.self_s": get("model.freeze_quotient", "self_s"),
        "cgo.build.calls": get("cgo.build"),
        "cgo.build.backward_calls": get("cgo.build", "backward"),
        "cgo.build.backward_unique_ratio": unique("cgo.build", get("cgo.build", "backward")),
        "cgo.build.self_s": get("cgo.build", "self_s"),
        "cgo.build.ms_per_probe": 1e3 * _ratio(get("cgo.build", "total_s"), get("cgo.build")),
        "fourier.synthesize.calls": get("fourier.synthesize"),
        "fourier.synthesize.samples": get("fourier.synthesize", "samples"),
        "fourier.synthesize.self_s": get("fourier.synthesize", "self_s"),
        "potential.synthesize_probes.self_s": (
            get("potential.synthesize_potential_probes", "self_s")
            + get("potential.synthesize_taylor_probes", "self_s")),
        "potential.assemble_samples.self_s": get("potential.assemble_samples", "self_s"),
        "potential.recover.self_s": (get("potential.recover_potential", "self_s")
                                     + get("potential.recover_taylor", "self_s")),
        "initial.recover.calls": get("initial.recover"),
        "initial.recover.self_s": get("initial.recover", "self_s"),
        "initial.alpha_trials": get("initial.tikhonov_solve"),
        "initial.map_applications": get("initial.map_forward") + get("initial.map_adjoint"),
        "initial.ms_per_tikhonov_solve": 1e3 * _ratio(get("initial.tikhonov_solve", "total_s"),
                                                      get("initial.tikhonov_solve")),
        "control.null_control.self_s": get("control.null_control", "self_s"),
        "dnmap.measure.calls": get("dnmap.measure"),
        "dnmap.measure.self_s": get("dnmap.measure", "self_s"),
        "runge.fit.calls": get("runge.fit"),
        "runge.fit.self_s": get("runge.fit", "self_s"),
        "linearize.corner_solves": get("linearize.solve_probe"),
        "linearize.higher_order.self_s": get("linearize.higher_order", "self_s"),
        "grid.meshes.calls": get("grid.meshes"),
        "grid.meshes.self_s": get("grid.meshes", "self_s"),
        "expr.eval.calls": get("expr.eval"),
        "expr.eval.self_s": get("expr.eval", "self_s"),
        "cli.output.bytes": output_bytes,
        "cli.output.s": sum(get(n, "self_s") for n in OUTPUT_SPANS),
        "trace.spans": sum(row["calls"] for row in table.values()),
    }
    return m


def merge_tables(tables):
    """Sum per-function tables of the jobs of one pass."""
    out = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {})
            for k, v in row.items():
                acc[k] = acc.get(k, 0) + v
    return out
