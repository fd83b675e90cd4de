"""Run one pipl job in this fresh process and write what it measured.

    python3 perfbench/child.py '<spec json>'

The spec names the job, the checkout root, an output directory, a result
path and, for a traced job, a span path.  The result holds the import
(setup) time, the in-process run time, the exit code, the peak RSS, the
bytes the job wrote and its gate ratios: each checked quantity divided by
its acceptance threshold, so 1.0 is the edge of passing.  With
"import_only" the child imports the job's entry module and runs nothing.

An untraced child also samples the speed of its CPU while it works (see
SpeedProbe), so that the parent can scale its times to a fixed host speed.
"""

from __future__ import annotations

import json
import pathlib
import resource
import signal
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent

# CLI jobs run the shipped config under --check; the 2D probe runs the
# public API at the size of the 2D temporal-truth recovery test.
CLI_JOBS = ("recover-q", "recover-b", "cgo-verify", "runge", "stability", "recover-g",
            "control", "linearize")
API_JOBS = ("potential-2d",)

PROBE_INTERVAL_S = 0.02
PROBE_TABLE = {i: float(i) for i in range(4096)}


class SpeedProbe:
    """Times a fixed piece of interpreter work every PROBE_INTERVAL_S of
    wall time: 2048 dict lookups and float products, and a list of 800 new
    floats.

    The host shares its cores with other machines, and the speed of this
    process swings by a third or more within seconds.  The probe runs in
    this process, on whichever CPU runs the job at that moment, and the
    job's time follows the probe's time (README.md has the fit).  The
    signal handler runs between bytecodes, so a long call into C delays a
    sample but does not lose the time it took.
    """

    def __init__(self):
        self.samples = []  # (start, duration) in perf_counter seconds

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        s = 0.0
        for k in range(0, 4096, 2):
            s += PROBE_TABLE[k] * PROBE_TABLE[k + 1]
        [float(i) for i in range(800)]
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, t0, t1):
        """Mean probe time and the summed probe time of samples in [t0, t1)."""
        inside = [d for start, d in self.samples if t0 <= start < t1]
        if not inside:
            return None, 0.0
        return sum(inside) / len(inside), sum(inside)


def _import(job):
    if job in API_JOBS:
        import pipl.grid  # noqa: F401
        import pipl.recon  # noqa: F401
    else:
        import pipl.cli  # noqa: F401


def _run_cli(job, root, out):
    from pipl import cli

    argv = [job, "--config", str(root / "configs" / f"{job}.ini"), "--check", "--jobs", "1",
            "--out", str(out)]
    return cli.main(argv), {}


def _run_potential_2d(root, out):
    import numpy as np

    from pipl.grid import Field, SpaceTimeGrid, field_from_function
    from pipl.recon import recover_potential, synthesize_potential_probes

    g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [33, 33], 64, 1.0)
    dq = field_from_function(
        g, lambda x, y, t: 0 * x + 0 * y + np.exp(-25 * (t - 0.5) ** 2), "Q"
    )
    probes = synthesize_potential_probes(g, dq, None, rho=16.0, n_xi=1, n_tau=2)
    res = recover_potential(g, probes, None, truth_difference=Field(g, -dq.values, "Q"))
    return 0, {"truth_error": res.truth_error, "probes": len(probes)}


def _max_step_ratio(values):
    """Largest ratio of consecutive values; below 1 means strictly decreasing."""
    return max(b / a for a, b in zip(values, values[1:]))


def gate_ratios(job, out, extra):
    """Checked quantity over its threshold for each gate of the job."""
    if job == "potential-2d":
        if extra["probes"] != 30:  # 2 omegas x 3 xi x 5 tau
            raise ValueError(f"expected 30 probes, got {extra['probes']}")
        return {"truth_error/0.30": extra["truth_error"] / 0.30}
    report = json.loads((out / "report.json").read_text())
    m = report.get("metrics", {})
    if job == "recover-q":
        return {"rel_l2q_error/0.20": m["rel_l2q_error"] / 0.20,
                "zero_difference_error/1e-6": m["zero_difference_error"] / 1e-6}
    if job == "recover-b":
        return {"rel_l2q_error/0.25": m["rel_l2q_error"] / 0.25}
    if job == "cgo-verify":
        norms = [s["remainder_norm"] for s in report["sweep"]]
        return {"final_over_initial/0.5": m["final_over_initial"] / 0.5,
                "remainder_step_ratio/1": _max_step_ratio(norms)}
    if job == "runge":
        ratios = {}
        for mode in ("full", "partial"):
            gaps = [f["gap"] for f in report["fits"] if f["mode"] == mode]
            ratios[f"{mode}_gap_step_ratio/1"] = _max_step_ratio(gaps)
        return ratios
    if job == "stability":
        curve = json.loads((out / "stability_report.json").read_text())
        means = [curve["mean_errors"][k]
                 for k in sorted(curve["mean_errors"], key=float, reverse=True)]
        return {"0.9/rank_correlation": 0.9 / m["rank_correlation"],
                "two_term/linear_residual": m["two_term_residual"] / m["linear_residual"],
                "mean_error_step_ratio/1": max(b / a for a, b in zip(means, means[1:]))}
    if job == "recover-g":
        return {"rel_l2_error/0.10": m["rel_l2_error"] / 0.10}
    if job == "control":
        return {"100/reduction_factor": 100.0 / m["reduction_factor"],
                "tail_sup/(10*terminal)": m["tail_sup_norm"] / (10 * m["terminal_norm"])}
    if job == "linearize":
        return {f"|slope_{k}-1|/0.2": abs(v - 1.0) / 0.2 for k, v in report["slopes"].items()}
    raise ValueError(f"no gates for job {job!r}")


def output_bytes(out):
    """Bytes the job left in its output directory.  manifest.json is left
    out: its wall_time_s field changes length from run to run."""
    return sum(p.stat().st_size for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.json")


def main():
    spec = json.loads(sys.argv[1])
    root = pathlib.Path(spec["root"])
    out = pathlib.Path(spec["out"])
    job = spec["job"]
    sys.path.insert(0, str(root / "src"))
    probe = None if spec.get("spans") else SpeedProbe()
    if probe is not None:
        probe.start()

    t0 = time.perf_counter()
    _import(job)
    t1 = time.perf_counter()
    result = {"job": job, "setup_s": t1 - t0, "run_s": 0.0, "exit_code": 0, "error": None,
              "gates": {}, "output_bytes": 0}
    phases = {"setup": (t0, t1)}

    if not spec.get("import_only"):
        tracer = None
        if spec.get("spans"):
            sys.path.insert(0, str(HERE))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        extra = {}
        t2 = time.perf_counter()
        dispatch = _dispatch if tracer is None else tracer.wrap("job", _dispatch)
        try:
            code, extra = dispatch(job, root, out)
        except Exception:  # the job boundary: record the failure, keep the timing
            code = 1
            result["error"] = traceback.format_exc(limit=5)
        t3 = time.perf_counter()
        result["run_s"] = t3 - t2
        phases["run"] = (t2, t3)
        result["exit_code"] = code
        if tracer is not None:
            tracer.dump(spec["spans"])
        try:  # a CLI job that failed its check still wrote report.json
            result["gates"] = gate_ratios(job, out, extra)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            if code == 0:
                result["error"] = f"gate quantities unreadable: {exc!r}"
        result["output_bytes"] = output_bytes(out) if out.exists() else 0

    if probe is not None:
        probe.stop()
        # For each phase: the mean probe time, by which the parent scales the
        # phase's time, and the time spent in the probe, taken out of it.
        phases["child"] = (0.0, time.perf_counter())
        for phase, (a, b) in phases.items():
            result[f"{phase}_probe_mean_s"], result[f"{phase}_probe_sum_s"] = probe.between(a, b)
        result["setup_s"] -= result["setup_probe_sum_s"]
        result["run_s"] -= result.get("run_probe_sum_s", 0.0)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pathlib.Path(spec["result"]).write_text(json.dumps(result))
    return 0


def _dispatch(job, root, out):
    if job in CLI_JOBS:
        return _run_cli(job, root, out)
    if job == "potential-2d":
        return _run_potential_2d(root, out)
    raise ValueError(f"unknown job {job!r}")


if __name__ == "__main__":
    sys.exit(main())
