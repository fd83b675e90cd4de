"""pipl benchmark: real experiments as fresh processes, one at a time.

    python3 perfbench/run.py --workload probe-2d --seed 3 --seconds 20 --trace 0

Run from the root of a pipl checkout.  Each job of the workload runs in a
fresh child process (a closed loop with one client), with ``--jobs 1`` and
BLAS/OpenMP threads pinned to 1.  Every job runs its shipped inputs: the
seed is recorded with the result but not passed on as ``PIPL_SEED``, because
the stability gate fails for some noise seeds (README.md has the scan).
Passes over the workload's jobs repeat while the next one fits in
``--seconds`` (at least two).  See README.md in this directory for the
workloads, the metrics and how each layer maps to them.

The host's speed swings by a third or more within seconds, so the
end-to-end times are scaled to a fixed host speed: each untraced child
times a fixed piece of work every 20 ms (child.SpeedProbe), and a phase's
time is multiplied by REFERENCE_PROBE_S over the phase's mean probe time.
The raw times are printed beside them.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of traced passes, the
overhead against an untraced pass, and fails the run if two traced passes
disagree on any count.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import (  # noqa: E402
    COUNT_UNITS, LAYER_METRICS, layer_metrics, merge_tables, per_function)

WORKLOADS = {
    "probe-1d": ("recover-q", "recover-b", "cgo-verify", "runge"),
    "probe-2d": ("potential-2d",),
    "tikhonov-1d": ("stability", "recover-g", "control"),
    "newton-1d": ("linearize",),
}

END_TO_END = (
    ("wall_s", "s"),
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gate_ratio_max", "ratio"),
)

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 2
IMPORT_SAMPLES = 3        # import-only children per run, on top of one per job
JOB_TIMEOUT_S = 50.0      # a healthy job takes under 10 s
RUN_LIMIT_S = 120.0       # no pass starts that could end past this, whatever the minimum
HARD_LIMIT_S = 165.0      # children still running this long after the start are killed
# The speed probe's time at the reference speed, about its median on the
# 2-vCPU Xeon VM the benchmark was written on (README.md).
REFERENCE_PROBE_S = 450e-6


def at_reference_speed(seconds, probe_s):
    """Seconds scaled to the reference speed, given the mean probe time
    measured while they passed (None when the child sent no samples)."""
    if seconds is None or probe_s is None:
        return seconds
    return seconds * REFERENCE_PROBE_S / probe_s


def git_sha(root):
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root, args):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs jobs as child processes inside a scratch directory."""

    def __init__(self, root, work, deadline):
        self.root, self.work, self.deadline = root, work, deadline
        # Children see neither a seed override nor a ban on bytecode caching:
        # every job runs its shipped config, and imports use .pyc files the
        # way an installed pipl does.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PIPL_SEED", "PYTHONDONTWRITEBYTECODE")}
        self.env.update(THREAD_PINS)
        self.count = 0

    def job(self, job, trace=False, import_only=False):
        self.count += 1
        tag = f"{self.count:04d}-{job}"
        spec = {
            "job": job,
            "root": str(self.root),
            "out": str(self.work / tag),
            "result": str(self.work / f"{tag}.result.json"),
            "spans": str(self.work / f"{tag}.spans.json") if trace else None,
            "import_only": import_only,
        }
        t0 = time.perf_counter()
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired("child.py", 0)
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                env=self.env, cwd=self.work, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
            status, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            status, stderr = "timeout", str(exc)
        wall = time.perf_counter() - t0
        try:
            result = json.loads(pathlib.Path(spec["result"]).read_text())
        except (OSError, ValueError):
            result = {"job": job, "setup_s": None, "run_s": wall, "exit_code": status,
                      "error": stderr[-2000:], "gates": {}, "rss_mb": 0.0, "output_bytes": 0}
        result["wall_s"] = wall - result.get("child_probe_sum_s", 0.0)
        for key, phase in (("wall", "child"), ("setup", "setup"), ("run", "run")):
            result[f"{key}_ref_s"] = at_reference_speed(result[f"{key}_s"],
                                                        result.get(f"{phase}_probe_mean_s"))
        result["ok"] = (status == 0 and result["exit_code"] == 0 and not result["error"]
                        and all(v <= 1.0 for v in result["gates"].values()))
        if trace and result["ok"]:
            spans = json.loads(pathlib.Path(spec["spans"]).read_text())
            result["table"] = per_function(spans["spans"])
            result["missing"] = spans["missing"]
        shutil.rmtree(spec["out"], ignore_errors=True)
        return result

    def run_pass(self, jobs, trace=False):
        return [self.job(j, trace) for j in jobs]


def passes_until(seconds, run_one, min_passes):
    """Run passes while the next one is expected to end within the budget."""
    start = time.monotonic()
    done = []
    while True:
        t0 = time.monotonic()
        done.append(run_one(len(done)))
        last = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + last > RUN_LIMIT_S or (len(done) >= min_passes and elapsed + last > seconds):
            return done


def per_job_median(passes, key):
    """Sum over jobs of the job's median over passes."""
    return sum(statistics.median(p[i][key] for p in passes) for i in range(len(passes[0])))


def end_to_end(passes, imports):
    results = [r for p in passes for r in p]
    setups = [r["setup_ref_s"] for r in results + imports if r["setup_ref_s"] is not None]
    gates = [v for r in results for v in r["gates"].values()]
    return {
        "wall_s": per_job_median(passes, "wall_ref_s"),
        "run_s": per_job_median(passes, "run_ref_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in results + imports),
        "gate_ratio_max": max(gates, default=0.0),  # no gates only when every job failed
    }


def print_failures(results):
    for r in results:
        if not r["ok"]:
            print(f"# FAILED {r['job']}: exit {r['exit_code']}, gates {r['gates']}, "
                  f"error {r['error']}")


def measure(runner, jobs, args):
    imports = [runner.job(jobs[0], import_only=True) for _ in range(IMPORT_SAMPLES)]
    passes = passes_until(args.seconds, lambda i: runner.run_pass(jobs), MIN_PASSES)
    results = [r for p in passes for r in p]
    failed = sum(not r["ok"] for r in results)
    metrics = end_to_end(passes, imports)
    print_failures(results)
    print(f"# {len(passes)} passes of {len(jobs)} job(s); setup_s over "
          f"{len(results) + len(imports)} imports")
    for key in ("wall_s", "wall_ref_s", "run_s", "run_ref_s"):
        print(f"# per pass {key}: " + " ".join(f"{sum(r[key] for r in p):.4f}" for p in passes))
    speeds = [REFERENCE_PROBE_S / r["child_probe_mean_s"] for r in results + imports
              if r.get("child_probe_mean_s")]
    if speeds:
        print(f"# host speed over reference speed, per child: median "
              f"{statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
    raw = {"wall_s": per_job_median(passes, "wall_s"), "run_s": per_job_median(passes, "run_s"),
           "setup_s": statistics.median(r["setup_s"] for r in results + imports
                                        if r["setup_s"] is not None)}
    for key, value in raw.items():
        print(f"# {key + ' raw':<16} {value:.6g} s (not scaled to the reference speed)")
    for name, unit in END_TO_END:
        print(f"# {name:<16} {metrics[name]:.6g} {unit}")
    print(f"# {'fail_frac':<16} {failed / len(results):.6g} 1 ({failed} of {len(results)} jobs)")
    for i, job in enumerate(jobs):
        gates = passes[0][i]["gates"]
        print(f"# gates {job}: " + ", ".join(f"{k}={v:.4g}" for k, v in gates.items()))
    units = dict(END_TO_END)
    return failed == 0, len(results), failed, {
        name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}


def measure_traced(runner, jobs, args):
    """Untraced pass, two traced passes, then traced/untraced pairs while
    time allows.  Counts must agree exactly across traced passes."""
    plain, traced = [], []

    def one(i):
        if i in (1, 2) or (i > 2 and i % 2 == 0):
            traced.append(runner.run_pass(jobs, trace=True))
        else:
            plain.append(runner.run_pass(jobs))

    passes_until(args.seconds, one, 3)
    results = [r for p in plain + traced for r in p]
    failed = sum(not r["ok"] for r in results)
    print_failures(results)
    per_pass = []
    if failed == 0 and plain and len(traced) >= 2:
        for p in traced:
            table = merge_tables([r["table"] for r in p])
            per_pass.append(layer_metrics(table, sum(r["output_bytes"] for r in p)))
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    deterministic = True
    for name in units:
        if name == "trace.overhead_s" or not per_pass or units[name] not in COUNT_UNITS:
            continue
        values = {p[name] for p in per_pass}
        if len(values) > 1:
            deterministic = False
            print(f"# NONDETERMINISTIC {name}: {sorted(values)}")
    metrics = {}
    if per_pass:
        for name in units:
            if units[name] in COUNT_UNITS:
                metrics[name] = per_pass[0][name]
            elif name != "trace.overhead_s":
                metrics[name] = statistics.median(p[name] for p in per_pass)
        metrics["trace.overhead_s"] = (per_job_median(traced, "run_s")
                                       - per_job_median(plain, "run_s"))
        table = merge_tables([r["table"] for r in traced[0]])
        print(f"# {len(traced)} traced and {len(plain)} untraced passes; counts "
              f"{'identical' if deterministic else 'DIFFER'} across traced passes")
        print(f"# {'function':<40} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for fn, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"# {fn:<40} {row['calls']:>9} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        missing = sorted({m for p in traced for r in p for m in r["missing"]})
        if missing:
            print(f"# not found, so not traced: {', '.join(missing)}")
        for name, unit, _ in LAYER_METRICS:
            print(f"# {name:<38} {metrics[name]:.6g} {unit}")
    ok = bool(per_pass) and deterministic
    return ok, len(results), failed, {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + HARD_LIMIT_S
    root = pathlib.Path.cwd()
    if not (root / "src" / "pipl" / "cli.py").is_file() or not (root / "configs").is_dir():
        print(f"error: {root} holds no pipl sources (src/pipl) and configs", file=sys.stderr)
        return 2

    print("# " + json.dumps(environment(root, args), sort_keys=True))
    work = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        runner = Runner(root, work, deadline)
        jobs = WORKLOADS[args.workload]
        measure_one = measure_traced if args.trace else measure
        correct, attempted, failed, metrics = measure_one(runner, jobs, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
