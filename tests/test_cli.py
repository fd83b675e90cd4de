import configparser
import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import golden
import numpy as np
import pytest

from pipl import analysis, cgo, cli, dnmap
from pipl.cli import EXIT_CHECK, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, emit_plotdata, main, run
from pipl.forward import Propagator, solve_linear, solve_semilinear
from pipl.grid import GridError, SpaceTimeGrid, field_from_function
from pipl.model import DiffusionTensor, ModelError, Nonlinearity
from pipl.recon import control, initial

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.ini"))
# the section of each kind's own keys
OWN_SECTION = {
    "carleman": "carleman", "cgo-verify": "cgo", "control": "control", "dnmap": "dnmap",
    "forward": "forward", "linearize": "linearize", "maxprin": "maxprin",
    "nonunique-demo": "nonunique", "recover-b": "recover_b", "recover-g": "recover_g",
    "recover-q": "recover_q", "runge": "runge", "stability": "stability",
}


def write_config(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


FORWARD_CFG = """
[grid]
dim = 1
lower = 0
upper = 1
nx = 33
nt = 32
T = 0.1

[model]
gamma = "1"
nonlinearity = "0"
class = linear-potential

[experiment]
kind = forward
scheme = cn
seed = 7

[forward]
initial = "sin(pi*x)"
oracle = "exp(-pi^2*t)*sin(pi*x)"
convergence = 17 33 65
"""


def test_forward_experiment_runs(tmp_path):
    cfg = write_config(tmp_path, "fwd.ini", FORWARD_CFG)
    out = tmp_path / "out"
    code = run("forward", cfg, out, check=True)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "forward" and manifest["seed"] == 7
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"]["observed_order"] >= 1.8
    assert (out / "solution.csv").exists()
    assert (out / "convergence.csv").exists()


def test_malformed_expression_exits_2(tmp_path):
    bad = FORWARD_CFG.replace('"sin(pi*x)"', '"sin("')
    cfg = write_config(tmp_path, "bad.ini", bad)
    out = tmp_path / "out"
    code = run("forward", cfg, out, check=False)
    assert code == EXIT_PARSE
    err = json.loads((out / "error.json").read_text())
    assert "byte_offset" in err


def test_kind_mismatch_exits_2(tmp_path):
    cfg = write_config(tmp_path, "fwd.ini", FORWARD_CFG)
    assert run("maxprin", cfg, tmp_path / "o") == EXIT_PARSE


U5_FORWARD_CFG = """
[grid]
nx = 9
nt = 4
T = 0.5

[model]
nonlinearity = "u^5"
class = admissible-analytic

[experiment]
kind = forward
scheme = be

[forward]
initial = "40*sin(pi*x)"
"""


def test_forward_large_data_semilinear_converges(tmp_path):
    # large data for u^5: per-step Newton converges where a fixed-point
    # iteration on the frozen potential stalls
    cfg = write_config(tmp_path, "fwd.ini", U5_FORWARD_CFG)
    out = tmp_path / "out"
    assert run("forward", cfg, out, check=True) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["converged"] is True


def test_forward_unconverged_semilinear_fails_check(tmp_path, monkeypatch):
    # a solve capped at one Newton iteration per level does not converge,
    # and --check must not exit 0
    monkeypatch.setattr(cli, "solve_semilinear", functools.partial(solve_semilinear, max_iter=1))
    cfg = write_config(tmp_path, "fwd.ini", U5_FORWARD_CFG)
    out = tmp_path / "out"
    assert run("forward", cfg, out, check=True) == EXIT_CHECK
    assert json.loads((out / "report.json").read_text())["converged"] is False
    failures = json.loads((out / "check_failures.json").read_text())
    assert any("did not converge" in f for f in failures)


def test_control_unconverged_continuation_fails_check(tmp_path, monkeypatch):
    # the u^3 tail continuation capped at one Newton iteration per level
    # does not converge, and --check must not exit 0
    capped = functools.partial(solve_semilinear, max_iter=1)
    monkeypatch.setattr(control, "solve_semilinear", capped)
    out = tmp_path / "out"
    assert run("control", CONFIGS / "control.ini", out, check=True) == EXIT_CHECK
    assert json.loads((out / "report.json").read_text())["converged"] is False
    failures = json.loads((out / "check_failures.json").read_text())
    assert any("free continuation did not converge: newton stalled at time level 1" in f
               for f in failures)


def test_cgo_check_failure_exit_4(tmp_path):
    # coarse time grid + huge rho: unresolved boundary layer, remainders
    # need not decay -> check mode must gate it
    cfg = write_config(
        tmp_path,
        "cgo.ini",
        """
[grid]
nx = 17
nt = 8
T = 1.0

[experiment]
kind = cgo-verify

[cgo]
rhos = 64 128 256 512
""",
    )
    code = run("cgo-verify", cfg, tmp_path / "out", check=True)
    assert code == EXIT_CHECK
    assert (tmp_path / "out" / "check_failures.json").exists()


def test_cgo_check_passes_when_resolved(tmp_path):
    cfg = write_config(
        tmp_path,
        "cgo.ini",
        """
[grid]
nx = 129
nt = 256
T = 1.0

[experiment]
kind = cgo-verify

[cgo]
rhos = 8 16 32 64
""",
    )
    out = tmp_path / "out"
    assert run("cgo-verify", cfg, out, check=True) == EXIT_OK
    rows = (out / "remainder_decay.csv").read_text().splitlines()
    assert rows[0] == "rho,remainder_norm,residual"
    assert len(rows) == 5


@pytest.mark.parametrize("kind", ["recover-q", "recover-b"])
def test_recovery_reports_cgo_warnings(kind, tmp_path):
    # rho^(3/4) dt = 32^(3/4) / 16 = 0.841 > 0.5: every probe warns, the notes once
    text = _edit(kind, "nx = 129\nnt = 128", "nx = 33\nnt = 16")
    cfg = write_config(tmp_path, f"{kind}.ini", text)
    run(kind, cfg, tmp_path / "out")
    notes = json.loads((tmp_path / "out" / "report.json").read_text())["notes"]
    assert notes[0] == "boundary layer under-resolved: rho^(3/4)*dt = 0.841 > 0.5"
    assert sum("under-resolved" in n for n in notes) == 1


def test_maxprin_and_nonunique(tmp_path):
    cfg = write_config(
        tmp_path,
        "mp.ini",
        """
[grid]
nx = 33
nt = 16
T = 0.5
""",
    )
    assert run("maxprin", cfg, tmp_path / "mp") == EXIT_OK
    cfg2 = write_config(
        tmp_path,
        "nu.ini",
        """
[grid]
nx = 129
nt = 8
T = 0.5
""",
    )
    assert run("nonunique-demo", cfg2, tmp_path / "nu", check=True) == EXIT_OK


def test_maxprin_violation_fails_check(tmp_path, monkeypatch):
    # one interior value set to -1 breaks both maximum-principle gates: the
    # run writes its report and fails --check, naming the gate
    def violated(*args, **kwargs):
        rep = solve_linear(*args, **kwargs)
        rep.solution.values[-1, 1] = -1.0
        return rep

    monkeypatch.setattr(analysis, "solve_linear", violated)
    out = tmp_path / "out"
    assert run("maxprin", CONFIGS / "maxprin.ini", out, check=True) == EXIT_CHECK
    gates = json.loads((out / "report.json").read_text())["gates"]
    assert not gates["undershoot"]["passed"] and not gates["min_after_first_level"]["passed"]
    failures = json.loads((out / "check_failures.json").read_text())
    assert any(f.startswith("undershoot ") for f in failures)
    # recover-b divides by the positive solution, so there the violation is a
    # solver failure
    assert run("recover-b", CONFIGS / "recover-b.ini", tmp_path / "b", check=True) == EXIT_SOLVER


def test_manifest_reproducibility(tmp_path):
    cfg = write_config(tmp_path, "fwd.ini", FORWARD_CFG)
    run("forward", cfg, tmp_path / "a")
    run("forward", cfg, tmp_path / "b")
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    ma.pop("wall_time_s")
    mb.pop("wall_time_s")
    assert json.dumps(ma, sort_keys=True) == json.dumps(mb, sort_keys=True)


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "fwd.ini", FORWARD_CFG)
    monkeypatch.setenv("PIPL_SEED", "123")
    run("forward", cfg, tmp_path / "o")
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["seed"] == 123


def test_emit_plotdata_empty_report(tmp_path):
    files = emit_plotdata({}, "stability", tmp_path)
    text = (tmp_path / "stability_curve.csv").read_text().splitlines()
    assert text == ["delta,trial,error,dn_diff_norm"]


def test_main_entrypoint(tmp_path):
    cfg = write_config(tmp_path, "fwd.ini", FORWARD_CFG)
    code = main(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK


def test_unreadable_config(tmp_path):
    assert run("forward", tmp_path / "missing.ini", tmp_path / "o") == EXIT_PARSE


def test_spearman_matches_scipy_with_ties():
    from scipy.stats import spearmanr

    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 30))
        x = rng.integers(0, 5, n).astype(float)
        y = x + rng.integers(-2, 3, n)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        assert abs(cli._spearman(x, y) - spearmanr(x, y).statistic) <= 1e-12


def test_cli_1d_run_imports_no_scipy(tmp_path):
    # scipy serves the LAPACK fallback only: importing the CLI and running
    # shipped 1D configs (CGO probes and Newton) loads no scipy module, and
    # neither does a fresh 2D API run (a Newton solve with a cross term and
    # a potential recovery)
    src = str(Path(cli.__file__).resolve().parents[1])

    def scipy_modules(code):
        out = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; "
             "print([m for m in sys.modules if m.startswith('scipy')])"],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        )
        return out.stdout.strip().splitlines()[-1]

    runs = "; ".join(
        f"codes.append(pipl.cli.main([{kind!r}, '--config', {str(CONFIGS / f'{kind}.ini')!r}, "
        f"'--check', '--out', {str(tmp_path / kind)!r}]))"
        for kind in ("recover-q", "linearize"))
    assert scipy_modules(f"import pipl.cli; codes = []; {runs}; assert codes == [0, 0]") == "[]"
    run_2d = (
        "import numpy as np; "
        "from pipl.grid import Field, SpaceTimeGrid, field_from_function; "
        "from pipl.model import DiffusionTensor, Nonlinearity; "
        "from pipl.forward import solve_semilinear; "
        "from pipl.recon import recover_potential, synthesize_potential_probes; "
        "g = SpaceTimeGrid.make([0.0, 0.0], [1.0, 1.0], [9, 9], 8, 0.5); "
        "gamma = DiffusionTensor.matrix2d('1', '0.1*x', '0.9'); "
        "g0 = field_from_function(g, lambda x, y: np.sin(np.pi*x)*np.sin(np.pi*y), 'Omega'); "
        "assert solve_semilinear(g, gamma, Nonlinearity.parse('u^3'), g=g0).converged; "
        "dq = field_from_function(g, lambda x, y, t: 0*x + np.exp(-25*(t - 0.25)**2), 'Q'); "
        "probes = synthesize_potential_probes(g, dq, None, rho=4.0, n_xi=1, n_tau=1); "
        "res = recover_potential(g, probes, None, truth_difference=Field(g, -dq.values, 'Q')); "
        "assert np.isfinite(res.truth_error)"
    )
    assert scipy_modules(run_2d) == "[]"


@functools.cache
def _perfbench_child():
    """perfbench/child.py, whose gate_ratios recomputes each gate ratio of a
    benchmarked kind from its outputs."""
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def _no_constant(name):
    raise ValueError(f"report.json holds {name}")


@pytest.mark.parametrize("kind", SHIPPED)
def test_shipped_config_passes_check(kind, tmp_path):
    out = tmp_path / "out"
    assert run(kind, CONFIGS / f"{kind}.ini", out, check=True) == EXIT_OK
    report = json.loads((out / "report.json").read_text(), parse_constant=_no_constant)
    gates = report["gates"]
    assert gates and all(g["passed"] for g in gates.values())
    child = _perfbench_child()
    if kind in child.CLI_JOBS:
        # every ratio the benchmark computes is one of the recorded gate ratios, bitwise
        recorded = {repr(g["ratio"]) for g in gates.values()}
        for name, ratio in child.gate_ratios(kind, out, {}).items():
            assert repr(ratio) in recorded, name
    if kind == "linearize":
        # 1 + 3 + 7 corners, two amplitude levels each
        assert report["corner_solves"] == 22
    # every numeric output matches its pin (tests/golden.py rewrites them)
    pins = json.loads((golden.GOLDEN / f"{kind}.json").read_text())
    assert golden.mismatches(pins, out) == []
    # every CSV cell is a plain number, bar the text columns mode and metric;
    # a field CSV opens with a "# shape:" line and separates levels by blank lines
    for path in out.glob("*.csv"):
        lines = path.read_text().splitlines()
        header = [] if lines[0].startswith("# shape:") else lines[0].split(",")
        text = {j for j, c in enumerate(header) if c in ("mode", "metric")}
        for row in filter(None, lines[1:]):
            for j, cell in enumerate(row.split(",")):
                if j not in text:
                    float(cell)


def test_runge_builds_two_propagators(tmp_path, monkeypatch):
    # the CGO target's Propagator, and one that every fit of every basis size shares
    built = []
    real_init = Propagator.__init__

    def init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "__init__", init)
    assert run("runge", CONFIGS / "runge.ini", tmp_path / "out", check=True) == EXIT_OK
    assert len(built) == 2


def test_runge_marches_once(tmp_path, monkeypatch):
    # every size and mode of the fit from one run of the finest family: its
    # 64 steps beside the 64 of the CGO target
    runs, steps = [], []
    real_run, real_step = Propagator.run, Propagator.step

    def run_(self, *args, **kwargs):
        runs.append(1)
        return real_run(self, *args, **kwargs)

    def step(self, *args, **kwargs):
        steps.append(1)
        return real_step(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "run", run_)
    monkeypatch.setattr(Propagator, "step", step)
    assert run("runge", CONFIGS / "runge.ini", tmp_path / "out", check=True) == EXIT_OK
    assert (len(runs), len(steps)) == (1, 128)


def test_every_kind_has_a_shipped_config():
    assert SHIPPED == sorted(cli.KINDS) == sorted(OWN_SECTION)


def _config_error(kind, text, tmp_path):
    """Run kind on config text under --check; expect exit 2 and return error.json."""
    cfg = write_config(tmp_path, "bad.ini", text)
    out = tmp_path / "out"
    assert run(kind, cfg, out, check=True) == EXIT_PARSE
    return json.loads((out / "error.json").read_text())


@pytest.mark.parametrize("kind", SHIPPED)
def test_misspelled_key_exits_2(kind, tmp_path):
    lines = (CONFIGS / f"{kind}.ini").read_text().splitlines()
    header = lines.index(f"[{OWN_SECTION[kind]}]")
    key, value = lines[header + 1].split("=", 1)
    typo = key.strip() + key.strip()[-1]  # rho -> rhoo
    lines.insert(header + 1, f"{typo} ={value}")
    err = _config_error(kind, "\n".join(lines) + "\n", tmp_path)
    assert (err["section"], err["key"], err["line"]) == (OWN_SECTION[kind], typo, header + 2)
    assert err["type"] == "ConfigError"


def _edit(kind, old, new):
    text = (CONFIGS / f"{kind}.ini").read_text()
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize(
    "kind, old, new, section, key",
    [
        ("maxprin", "[output]", "[bogus]\na = 1\n\n[output]", "bogus", None),
        ("maxprin", "q = 0", "nonlinearity = \"u^3\"", "maxprin", "nonlinearity"),
        ("recover-q", "rho = 32", "rho = abc", "recover_q", "rho"),
        ("recover-q", "n_tau = 4", "n_tau = 4\nmode = partail", "recover_q", "mode"),
        ("recover-q", "nt = 128", "nt = 6x4", "grid", "nt"),
        ("maxprin", "q = 0", "q = nan", "maxprin", "q"),
        ("cgo-verify", "rhos = 8 16 32 64", "rhos = 8 16 inf", "cgo", "rhos"),
        ("runge", "sizes = 1 2 4 8", "sizes =", "runge", "sizes"),
        ("control", "n_time = 12", "n_time = 0", "control", "n_time"),
        ("forward", "scheme = cn", "scheme = bee", "experiment", "scheme"),
        ("forward", "kind = forward", "kind = dnmap", "experiment", "kind"),
        ("forward", "dim = 1", "dim = 2", "grid", "lower"),
        # the grid's own checks, located
        ("forward", "nt = 32", "nt = 1", "grid", "nt"),
        ("forward", "nx = 33", "nx = 2", "grid", "nx"),
        ("forward", "T = 0.5", "t = 0", "grid", "t"),
        ("forward", "upper = 1", "upper = 0", "grid", "upper"),
        ("dnmap", "portion = left", "portion = lft", "dnmap", "portion"),
        ("linearize", "max_order = 3", "max_order = 4", "linearize", "max_order"),
        # an amplitude window is nonnegative (0 skips its level)
        ("linearize", "max_order = 3", "max_order = 3\neps1 = -1e-2 1e-3", "linearize", "eps1"),
        ("linearize", "max_order = 3", "max_order = 3\neps2 = 1e-2 -1e-3", "linearize", "eps2"),
        ("linearize", "max_order = 3", "max_order = 3\neps3 = -3e-3 -1e-3", "linearize", "eps3"),
        # carleman weights need 0 < K < min(1, 1/(2L)) - t0
        ("carleman", "a = 1.0", "a = 1.0\nk = 0.6", "carleman", "k"),
        ("carleman", "a = 1.0", "a = 1.0\nk = -0.5", "carleman", "k"),
        ("carleman", "a = 1.0", "a = 1.0\nk = 0", "carleman", "k"),
        # noise levels are nonnegative
        ("dnmap", "portion = left", "portion = left\nnoise = -0.01", "dnmap", "noise"),
        ("recover-g", "noise = 0", "noise = -0.05", "recover_g", "noise"),
        ("stability", "deltas = 1e-1", "deltas = -1e-1", "stability", "deltas"),
        # gamma's eigenvalues must lie in [rho0, 1/rho0] = [0.5, 2]
        ("forward", 'gamma = "1"', 'gamma = "-1"', "model", "gamma"),
        ("forward", 'gamma = "1"', 'gamma = "0.05"', "model", "gamma"),
        # u^3 breaks the growth condition of class A_T
        ("forward", 'nonlinearity = "0"\nclass = linear-potential',
         'nonlinearity = "u^3"\nclass = A_T', "model", "nonlinearity"),
        # an admissible-analytic term must vanish at u = 0
        ("forward", 'nonlinearity = "0"\nclass = linear-potential',
         'nonlinearity = "u + 1"\nclass = admissible-analytic', "model", "nonlinearity"),
        # a linear-potential term, the default class, must be affine in u
        ("forward", 'nonlinearity = "0"\nclass = linear-potential', 'nonlinearity = "u^3 + 1"',
         "model", "nonlinearity"),
        # no tag checks the paper's B_T class
        ("forward", "class = linear-potential", "class = B_T", "model", "class"),
        # the convergence sweep behind an oracle refines 1D grids only
        ("forward", "dim = 1\nlower = 0\nupper = 1\nnx = 33\nnt = 32",
         "dim = 2\nlower = 0 0\nupper = 1 1\nnx = 17 17\nnt = 16", "forward", "oracle"),
        ("dnmap", "[grid]\nnx = 33\nnt = 32", "[grid]\ndim = 2\nnx = 17 17\nnt = 16", "dnmap",
         "oracle_dn"),
        # rho0 must lie in (0, 1), also for the identity gamma
        ("forward", 'gamma = "1"', 'gamma = "1"\nrho0 = 1.5', "model", "rho0"),
        ("forward", 'gamma = "1"', 'gamma = "1 + 0.2*x"\nrho0 = 1.5', "model", "rho0"),
        # a diffusion key that the run would not read: g12 or g22 without g11
        # or on a 1D grid, a scalar gamma beside g11
        ("maxprin", "[grid]\nnx = 65", '[model]\ng12 = "5"\n\n[grid]\ndim = 2\nnx = 17 17',
         "model", "g12"),
        ("maxprin", "[grid]\nnx = 65",
         '[model]\ng11 = "1"\ngamma = "1.9"\n\n[grid]\ndim = 2\nnx = 17 17', "model", "gamma"),
        ("forward", 'gamma = "1"', 'g11 = "1"\ng12 = "0.1"\ng22 = "1.5"', "model", "g12"),
        ("forward", 'gamma = "1"', 'gamma = "1"\ng22 = "1.5"', "model", "g22"),
        # the control horizon T - eps must leave at least 2 steps of free
        # continuation, under a tail that vanishes at u = 0
        ("control", "eps = 0.25", "eps = -0.25", "control", "eps"),
        ("control", "eps = 0.25", "eps = 0", "control", "eps"),
        ("control", "eps = 0.25", "eps = 0.010416666666666666", "control", "eps"),
        ("control", 'tail_nonlinearity = "u^3"', 'tail_nonlinearity = "u^3 + 0.5"', "control",
         "tail_nonlinearity"),
        # a sweep whose gate reads a trend needs two distinct values, and a
        # convergence grid at least 3 nodes
        ("runge", "sizes = 1 2 4 8", "sizes = 8", "runge", "sizes"),
        # nested spline spaces: each size below the next and dividing it
        ("runge", "sizes = 1 2 4 8", "sizes = 2 3", "runge", "sizes"),
        ("runge", "sizes = 1 2 4 8", "sizes = 4 2", "runge", "sizes"),
        ("runge", "sizes = 1 2 4 8", "sizes = 2 2 4", "runge", "sizes"),
        ("cgo-verify", "rhos = 8 16 32 64", "rhos = 16 16", "cgo", "rhos"),
        ("stability", "deltas = 1e-1 1e-2 1e-3 1e-4", "deltas = 1e-2", "stability", "deltas"),
        ("forward", "convergence = 33 65 129 257", "convergence = 33", "forward", "convergence"),
        ("forward", "convergence = 33 65 129 257", "convergence = 33 33", "forward",
         "convergence"),
        ("forward", "convergence = 33 65 129 257", "convergence = 2 33", "forward",
         "convergence"),
        ("dnmap", "convergence = 33 65 129 257", "convergence = 65", "dnmap", "convergence"),
        # a seed is nonnegative, a Taylor order at least 2 and a CGO rho positive
        ("stability", "seed = 20260809", "seed = -2", "experiment", "seed"),
        ("recover-b", "order = 3", "order = 1", "recover_b", "order"),
        ("recover-b", "order = 3", "order = 0", "recover_b", "order"),
        ("recover-b", "order = 3", "order = -2", "recover_b", "order"),
        ("recover-q", "rho = 32", "rho = -32", "recover_q", "rho"),
        ("recover-q", "rho = 32", "rho = 0", "recover_q", "rho"),
        ("recover-b", "rho = 32", "rho = -1", "recover_b", "rho"),
        ("runge", "rho = 2.0", "rho = -2.0", "runge", "rho"),
        ("cgo-verify", "rhos = 8 16 32 64", "rhos = -8 16", "cgo", "rhos"),
        ("cgo-verify", "rhos = 8 16 32 64", "rhos = 8 -16 32 64", "cgo", "rhos"),
        # a portion names faces of the grid: a 1D grid has no top
        ("carleman", "portion = left", "portion = top", "carleman", "portion"),
        ("dnmap", "portion = left", "portion = top", "dnmap", "portion"),
        ("recover-g", "portion = left", "portion = top", "recover_g", "portion"),
        ("stability", "portion = left", "portion = top", "stability", "portion"),
        ("control", "portion = left", "portion = top", "control", "portion"),
    ],
)
def test_malformed_config_value_exits_2(kind, old, new, section, key, tmp_path):
    text = _edit(kind, old, new)
    err = _config_error(kind, text, tmp_path)
    assert (err["type"], err["section"], err["key"]) == ("ConfigError", section, key)
    marker = f"[{section}]" if key is None else key
    assert text.splitlines()[err["line"] - 1].strip().startswith(marker)


# every number key of a kind's own section and its [model], whatever it reads
INTEGER_PARSERS = (cli._count, cli._counts, cli._order)
SWEEP = [
    (kind, section, key)
    for kind, tables in cli.SCHEMA.items()
    for section, table in tables.items()
    if section not in ("grid", "experiment", "output")
    for key, (parse, _) in table.items()
    if parse in (cli._float, cli._floats, cli._nonnegative, cli._nonnegatives, cli._positive,
                 cli._positives, *INTEGER_PARSERS)
]


@pytest.mark.parametrize("kind, section, key", SWEEP)
def test_negative_number_exits_with_a_documented_code(kind, section, key, tmp_path):
    # -0.5 in any number key, -2 in an integer one: a result, a config fault
    # or a solver failure with error.json, or a failed check; never a
    # traceback
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(CONFIGS / f"{kind}.ini")
    if not cp.has_section(section):
        cp.add_section(section)
    cp[section][key] = "-2" if cli.SCHEMA[kind][section][key][0] in INTEGER_PARSERS else "-0.5"
    cfg = tmp_path / "negative.ini"
    with open(cfg, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    code = run(kind, cfg, out, check=True)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_SOLVER, EXIT_CHECK)
    assert (out / "error.json").exists() == (code in (EXIT_PARSE, EXIT_SOLVER))


def _grid1d(nx=33, nt=32, T=0.5):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def _propagator(gamma):
    return lambda: Propagator(_grid1d(), DiffusionTensor.scalar(gamma))


def _tensor(gamma, rho0):
    return lambda: DiffusionTensor.scalar(gamma, rho0=rho0)


def _validate(source, tag):
    return lambda: Nonlinearity.parse(source, tag=tag).validate(_grid1d())


def _control(eps, tail="u^3"):
    def call():
        g = _grid1d(65, 96, 1.0)  # the shipped control grid
        g0 = field_from_function(g, lambda x: np.sin(np.pi * x), "Omega")
        control.null_control(g, None, g0, eps, tail=Nonlinearity.parse(tail))

    return call


@pytest.mark.parametrize(
    "call, error, match",
    [
        (_propagator("-1"), ModelError, "eigenvalues"),
        (_propagator("0.05"), ModelError, "eigenvalues"),
        (_tensor("1", 1.5), ModelError, "rho0"),
        (_tensor("1 + 0.2*x", 1.5), ModelError, "rho0"),
        (_validate("u^3", "A_T"), ModelError, "growth condition"),
        (_validate("u + 1", "admissible-analytic"), ModelError, "vanish"),
        (_validate("u^3 + 1", "linear-potential"), ModelError, "affine"),
        (_control(-0.25), GridError, "must lie in"),
        (_control(0.0), GridError, "must lie in"),
        (_control(0.010416666666666666), GridError, "leaves 1 time step"),
        (_control(0.25, "u^3 + 0.5"), ModelError, "vanish"),
    ],
    ids=["gamma=-1", "gamma=0.05", "rho0=1.5", "rho0=1.5-x", "A_T-u^3", "analytic-u+1",
         "linear-u^3+1",
         "eps=-0.25", "eps=0", "eps=dt", "tail-u^3+0.5"],
)
def test_malformed_config_value_api_twin_raises(call, error, match, monkeypatch):
    # each model and control case of test_malformed_config_value_exits_2
    # raises from the library too, before any step matrix is built or solve made
    def no_build(*args, **kwargs):
        raise AssertionError("built or solved before checking the model")

    monkeypatch.setattr(Propagator, "_matrices", no_build)
    monkeypatch.setattr(control, "Propagator", no_build)
    monkeypatch.setattr(control, "solve_semilinear", no_build)
    with pytest.raises(error, match=match):
        call()


def test_non_integer_seed_exits_2_without_traceback(tmp_path):
    # a seed that numpy's generator would refuse, a negative one, too
    for seed in ("x", "-3"):
        out = subprocess.run(
            [sys.executable, "-m", "pipl.cli", "stability", "--config",
             str(CONFIGS / "stability.ini"), "--out", str(tmp_path / seed)],
            capture_output=True, text=True,
            env={**os.environ, "PIPL_SEED": seed,
                 "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        assert out.returncode == EXIT_PARSE
        assert "Traceback" not in out.stderr
        err = json.loads((tmp_path / seed / "error.json").read_text())
        assert err["key"] == "PIPL_SEED"


def test_nonunique_collar_too_wide_exits_2(tmp_path):
    # the collar leaves no room for the interior supports: a parameter
    # constraint of the demo, not a solver failure
    err = _config_error("nonunique-demo", _edit("nonunique-demo", "0.15", "0.6"), tmp_path)
    assert err["type"] == "AnalysisError"


@pytest.mark.parametrize("kind", ["maxprin", "cgo-verify"])
def test_2d_defaults_from_dim(kind, tmp_path):
    # lower, upper and nx (and cgo's omega) default by [grid] dim
    cfg = write_config(tmp_path, "2d.ini", "[grid]\ndim = 2\n")
    out = tmp_path / "out"
    assert run(kind, cfg, out, check=True) == EXIT_OK
    grid = json.loads((out / "manifest.json").read_text())["config"]["grid"]
    assert (grid["lower"], grid["upper"], grid["nx"]) == ([0.0, 0.0], [1.0, 1.0], [17, 17])


def test_carleman_report_is_json_when_every_face_is_observed(tmp_path):
    # no face is left to bound the flux on: null, and the condition holds
    cfg = write_config(tmp_path, "lr.ini", _edit("carleman", "portion = left",
                                                  "portion = left, right"))
    assert run("carleman", cfg, tmp_path / "out", check=True) == EXIT_OK

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    text = (tmp_path / "out" / "report.json").read_text()
    conditions = json.loads(text, parse_constant=reject)["weight_conditions"]
    assert conditions["max_flux_on_unobserved"] is None
    assert conditions["flux_condition_holds"] is True


def test_manifest_records_resolved_values(tmp_path):
    out = tmp_path / "out"
    assert run("carleman", CONFIGS / "carleman.ini", out) == EXIT_OK
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["carleman"]["portion"] == ["left"]
    assert config["carleman"]["t0"] == 10 * 0.5 / 64  # 10 dt
    assert config["grid"]["t"] == 0.5 and config["experiment"]["seed"] == 1


LINEARIZE_CFG = """
[grid]
nx = 17
nt = 16
T = 0.5

[model]
nonlinearity = "u^3"
class = admissible-analytic

[linearize]
max_order = 2
"""


def test_linearize_counts_solved_corners(tmp_path):
    def corner_solves(text, name):
        out = tmp_path / name
        assert run("linearize", write_config(tmp_path, f"{name}.ini", text), out) == EXIT_OK
        return json.loads((out / "report.json").read_text())["corner_solves"]

    assert corner_solves(LINEARIZE_CFG, "full") == 2 * 1 + 2 * 3
    # a zero amplitude level is skipped, not solved
    assert corner_solves(LINEARIZE_CFG + "eps1 = 0 1e-2\n", "skip") == 1 + 2 * 3


def test_shipped_linearize_work(tmp_path, monkeypatch):
    # the base and all 22 corners of the shipped run are one Newton batch:
    # one dgtsv per batched iteration (counted on forward's LAPACK binding),
    # where one batch per order made 620
    from pipl import forward

    dgtsv, calls = forward._lapack().dgtsv, []
    monkeypatch.setattr(forward._lapack(), "dgtsv", lambda *a: calls.append(1) or dgtsv(*a))
    assert run("linearize", CONFIGS / "linearize.ini", tmp_path) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert (len(calls), report["newton_calls"], report["newton_iterations"]) == (155, 1, 3565)


def test_shipped_1d_steppers_factor_once(tmp_path, monkeypatch):
    # a 1D stepper factors all its step matrices in one dgttrf call (counted
    # on forward's LAPACK binding): the shipped recover-q makes one per
    # stepper, 5, where one per time level made 386, and linearize's one
    # stepper of the direct fields makes 1, not 48
    from pipl import forward

    dgttrf, calls = forward._lapack().dgttrf, []
    monkeypatch.setattr(forward._lapack(), "dgttrf", lambda *a: calls.append(1) or dgttrf(*a))
    for kind, expected in (("recover-q", 5), ("linearize", 1)):
        calls.clear()
        assert run(kind, CONFIGS / f"{kind}.ini", tmp_path / kind) == EXIT_OK
        assert len(calls) == expected


def test_shipped_cgo_verify_work(tmp_path, monkeypatch):
    # the shipped probes have xi = 0 and tau = 0, so the four rho builds
    # march real: 4 x 256 steps, each on a float block with a float band
    # solve and no product with its step matrix A.  Each reported residual
    # is one A product over all 256 steps (q does not depend on t), and q's
    # expression is sampled in one call
    from pipl import expr, forward

    real_matrices, real_step, real_solve, real_product, real_call = (
        Propagator._matrices, Propagator.step, Propagator._solve, forward.Banded.product,
        expr.Expression.__call__)
    step_matrices, steps, solves, products, evals = {}, [], [], [], []

    def matrices(self, new, old):
        out = real_matrices(self, new, old)
        step_matrices[id(out[0])] = out[0]  # held, so no later matrix takes its id
        return out

    def step(self, k, z, f=None, s=None):
        steps.append(z.dtype)
        products.append("step")
        return real_step(self, k, z, f, s)

    def solve(self, lu, rhs):
        solves.append(rhs.dtype)
        return real_solve(self, lu, rhs)

    def product(self, z, level=None):
        if step_matrices.get(id(self)) is self:
            products.append(z.shape)
        return real_product(self, z, level)

    def call(self, *args, **kwargs):
        evals.append(self.source)
        return real_call(self, *args, **kwargs)

    monkeypatch.setattr(Propagator, "_matrices", matrices)
    monkeypatch.setattr(Propagator, "step", step)
    monkeypatch.setattr(Propagator, "_solve", solve)
    monkeypatch.setattr(forward.Banded, "product", product)
    monkeypatch.setattr(expr.Expression, "__call__", call)
    assert run("cgo-verify", CONFIGS / "cgo-verify.ini", tmp_path, check=True) == EXIT_OK
    assert steps == solves == [np.dtype(float)] * (4 * 256)
    # per rho its 256 steps, then one A product covering them all (129 nodes)
    assert products == (["step"] * 256 + [(129, 256)]) * 4
    assert evals.count("exp(-40*(x-0.5)^2)") == 1  # "1.0", the identity tensor, once per stepper


def test_each_taylor_coefficient_is_formed_once(tmp_path, monkeypatch):
    # linearize reads d_u^k b along its base for k = 1, 2, 3; recover-b reads
    # d_u b(., 0) of both models (they must agree; the reference's pairs the
    # samples) and d_u^3 b(., 0) of both
    orders = []
    along = Nonlinearity.along
    monkeypatch.setattr(Nonlinearity, "along",
                        lambda nl, base, k: orders.append(k) or along(nl, base, k))
    assert run("linearize", CONFIGS / "linearize.ini", tmp_path / "linearize") == EXIT_OK
    assert sorted(orders) == [1, 2, 3]
    orders.clear()
    assert run("recover-b", CONFIGS / "recover-b.ini", tmp_path / "recover-b") == EXIT_OK
    assert sorted(orders) == [1, 1, 1, 3, 3]


RECOVER_G_CFG = """
[grid]
nx = 17
nt = 16
T = 0.5

[model]
nonlinearity = "u^3"
class = admissible-analytic

[recover_g]
truth = "8*sin(pi*x)"
"""


def test_recover_g_unconverged_inner_solve_fails_check(tmp_path, monkeypatch):
    # inner semilinear solves capped at one Newton iteration per level do not
    # converge, and --check must not exit 0
    monkeypatch.setattr(
        initial, "solve_semilinear", functools.partial(solve_semilinear, max_iter=1)
    )
    cfg = write_config(tmp_path, "rg.ini", RECOVER_G_CFG)
    out = tmp_path / "out"
    assert run("recover-g", cfg, out, check=True) == EXIT_CHECK
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert "inner semilinear solve did not converge" in report["notes"]
    failures = json.loads((out / "check_failures.json").read_text())
    assert any("did not converge" in f for f in failures)


@pytest.mark.parametrize(
    "kind, old, new",
    [
        ("cgo-verify", "rhos = 8 16 32 64", "rhos = 8 16 32 64\nomega = 2"),
    ],
)
def test_invalid_cgo_parameters_exit_2(kind, old, new, tmp_path):
    err = _config_error(kind, _edit(kind, old, new), tmp_path)
    assert err["type"] == "CGOError"


def test_cgo_overflow_guard_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cgo, "OVERFLOW_LIMIT", 0.0)
    cfg = write_config(tmp_path, "cgo.ini", "[grid]\nnx = 17\nnt = 16\n\n[cgo]\nrhos = 8 16\n")
    out = tmp_path / "out"
    assert run("cgo-verify", cfg, out, check=True) == EXIT_SOLVER
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "SolverError" and "overflow guard" in err["error"]


U3_CFG = """
[grid]
nx = 9
nt = 8
T = 0.5

[model]
nonlinearity = "u^3"
class = admissible-analytic
"""


@pytest.mark.parametrize(
    "kind, section",
    [
        ("dnmap", '[dnmap]\ninitial = "8*sin(pi*x)"\n'),
        ("recover-g", '[recover_g]\ntruth = "8*sin(pi*x)"\n'),
        ("stability", '[stability]\ntruth = "8*sin(pi*x)"\ndeltas = 1e-1 1e-2\ntrials = 1\n'),
    ],
)
def test_unconverged_passive_map_exits_3(kind, section, tmp_path, monkeypatch):
    # a passive measurement whose semilinear solve is capped at one Newton
    # iteration per level did not converge: the run fails, naming the level
    monkeypatch.setattr(dnmap, "solve_semilinear", functools.partial(solve_semilinear, max_iter=1))
    cfg = write_config(tmp_path, "u3.ini", U3_CFG + "\n" + section)
    out = tmp_path / "out"
    assert run(kind, cfg, out, check=True) == EXIT_SOLVER
    err = json.loads((out / "error.json").read_text())
    assert err["type"] == "SolverError"
    assert "passive map: newton stalled at time level 1" in err["error"]


def test_stability_reports_unconverged_trials(tmp_path, monkeypatch):
    out = tmp_path / "shipped"
    assert run("stability", CONFIGS / "stability.ini", out, check=True) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["converged"] is True
    # inner semilinear solves capped at one Newton iteration per level do not
    # converge, and --check must not exit 0
    monkeypatch.setattr(
        initial, "solve_semilinear", functools.partial(solve_semilinear, max_iter=1)
    )
    section = '[stability]\ntruth = "8*sin(pi*x)"\ndeltas = 1e-1 1e-2\ntrials = 1\n'
    cfg = write_config(tmp_path, "st.ini", U3_CFG + "\n" + section)
    out = tmp_path / "out"
    assert run("stability", cfg, out, check=True) == EXIT_CHECK
    assert json.loads((out / "report.json").read_text())["converged"] is False
    assert "converged" not in json.loads((out / "stability_report.json").read_text())
    failures = json.loads((out / "check_failures.json").read_text())
    assert any("did not converge" in f for f in failures)
