import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pipl import analysis, cgo, cli, dnmap
from pipl.cli import EXIT_CHECK, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, emit_plotdata, main, run
from pipl.forward import Propagator, solve_linear, solve_semilinear
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


def test_cli_import_skips_scipy_interpolate_and_stats():
    code = (
        "import sys, pipl.cli; "
        "print([m for m in sys.modules if m.startswith(('scipy.interpolate', 'scipy.stats'))])"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


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
        ("runge", "sizes = 4 8 16 32", "sizes =", "runge", "sizes"),
        ("control", "n_time = 12", "n_time = 0", "control", "n_time"),
        ("forward", "scheme = cn", "scheme = bee", "experiment", "scheme"),
        ("forward", "kind = forward", "kind = dnmap", "experiment", "kind"),
        ("forward", "dim = 1", "dim = 2", "grid", "lower"),
        ("dnmap", "portion = left", "portion = lft", "dnmap", "portion"),
        ("linearize", "max_order = 3", "max_order = 4", "linearize", "max_order"),
        # carleman weights need K + t0 < min(1, 1/(2L))
        ("carleman", "a = 1.0", "a = 1.0\nk = 0.6", "carleman", "k"),
        # gamma's eigenvalues must lie in [rho0, 1/rho0] = [0.5, 2]
        ("forward", 'gamma = "1"', 'gamma = "-1"', "model", "gamma"),
        ("forward", 'gamma = "1"', 'gamma = "0.05"', "model", "gamma"),
        # u^3 breaks the growth condition of class A_T
        ("forward", 'nonlinearity = "0"\nclass = linear-potential',
         'nonlinearity = "u^3"\nclass = A_T', "model", "nonlinearity"),
        # an admissible-analytic term must vanish at u = 0
        ("forward", 'nonlinearity = "0"\nclass = linear-potential',
         'nonlinearity = "u + 1"\nclass = admissible-analytic', "model", "nonlinearity"),
        # rho0 must lie in (0, 1), also for the identity gamma
        ("forward", 'gamma = "1"', 'gamma = "1"\nrho0 = 1.5', "model", "rho0"),
        ("forward", 'gamma = "1"', 'gamma = "1 + 0.2*x"\nrho0 = 1.5', "model", "rho0"),
    ],
)
def test_malformed_config_value_exits_2(kind, old, new, section, key, tmp_path):
    text = _edit(kind, old, new)
    err = _config_error(kind, text, tmp_path)
    assert (err["type"], err["section"], err["key"]) == ("ConfigError", section, key)
    marker = f"[{section}]" if key is None else key
    assert text.splitlines()[err["line"] - 1].strip().startswith(marker)


def test_non_integer_seed_exits_2_without_traceback(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "pipl.cli", "forward", "--config", str(CONFIGS / "forward.ini"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env={**os.environ, "PIPL_SEED": "x",
             "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert out.returncode == EXIT_PARSE
    assert "Traceback" not in out.stderr
    err = json.loads((tmp_path / "out" / "error.json").read_text())
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
        ("cgo-verify", "rhos = 8 16 32 64", "rhos = -8 16"),
        ("cgo-verify", "rhos = 8 16 32 64", "rhos = 8 16 32 64\nomega = 2"),
        ("recover-q", "rho = 32", "rho = 0"),
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
        ("stability", '[stability]\ntruth = "8*sin(pi*x)"\ndeltas = 1e-2\ntrials = 1\n'),
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
