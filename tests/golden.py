"""Pinned outputs of the shipped configs.

summarize(out) reduces a run's output directory to its pins: every numeric
leaf of each JSON output, keyed by its path, and for each CSV the shape, sum,
2-norm and max |value| of its numeric cells.  Runtime fields (the manifest's
wall time, forward's convergence timing) are left out.  mismatches(pins, out)
lists what moved past the pin file's relative tolerance: 1e-12 unless the
file sets "rtol" with a "reason".

Rewrite tests/golden/<kind>.json from configs/<kind>.ini (all kinds when
none is named), first printing each pin that moved past the file's
tolerance with its old and new value:

    PYTHONPATH=src python tests/golden.py [kind ...]
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-12
RUNTIME_KEYS = {"wall_time_s", "convergence_runtime_s"}


def _leaves(value, path=()):
    """(path, value) of every number and boolean under value, skipping any
    subtree under a runtime key."""
    if isinstance(value, dict):
        for key, v in value.items():
            if key not in RUNTIME_KEYS:
                yield from _leaves(v, path + (str(key),))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (str(i),))
    elif isinstance(value, (bool, int, float)):
        yield "/".join(path), value


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_summary(path):
    """Shape (data rows, numeric cells per row), sum, 2-norm and max |value|
    of the numeric cells; comment, header and blank lines are skipped."""
    rows = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        cells = [_number(c) for c in line.split(",")]
        if not rows and all(c is None for c in cells):
            continue  # header
        rows.append([c for c in cells if c is not None])
    values = [v for row in rows for v in row]
    return {
        "shape": [len(rows), len(rows[0]) if rows else 0],
        "sum": math.fsum(values),
        "norm2": math.sqrt(math.fsum(v * v for v in values)),
        "max_abs": max((abs(v) for v in values), default=0.0),
    }


def summarize(out: Path) -> dict:
    """The pins of one output directory."""
    return {
        "json": {p.name: dict(_leaves(json.loads(p.read_text())))
                 for p in sorted(out.glob("*.json"))},
        "csv": {p.name: _csv_summary(p) for p in sorted(out.glob("*.csv"))},
    }


def _close(a, b, rtol):
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def mismatches(pins: dict, out: Path) -> list:
    """Each pinned file, field or summary that out lacks, adds or moves."""
    got = summarize(out)
    rtol = pins.get("rtol", RTOL)
    found = []
    for part in ("json", "csv"):
        want, have = pins[part], got[part]
        for name in sorted(set(want) | set(have)):
            if name not in want or name not in have:
                found.append(f"{name}: {'unpinned' if name in have else 'missing'}")
                continue
            for key in sorted(set(want[name]) | set(have[name])):
                a, b = want[name].get(key), have[name].get(key)
                if a is None or b is None or not _close(a, b, rtol):
                    found.append(f"{name} {key}: pinned {a!r}, got {b!r}")
    return found


def regenerate(kinds) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from pipl.cli import run

    GOLDEN.mkdir(exist_ok=True)
    for kind in kinds:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = run(kind, ROOT / "configs" / f"{kind}.ini", out, check=True)
            if code != 0:
                raise SystemExit(f"{kind}: exit {code}, pins not written")
            path = GOLDEN / f"{kind}.json"
            pins = summarize(out)
            if path.exists():  # say what moved; keep a loosened tolerance and its reason
                old = json.loads(path.read_text())
                for moved in mismatches(old, out):
                    print(f"{kind}: {moved}")
                pins.update({k: old[k] for k in ("rtol", "reason") if k in old})
            path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or sorted(p.stem for p in (ROOT / "configs").glob("*.ini")))
