import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import load_measurement
from pipl.dnmap import add_noise, measure, passive_map, save_measurement
from pipl.grid import (
    FACE_IDS,
    BoundaryPortion,
    Field,
    GridError,
    SpaceTimeGrid,
    field_from_function,
)
from pipl.model import Nonlinearity


def grid1d(nx=65, nt=32, T=0.1):
    return SpaceTimeGrid.make([0.0], [1.0], [nx], nt, T)


def heat_field(grid):
    return field_from_function(
        grid, lambda x, t: np.exp(-math.pi**2 * t) * np.sin(math.pi * x), "Q"
    )


LEFT = BoundaryPortion.named("left")


def test_measure_heat_oracle_left_end():
    g = grid1d(nx=129)
    m = measure(heat_field(g), LEFT)
    # outward normal at x=0 is -1: d_nu u = -pi exp(-pi^2 t)
    expected = -math.pi * np.exp(-math.pi**2 * g.times())
    assert np.max(np.abs(m.values[:, 0] - expected)) < 2e-3


def test_measure_zero_field():
    g = grid1d(nx=17, nt=4)
    z = Field(g, np.zeros((g.n_levels, *g.nx)), "Q")
    assert np.all(measure(z, BoundaryPortion.full()).values == 0.0)


def test_measure_linearity_exact():
    g = grid1d(nx=33, nt=8)
    u1 = field_from_function(g, lambda x, t: np.sin(x) + t, "Q")
    u2 = field_from_function(g, lambda x, t: np.cos(2 * x) * (1 + t), "Q")
    a, b = 2.5, -1.25
    lhs = measure(Field(g, a * u1.values + b * u2.values, "Q"), BoundaryPortion.full())
    m1 = measure(u1, BoundaryPortion.full())
    m2 = measure(u2, BoundaryPortion.full())
    assert np.allclose(lhs.values, a * m1.values + b * m2.values, rtol=1e-13, atol=1e-13)


def test_measure_refinement_order():
    errs, hs = [], []
    for nx in (33, 65, 129):
        g = grid1d(nx=nx)
        m = measure(heat_field(g), LEFT)
        expected = -math.pi * np.exp(-math.pi**2 * g.times())
        errs.append(np.max(np.abs(m.values[:, 0] - expected)))
        hs.append(g.h[0])
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate >= 1.8


def test_empty_portion_rejected():
    g = grid1d(nx=17, nt=4)
    u = heat_field(g)
    with pytest.raises(GridError):
        measure(u, BoundaryPortion.named())


def test_portion_restriction_consistency():
    g2 = SpaceTimeGrid.make([0, 0], [1, 1], [9, 9], 4, 0.1)
    u = field_from_function(g2, lambda x, y, t: np.sin(x) * np.cos(y) + t * x, "Q")
    full = measure(u, BoundaryPortion.full())
    sub = measure(u, BoundaryPortion.named("left", "bottom"))
    # every (face, node) entry of the sub-portion appears identically in full
    key_full = {
        (face, mi): full.values[:, j]
        for j, (face, mi) in enumerate(zip(full.portion.face_of_node, full.portion.multi_indices))
    }
    for j, (face, mi) in enumerate(zip(sub.portion.face_of_node, sub.portion.multi_indices)):
        assert np.array_equal(sub.values[:, j], key_full[(face, mi)])


def test_passive_map_zero_config_is_zero():
    g = grid1d(nx=17, nt=8)
    z = Field(g, np.zeros(g.nx), "Omega")
    m = passive_map(g, None, Nonlinearity.parse("u^2"), z, BoundaryPortion.full())
    assert np.all(m.values == 0.0)


def test_passive_map_heat_oracle():
    g = grid1d(nx=129, nt=256)
    g0 = field_from_function(g, lambda x: np.sin(math.pi * x), "Omega")
    m = passive_map(g, None, Nonlinearity.zero(), g0, LEFT, scheme="cn")
    expected = -math.pi * np.exp(-math.pi**2 * g.times())
    assert np.max(np.abs(m.values[:, 0] - expected)) < 5e-3


def test_noise_zero_level_identity():
    g = grid1d(nx=17, nt=4)
    m = measure(heat_field(g), LEFT)
    m2 = add_noise(m, "gaussian-relative", 0.0, seed=42)
    assert np.array_equal(m.values, m2.values)


@pytest.mark.parametrize("level", [0.0, 0.1])
def test_noise_model_checked_at_every_level(level):
    m = measure(heat_field(grid1d(nx=17, nt=4)), LEFT)
    with pytest.raises(ValueError, match="unknown noise model 'bogus'"):
        add_noise(m, "bogus", level, 1)


def test_noise_reproducible_and_scaled():
    g = grid1d(nx=33, nt=64)
    m = measure(heat_field(g), BoundaryPortion.full())
    a = add_noise(m, "gaussian-relative", 0.01, seed=5)
    b = add_noise(m, "gaussian-relative", 0.01, seed=5)
    assert np.array_equal(a.values, b.values)
    rel = (
        measureish_l2(a.values - m.values, m) / measureish_l2(m.values, m)
    )
    assert 0.005 <= rel <= 0.02


def measureish_l2(vals, m):
    per_level = (np.abs(vals) ** 2) @ m.portion.weights
    return float(np.sqrt(np.dot(m.grid.time_weights(), per_level)))


def test_noise_two_seeds_differ():
    g = grid1d(nx=33, nt=16)
    m = measure(heat_field(g), BoundaryPortion.full())
    a = add_noise(m, "gaussian-absolute", 0.1, seed=1)
    b = add_noise(m, "gaussian-absolute", 0.1, seed=2)
    assert not np.array_equal(a.values, b.values)
    assert abs(np.std(a.values - m.values) - np.std(b.values - m.values)) < 0.02


@settings(max_examples=30, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    nx=st.lists(st.integers(3, 9), min_size=2, max_size=2),
    nt=st.integers(2, 6),
    lower=st.floats(-5.0, 5.0),
    width=st.floats(0.1, 10.0),
    T=st.floats(0.01, 5.0),
    faces=st.sets(st.sampled_from(("left", "right", "bottom", "top")), min_size=1),
    full=st.booleans(),
    noise_model=st.sampled_from(("gaussian-relative", "gaussian-absolute")),
    level=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_measurement_roundtrip(dim, nx, nt, lower, width, T, faces, full, noise_model, level,
                               seed, tmp_path_factory):
    # a noisy DN measurement on a random grid and portion: the CSV gives back
    # its values and portion bitwise, the JSON sidecar its noise and portion
    g = SpaceTimeGrid.make([lower] * dim, [lower + width] * dim, nx[:dim], nt, T)
    names = sorted(f for f in faces if FACE_IDS[f][0] < dim) or ["right"]
    portion = BoundaryPortion.full() if full else BoundaryPortion.named(*names)
    u = Field(g, np.random.default_rng(seed).standard_normal((g.n_levels, *g.nx)), "Q")
    m = add_noise(measure(u, portion), noise_model, level, seed)
    noise = {"model": noise_model, "level": level, "seed": seed}
    out = tmp_path_factory.mktemp("dn")
    save_measurement(m, out / "dn.csv", out / "dn.json", noise)
    back = load_measurement(g, portion, out / "dn.csv")
    assert back.values.shape == m.values.shape and back.values.tobytes() == m.values.tobytes()
    assert back.portion.faces == m.portion.faces
    assert back.portion.flat.tobytes() == m.portion.flat.tobytes()
    meta = json.loads((out / "dn.json").read_text())
    assert meta["noise"] == noise
    assert meta["portion"] == {"faces": [list(f) for f in m.portion.faces],
                               "n_nodes": m.portion.n_nodes}
    assert meta["grid_digest"] == g.digest()
