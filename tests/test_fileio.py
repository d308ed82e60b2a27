"""The typing rule of ``fileio``: every record's JSON form follows from its
field hints, the writer's bytes are pinned, and the reader inverts it."""

import hashlib
import json
from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from eincasm import fileio
from eincasm.config import parse_config
from eincasm.environments import KINDS, EnvSpec, Rect
from eincasm.fileio import read_value, write_value
from eincasm.lifecycle import DegradeCells, LifecycleConfig, MoveObstacle, RemoveFood
from eincasm.substrate import GridShape

# Every arena kind, poison, fixed obstacles, all three events, several
# environments and every scalar form.
CONFIG = {
    "lifecycle": {
        "seed_cell": [3, 4], "n_env_evals": 2, "t_min": 20, "t_max": 30,
        "schedule": [
            [2, {"kind": "remove_food", "region": [1, 1, 2, 2]}],
            [3, {"kind": "degrade_cells", "region": [0, 0, 4, 4], "fraction": 0.25}],
            [5, {"kind": "move_obstacle", "obstacle_id": 1, "displacement": [-1, 2]}],
        ],
    },
    "environment": [
        {"kind": "maze", "shape": [21, 21], "params": {"cell_size": 2, "goal": [1, 1, 2, 2]}},
        {"kind": "deceptive_chemo", "shape": [16, 16], "params": {"false_peak": [3, 3], "false_peak_amplitude": 3},
         "poison": [[[1, 1, 1, 1], 2]]},
        {"kind": "coordination", "shape": [24, 16],
         "params": {"cluster_offset": 8, "cluster_radius": 1, "cluster_amount": 6}},
        {"kind": "obstacle_field", "shape": [16, 16], "params": {"density": 0.2}, "obstacles": [[2, 2, 1, 3]],
         "seed": 7, "seed_cell": [8, 8], "chemo_decay": 0.95, "chemo_iters": 40},
    ],
}


def test_resolved_config_bytes_are_pinned(tmp_path):
    """The bytes ``evolve`` writes to resolved_config.json for CONFIG, pinned:
    a run is reproduced from that file, so its form must not drift. The
    seed cell lies on a maze wall, so ``check_arenas`` would stop ``evolve``
    before it writes; the writer is called as ``evolve`` calls it."""
    path = tmp_path / "resolved_config.json"
    fileio.write_json(str(path), parse_config(CONFIG).to_dict())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ec54a868e412036c546ef4406df20a82a03f1e42fe1f3afd917dcc54303b6ed5"
    )


ints = st.integers(-40, 40)
floats = st.floats(allow_nan=False, allow_infinity=False)
pairs = st.tuples(ints, ints)
rects = st.builds(Rect, ints, ints, ints, ints)
amounts = st.lists(st.tuples(rects, floats), max_size=3).map(tuple)
PARAM_VALUES = {int: ints, float: floats, tuple[int, int]: pairs, Rect: rects.map(astuple)}


@st.composite
def env_specs(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    hints = {"goal": Rect, **KINDS[kind][1]}
    keys = draw(st.lists(st.sampled_from(sorted(hints)), unique=True))
    return EnvSpec(
        kind=kind,
        shape=GridShape(draw(st.integers(3, 64)), draw(st.integers(3, 64))),
        food=draw(amounts),
        poison=draw(amounts),
        obstacles=tuple(draw(st.lists(rects, max_size=3))),
        seed=draw(st.integers(0, 2**40)),
        seed_cell=draw(st.none() | pairs),
        chemo_decay=draw(floats),
        chemo_iters=draw(st.integers(0, 500)),
        params=tuple(sorted((key, draw(PARAM_VALUES[hints[key]])) for key in keys)),
    )


@st.composite
def lifecycle_configs(draw):
    t_min = draw(st.integers(1, 100))
    t_max = draw(st.integers(t_min, 200))
    events = (RemoveFood(draw(rects)), DegradeCells(draw(rects), draw(floats)), MoveObstacle(draw(ints), draw(pairs)))
    return LifecycleConfig(
        t_min=t_min,
        t_max=t_max,
        p_update=draw(st.floats(0.0, 1.0, exclude_min=True)),
        seed_cell=draw(st.none() | pairs),
        seed_mass=draw(st.floats(0.0, 1e9)),
        seed_nutrient=draw(st.floats(0.0, 1e9)),
        n_env_evals=draw(st.integers(1, 8)),
        tau=draw(st.floats(0.5, 10.0, exclude_min=True)),
        schedule=tuple((draw(st.integers(0, t_max - 1)), event) for event in draw(st.permutations(events))),
    )


def round_trip(value):
    return read_value("value", json.loads(json.dumps(write_value(value))), type(value))


@settings(max_examples=80, deadline=None)
@given(env_specs())
def test_env_spec_round_trips(spec):
    assert round_trip(spec) == spec


@settings(max_examples=80, deadline=None)
@given(lifecycle_configs())
def test_lifecycle_config_round_trips(cfg):
    assert round_trip(cfg) == cfg
    assert all(list(write_value(event))[0] == "kind" for _, event in cfg.schedule)
