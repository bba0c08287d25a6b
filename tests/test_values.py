"""The immutable value types: repr text, equality, hashing, immutability, pickling, replace."""

import copy
import pickle
import sys
from array import array

import numpy as np
import pytest

from la_nav import (
    Bounds,
    CircleObstacle,
    ConfigError,
    LearningScheme,
    RectObstacle,
    RobotParams,
    RunRecord,
    SeedFailure,
    Termination,
    World,
    WorldSpec,
    config_digest,
    move_table,
    preset_config,
    run_episode,
)

DEFAULT_BOUNDS = "Bounds(x_min=-100.0, y_min=-100.0, x_max=100.0, y_max=100.0)"
LRP = "LearningScheme(kind=<SchemeKind.LRP: 'lrp'>, reward_rate=0.7, penalty_rate=0.7)"
ROBOT = "RobotParams(wheel_radius=2.8, axle_length=12.0, wheel_speed=2.0, action_duration=0.5)"


def small_world():
    return World((30, 5), 2.0, [CircleObstacle((10, 0), 3), RectObstacle((-5, -5), (-1, -1))])


def small_record():
    return RunRecord(
        x=array("d", [0.5]),
        y=array("d", [-1.25]),
        theta=array("d", [0.0]),
        d=array("d", [30.0]),
        probs=array("d", [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]),
        action=array("b", [1]),
        flag=array("b", [0]),
        blocked=array("b", [0]),
        terminated=Termination.MAX_STEPS_EXCEEDED,
        config=preset_config(1, 7),
        world=World((30.0, 5.0)),
    )


# The text each type's repr printed when the types were frozen dataclasses.
# SeedFailure and World texts reach batch_summary.json and stderr, and
# InfeasibleWorldError embeds a Bounds.
REPRS = [
    (
        lambda: LearningScheme("lri", 0.5),
        "LearningScheme(kind=<SchemeKind.LRI: 'lri'>, reward_rate=0.5, penalty_rate=0.0)",
    ),
    (
        lambda: RobotParams(wheel_radius=3, axle_length=10.5),
        "RobotParams(wheel_radius=3.0, axle_length=10.5, wheel_speed=2.0, action_duration=0.5)",
    ),
    (lambda: Bounds(-1, -2, 3, 4), "Bounds(x_min=-1.0, y_min=-2.0, x_max=3.0, y_max=4.0)"),
    (lambda: CircleObstacle((1, 2), 3), "CircleObstacle(center=(1.0, 2.0), radius=3.0)"),
    (
        lambda: RectObstacle((1, 2), (3, 4.5)),
        "RectObstacle(min_corner=(1.0, 2.0), max_corner=(3.0, 4.5))",
    ),
    (
        small_world,
        "World(goal=(30.0, 5.0), goal_tolerance=2.0, obstacles=(CircleObstacle(center=(10.0, 0.0), "
        "radius=3.0), RectObstacle(min_corner=(-5.0, -5.0), max_corner=(-1.0, -1.0))), "
        f"bounds={DEFAULT_BOUNDS})",
    ),
    (
        lambda: WorldSpec(goal=(30, 5), obstacles=[CircleObstacle((10, 0), 3)]),
        f"WorldSpec(goal=(30.0, 5.0), tolerance=2.0, bounds={DEFAULT_BOUNDS}, "
        "obstacles=(CircleObstacle(center=(10.0, 0.0), radius=3.0),), min_start_distance=20.0, "
        "auto_blocking_pair=False)",
    ),
    (
        lambda: preset_config(4, 3),
        f"ExperimentConfig(scheme={LRP}, seed=3, robot={ROBOT}, world=WorldSpec(goal=None, "
        f"tolerance=2.0, bounds={DEFAULT_BOUNDS}, obstacles=(), min_start_distance=20.0, "
        "auto_blocking_pair=True), max_steps=5000, feedback_literal_eq10=False, preset=4)",
    ),
    (
        small_record,
        "RunRecord(x=array('d', [0.5]), y=array('d', [-1.25]), theta=array('d', [0.0]), "
        "d=array('d', [30.0]), probs=array('d', [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]), "
        "action=array('b', [1]), flag=array('b', [0]), blocked=array('b', [0]), "
        "terminated=<Termination.MAX_STEPS_EXCEEDED: 'max_steps_exceeded'>, "
        f"config=ExperimentConfig(scheme={LRP}, seed=7, robot={ROBOT}, "
        f"world=WorldSpec(goal=None, tolerance=2.0, bounds={DEFAULT_BOUNDS}, obstacles=(), "
        "min_start_distance=20.0, auto_blocking_pair=False), max_steps=5000, "
        "feedback_literal_eq10=False, preset=1), world=World(goal=(30.0, 5.0), "
        f"goal_tolerance=2.0, obstacles=(), bounds={DEFAULT_BOUNDS}))",
    ),
    (
        lambda: SeedFailure(seed=3, error="no feasible goal"),
        "SeedFailure(seed=3, error='no feasible goal')",
    ),
]
REPR_IDS = [text.partition("(")[0] for _, text in REPRS]


@pytest.mark.parametrize("build, text", REPRS, ids=REPR_IDS)
def test_repr_text(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build", [build for build, _ in REPRS], ids=REPR_IDS)
def test_equal_instances_compare_equal_and_assignment_raises(build):
    a, b = build(), build()
    assert a == b and not a != b
    assert a != tuple(getattr(a, name) for name in a._fields)
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


@pytest.mark.parametrize(
    "build",
    [build for build, text in REPRS if not text.startswith("RunRecord")],
    ids=[name for name in REPR_IDS if name != "RunRecord"],
)
def test_equal_instances_hash_equal(build):
    assert hash(build()) == hash(build())


def test_run_record_compares_by_value_but_is_not_hashable():
    # Its array columns are mutable, so a hash could change under a set or dict.
    assert small_record() == small_record()
    with pytest.raises(TypeError) as err:
        hash(small_record())
    assert str(err.value) == "unhashable type: 'RunRecord'"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: LearningScheme("lrp", True), "reward rate must be a number, got True"),
        (lambda: LearningScheme("general", 0.5, False), "penalty rate must be a number, got False"),
        (lambda: RobotParams(wheel_radius=True), "wheel radius must be a number, got True"),
        (lambda: CircleObstacle((0, 0), True), "circle radius must be a number, got True"),
        (lambda: Bounds(x_max="100"), "bounds x_max must be a number, got '100'"),
        # NaN and ±inf, and a point that is not two items, are rejected by the types too.
        (lambda: LearningScheme("lrp", float("nan")), "reward rate must be finite, got nan"),
        (lambda: RobotParams(wheel_speed=float("inf")), "wheel speed must be finite, got inf"),
        (lambda: Bounds(x_min=float("-inf")), "bounds x_min must be finite, got -inf"),
        (lambda: CircleObstacle((1, 2, 3), 1), "circle center must be an [x, y] pair, got (1, 2, 3)"),
        (lambda: CircleObstacle(5, 1), "circle center must be an [x, y] pair, got 5"),
        (lambda: RectObstacle([0], (1, 1)), "rectangle min corner must be an [x, y] pair, got [0]"),
        (lambda: World(None), "goal must be an [x, y] pair, got None"),
    ],
    ids=[
        "reward-rate", "penalty-rate", "wheel-radius", "circle-radius", "bounds-str",
        "nan-rate", "inf-speed", "inf-bounds", "point-three-items", "point-number", "point-one-item",
        "point-none",
    ],
)
def test_numbers_reject_bool_and_non_numbers(build, message):
    # A stored True would echo as true, which --config rejects; every value
    # type takes its numbers through one rule.
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_points_take_a_tuple_a_list_or_a_numpy_pair():
    expected = CircleObstacle((1.0, 2.0), 3)
    assert CircleObstacle([1, 2], 3) == CircleObstacle(np.array([1.0, 2.0]), 3) == expected


def test_unequal_fields_compare_unequal():
    assert preset_config(1, 3) != preset_config(1, 4)
    assert hash(Bounds()) != hash(Bounds(-1, -1, 1, 1))
    assert CircleObstacle((1, 2), 3) != RectObstacle((1, 2), (3, 4))


@pytest.mark.parametrize(
    "build",
    [
        lambda: preset_config(4, 3),
        small_world,
        lambda: run_episode(preset_config(1, 5)),
        lambda: run_episode(preset_config(2, 3).replace(max_steps=40)),
        lambda: SeedFailure(3, "no feasible goal"),
        lambda: WorldSpec(goal=(30.0, 5.0), obstacles=[CircleObstacle((10, 0), 3)]),
    ],
    ids=["config", "world", "record", "record-max-steps", "seed-failure", "explicit-goal-spec"],
)
def test_pickle_and_deepcopy_round_trip(build):
    value = build()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value
        assert repr(twin) == repr(value)
        # Every slot, the derived ones (moves, world) that eq ignores included.
        for name in type(value).__slots__:
            assert getattr(twin, name) == getattr(value, name), name


@pytest.mark.parametrize(
    "build",
    [
        lambda: SeedFailure(3),
        lambda: SeedFailure(3, "e", 4),
        lambda: SeedFailure(3, seed=4),
        lambda: SeedFailure(seed=3, err="e"),
    ],
    ids=["missing", "surplus", "repeated", "unknown"],
)
def test_plain_constructor_binds_each_field_once(build):
    with pytest.raises(TypeError) as err:
        build()
    assert str(err.value) == "SeedFailure takes each of its fields (seed, error) once, by position or by name"


def test_plain_constructor_binds_by_position_or_by_name():
    assert SeedFailure(3, error="e") == SeedFailure(seed=3, error="e") == SeedFailure(error="e", seed=3)
    failure = SeedFailure(3, error="e")
    assert (failure.seed, failure.error) == (3, "e")


def test_record_reads_seed_and_digest_from_its_config():
    record = run_episode(preset_config(2, 3).replace(max_steps=40))
    assert (record.seed, record.config_digest) == (3, config_digest(record.config))
    longer = record.replace(config=record.config.replace(max_steps=41))
    assert longer.seed == 3
    assert longer.config_digest == config_digest(longer.config) != record.config_digest
    assert "seed" not in record._fields and "config_digest" not in record._fields


def test_replace_checks_the_new_values():
    with pytest.raises(ConfigError) as err:
        preset_config(1, 0).replace(seed=-1)
    assert str(err.value) == "config field 'seed': must be non-negative, got -1"
    with pytest.raises(ValueError, match="degenerate bounds"):
        Bounds().replace(x_max=-200.0)
    with pytest.raises(TypeError):
        preset_config(1, 0).replace(moves=())


def test_replace_recomputes_moves():
    config = preset_config(1, 0)
    robot = RobotParams(wheel_speed=3.0)
    changed = config.replace(robot=robot)
    assert changed.moves == move_table(robot) != config.moves
    assert changed.replace(seed=9).moves == changed.moves
    assert changed == preset_config(1, 0).replace(robot=RobotParams(wheel_speed=3.0))


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_agrees_with_replace():
    config = preset_config(2, 1)
    assert copy.replace(config, seed=4, max_steps=9) == config.replace(seed=4, max_steps=9)
    assert copy.replace(Bounds(), x_min=-5) == Bounds().replace(x_min=-5)
