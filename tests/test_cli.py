"""CLI tests: config parsing, artifact emission, end-to-end verbs."""

import csv
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import la_nav

from la_nav import (
    Bounds,
    ConfigError,
    ExperimentConfig,
    LearningScheme,
    RobotParams,
    SchemeKind,
    WorldSpec,
    config_digest,
    preset_config,
    run_batch,
    run_episode,
    summarize,
)
from la_nav.cli import _WRITE_CHUNK, build_svg, emit_artifacts, main, parse_config
from la_nav.runner import RunRecord

from conftest import first_move_blocked_config, zero_reward_general_config, zero_speed_config


ARTIFACT_NAMES = ("trajectory.csv", "probs.csv", "summary.json", "plot.svg")


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


FULL_WORLD_CONFIG = {
    "seed": 3,
    "scheme": {"kind": "lrp", "a": 0.7},
    "robot": {"c": 3.0, "omega": 1.5},
    "world": {
        "random_goal": {"min_start_distance": 35.0},
        "tolerance": 4.0,
        "bounds": {"min": [-50, -50], "max": [50, 50]},
        "obstacles": [{"shape": "circle", "center": [10, 10], "radius": 5}],
    },
    "max_steps": 123,
    "feedback_literal_eq10": True,
}


def _preset_echo(preset, kind=None, a=None, b=None):
    """``to_dict()`` of preset ``preset`` at seed 1, with ``LearningScheme(kind, a, b)`` if ``kind``."""
    config = preset_config(preset, seed=1)
    if kind is not None:
        config = config.replace(scheme=LearningScheme(kind, a, b))
    return config.to_dict()


# A preset gives its scheme; a scheme section takes the preset's kind if it
# names none, its family fills in the rates it fixes, and the preset's rates
# fill in any rate still missing.
PRESET_RULE_CASES = {
    # Parsed before the rule, to the same config.
    "p3-a-zero": ({"preset": 3, "scheme": {"a": 0}}, _preset_echo(3)),
    "p2-b-zero": ({"preset": 2, "scheme": {"b": 0}}, _preset_echo(2)),
    "p4-general-a": (
        {"preset": 4, "scheme": {"kind": "general", "a": 0.3}}, _preset_echo(4, "general", 0.3, 0.7)
    ),
    "p1-empty": ({"preset": 1, "scheme": {}}, _preset_echo(1)),
    **{f"p{p}-echo": (_preset_echo(p), _preset_echo(p)) for p in (1, 2, 3, 4)},
    # Failed before the rule on the preset's other rate.
    "p1-a": ({"preset": 1, "scheme": {"a": 0.5}}, _preset_echo(1, "lrp", 0.5, 0.5)),
    "p1-b": ({"preset": 1, "scheme": {"b": 0.3}}, _preset_echo(1, "lrp", 0.3, 0.3)),
    "p1-lri-a": ({"preset": 1, "scheme": {"kind": "lri", "a": 0.5}}, _preset_echo(1, "lri", 0.5, 0.0)),
    "p1-penalty-only-b": (
        {"preset": 1, "scheme": {"kind": "penalty_only", "b": 0.4}},
        _preset_echo(1, "penalty_only", 0.0, 0.4),
    ),
    # The family fixes the rate that would clash with the preset's.
    "p1-lri": ({"preset": 1, "scheme": {"kind": "lri"}}, _preset_echo(1, "lri", 0.7, 0.0)),
    "p1-penalty-only": (
        {"preset": 1, "scheme": {"kind": "penalty_only"}}, _preset_echo(1, "penalty_only", 0.0, 0.7)
    ),
    "p4-lri": ({"preset": 4, "scheme": {"kind": "lri"}}, _preset_echo(4, "lri", 0.7, 0.0)),
    # Still rejected: lrp fixes no rate here and takes preset 2's rates 0.7 and 0.
    "p2-lrp": (
        {"preset": 2, "scheme": {"kind": "lrp"}},
        "config field 'scheme': reward-penalty scheme requires equal reward and penalty rates",
    ),
}


class TestParseConfig:
    @pytest.mark.parametrize("data,expected", PRESET_RULE_CASES.values(), ids=PRESET_RULE_CASES)
    def test_preset_rule(self, data, expected):
        overrides = {**data, "seed": 1}
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as err:
                parse_config(overrides=overrides)
            assert str(err.value) == expected
        else:
            assert parse_config(overrides=overrides).to_dict() == expected

    @pytest.mark.parametrize("preset", [None, 1], ids=["no-preset", "preset"])
    def test_missing_bounds_corner_takes_its_default(self, preset):
        world = {"bounds": {"max": [50, 50]}}
        overrides = {"preset": preset, "seed": 1, "scheme": {"kind": "lrp", "a": 0.7}, "world": world}
        assert parse_config(overrides=overrides).world.bounds == Bounds(-100, -100, 50, 50)

    def test_minimal_preset_config(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "seed": 42})
        config = parse_config(path)
        assert config.preset == 1
        assert config.seed == 42
        assert config.scheme == LearningScheme("lrp", 0.7)
        assert config.world.goal is None
        assert config.max_steps == 5000

    def test_preset_with_out_of_range_rate(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "seed": 1, "scheme": {"a": 1.5}})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "scheme"
        assert str(err.value) == "config field 'scheme': reward rate 1.5 outside [0, 1]"

    def test_preset_obstacle_override_replaces_auto_layout(self, tmp_path):
        override = [
            {"shape": "circle", "center": [30.0, 5.0], "radius": 4.0},
            {"shape": "rect", "min": [10.0, -5.0], "max": [20.0, 5.0]},
        ]
        path = write_config(tmp_path, {"preset": 4, "seed": 1, "world": {"obstacles": override}})
        config = parse_config(path)
        assert config.world.auto_blocking_pair is False
        assert [o.to_dict() for o in config.world.obstacles] == override

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "seed": 1, "robots": {}})
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_nested_key(self, tmp_path):
        # "substeps" is no longer a robot key; configs that still set it must fail.
        for robot in ({"radius": 3}, {"substeps": 100}):
            path = write_config(tmp_path, {"preset": 1, "seed": 1, "robot": robot})
            with pytest.raises(ConfigError) as err:
                parse_config(path)
            key = next(iter(robot))
            assert str(err.value).startswith(f"config field 'robot.{key}'")

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_config(tmp_path / "absent.json")

    def test_json_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "preset": 1,\n}\n')
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "line 3" in str(err.value)

    def test_non_utf8_config_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00")
        code = main(["run", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{path}': not UTF-8 text")
        assert err.count("error:") == 1
        assert "Traceback" not in err

    def test_s_model_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1, "scheme": {"kind": "s_model", "a": 0.5}})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "scheme.kind"

    @pytest.mark.parametrize(
        "base",
        [{"scheme": {"kind": "lrp", "a": 0.7}}, {"preset": 1}],
        ids=["no-preset", "preset"],
    )
    def test_goal_and_random_goal_conflict(self, tmp_path, base):
        # A preset's own random goal gives way to an explicit goal, but one
        # that the config gives next to the goal is still a conflict.
        world = {"goal": [30, 0], "random_goal": {"min_start_distance": 5}}
        path = write_config(tmp_path, {**base, "seed": 1, "world": world})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == (
            "config field 'world': give either 'goal' or 'random_goal', not both"
        )

    def test_explicit_goal_wins_over_preset_random_goal(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "seed": 1, "world": {"goal": [30.0, 0.0]}})
        config = parse_config(path)
        assert config.world.goal == (30.0, 0.0)

    def test_scheme_kind_shortcuts(self, tmp_path):
        lri = parse_config(write_config(tmp_path, {"seed": 1, "scheme": {"kind": "lri", "a": 0.5}}, "a.json"))
        assert lri.scheme == LearningScheme("lri", 0.5)
        pen = parse_config(write_config(tmp_path, {"seed": 1, "scheme": {"kind": "penalty_only", "b": 0.4}}, "b.json"))
        assert pen.scheme == LearningScheme("penalty_only", penalty_rate=0.4)
        lrp = parse_config(write_config(tmp_path, {"seed": 1, "scheme": {"kind": "lrp", "a": 0.6}}, "c.json"))
        assert lrp.scheme == LearningScheme("lrp", 0.6)

    @pytest.mark.parametrize("kind", [k.value for k in SchemeKind])
    @pytest.mark.parametrize(
        "rates",
        [{"a": 0.6}, {"b": 0.6}, {"a": 0.6, "b": 0.6}, {}, {"a": 1.5}, {"b": -0.5}],
        ids=["only-a", "only-b", "both", "neither", "a-out-of-range", "b-out-of-range"],
    )
    def test_scheme_section_follows_the_library(self, kind, rates):
        # One rule: the config builds the scheme the library builds from the
        # same rates, or fails under field 'scheme' with the library's text.
        overrides = {"seed": 1, "scheme": {"kind": kind, **rates}}
        try:
            expected = LearningScheme(kind, rates.get("a"), rates.get("b"))
        except ValueError as exc:
            with pytest.raises(ConfigError) as err:
                parse_config(overrides=overrides)
            assert str(err.value) == f"config field 'scheme': {exc}"
        else:
            assert parse_config(overrides=overrides).scheme == expected

    def test_general_scheme_needs_both_rates(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1, "scheme": {"a": 0.5}})
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_equal_configs_write_equal_echoes(self, tmp_path):
        # Numbers are stored as floats, and -0.0 as 0.0, so configs that
        # compare equal give one digest, and the echo parses back.
        ints = ExperimentConfig(
            LearningScheme("lri", 1, -0.0),
            seed=1,
            robot=RobotParams(wheel_radius=3),
            world=WorldSpec(goal=(30, -0.0)),
        )
        floats = ExperimentConfig(
            LearningScheme("lri", 1.0),
            seed=1,
            robot=RobotParams(wheel_radius=3.0),
            world=WorldSpec(goal=(30.0, 0.0)),
        )
        assert ints == floats
        assert config_digest(ints) == config_digest(floats)
        assert json.dumps(ints.to_dict()) == json.dumps(floats.to_dict())
        assert parse_config(write_config(tmp_path, ints.to_dict())) == ints

    def test_scheme_required_without_preset(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "scheme"

    def test_seed_from_environment(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1})
        config = parse_config(path, env={"LA_NAV_SEED": "77"})
        assert config.seed == 77

    def test_flag_override_beats_environment(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1})
        config = parse_config(path, overrides={"seed": 5}, env={"LA_NAV_SEED": "77"})
        assert config.seed == 5

    def test_missing_seed_everywhere(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1})
        with pytest.raises(ConfigError) as err:
            parse_config(path, env={})
        assert err.value.field == "seed"

    def test_negative_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "seed": -3})
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_max_steps(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "seed": 1, "max_steps": 0})
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_full_world_section(self, tmp_path):
        config = parse_config(write_config(tmp_path, FULL_WORLD_CONFIG))
        assert config.robot.wheel_radius == 3.0
        assert config.robot.wheel_speed == 1.5
        assert config.robot.axle_length == 12.0
        assert config.world.min_start_distance == 35.0
        assert config.world.tolerance == 4.0
        assert config.world.bounds.x_min == -50
        assert len(config.world.obstacles) == 1
        assert config.max_steps == 123
        assert config.feedback_literal_eq10 is True

    @pytest.mark.parametrize(
        "data",
        [
            {"preset": 1, "seed": 4},
            {"preset": 2, "seed": 4},
            {"preset": 3, "seed": 4},
            {"preset": 4, "seed": 4},
            FULL_WORLD_CONFIG,
            {
                "seed": 2,
                "scheme": {"kind": "lri", "a": 0.5},
                "world": {
                    "goal": [30.0, 5.0],
                    "obstacles": [{"shape": "rect", "min": [10.0, -5.0], "max": [20.0, 5.0]}],
                },
            },
            {"seed": 3, "scheme": {"kind": "lrp", "a": 0.7}, "world": {"goal": [30, 5]}},
            {"seed": 1, "scheme": {"kind": "penalty_only", "b": 0.4}, "max_steps": 50},
            {"preset": 1, "seed": 1, "scheme": {"a": 0.5}, "max_steps": 50},
            {"preset": 1, "seed": 1, "scheme": {"kind": "lri"}, "max_steps": 50},
        ],
        ids=[
            "preset1", "preset2", "preset3", "preset4", "full-world", "goal-rect",
            "goal", "penalty-only-b", "preset1-a", "preset1-lri",
        ],
    )
    def test_config_echo_parses_back(self, tmp_path, data):
        # The echo writes "preset": null when there is none, which means absent.
        config = parse_config(write_config(tmp_path, data))
        echo = parse_config(write_config(tmp_path, config.to_dict(), "echo.json"))
        assert echo == config
        assert config_digest(echo) == config_digest(config)


@pytest.fixture(scope="module")
def short_record():
    return run_episode(preset_config(1, seed=42))


# Records that take every path of the writers, which reuse a row's text while
# its values repeat: fresh rows; poses repeated by a blocked move, or without
# one by a robot that cannot move; probabilities repeated by an update at
# rate 0; each also on row 1. Preset 2 seed 2 pushes into a wall, so nearly
# all its rows repeat.
# The chunk-edge records run their whole budget, so their CSVs (a header and
# one row per step) fill exactly one write chunk, or spill one or two rows
# into a second.
# The tail records end in a long run of equal probs.csv rows, which the one
# writer loop emits by reusing the run's first row text. Literal preset 2
# seed 3 pushes Backward into a wall: its probabilities absorb at row 620 and
# repeat from there. The tail-edge records are a literal L_R-I robot that
# cannot move, so every step is rewarded; at these rates they absorb at row
# _WRITE_CHUNK - 1 or + 1 (255 or 257), so their run of equal rows starts just
# before or just after the first write chunk's edge.
CHUNK_EDGE_STEPS = {
    f"chunk{offset:+d}": _WRITE_CHUNK + offset for offset in (-1, 0, 1)
}
TAIL_EDGE_RATES = {"tail-edge-1": 0.946, "tail-edge+1": 0.945}
ROUND_TRIP_CONFIGS = {
    "preset1": preset_config(1, seed=42),
    "preset2": preset_config(2, seed=2),
    "preset3": preset_config(3, seed=1),
    "preset4": preset_config(4, seed=1),
    "first-move-blocked": first_move_blocked_config(),
    "zero-reward-general": zero_reward_general_config(),
    "zero-speed": zero_speed_config(),
    **{
        name: preset_config(2, seed=1).replace(max_steps=steps)
        for name, steps in CHUNK_EDGE_STEPS.items()
    },
    "literal-lri-frozen": preset_config(2, seed=3).replace(feedback_literal_eq10=True),
    **{
        name: ExperimentConfig(
            scheme=LearningScheme("lri", a),
            seed=1,
            robot=RobotParams(wheel_speed=0.0),
            max_steps=400,
            feedback_literal_eq10=True,
        )
        for name, a in TAIL_EDGE_RATES.items()
    },
}


@pytest.fixture(scope="module", params=list(ROUND_TRIP_CONFIGS))
def round_trip_record(request):
    return run_episode(ROUND_TRIP_CONFIGS[request.param])


def _constant_tail_row(record):
    """The probs.csv row from which every row equals the last one."""
    rows = list(zip(*[iter(record.probs)] * 6))
    start = len(rows)
    while start > 1 and rows[start - 2] == rows[-1]:
        start -= 1
    return start


def _bits(values):
    return [float(v).hex() for v in values]


class TestArtifacts:
    def test_round_trip_trajectory_bit_equal(self, round_trip_record, tmp_path):
        emit_artifacts(round_trip_record, tmp_path)
        with open(tmp_path / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        rec = round_trip_record
        assert len(rows) == rec.total_steps
        for name in ("x", "y", "theta", "d"):
            assert _bits(row[name] for row in rows) == _bits(getattr(rec, name))
            # The text too: a reused row must still be each value's repr.
            assert [row[name] for row in rows] == list(map(repr, getattr(rec, name)))
        for i, row in enumerate(rows):
            assert int(row["n"]) == i + 1
            assert int(row["action"]) == rec.action[i]
            assert int(row["flag"]) == rec.flag[i]
            assert int(row["blocked"]) == rec.blocked[i]
            ints = (i + 1, rec.action[i], rec.flag[i], rec.blocked[i])
            assert [row[k] for k in ("n", "action", "flag", "blocked")] == list(map(str, ints))

    def test_round_trip_probability_history(self, round_trip_record, tmp_path):
        emit_artifacts(round_trip_record, tmp_path)
        with open(tmp_path / "probs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == round_trip_record.total_steps
        assert [row["n"] for row in rows] == [str(n) for n in range(1, len(rows) + 1)]
        cells = [row[f"p{i}"] for row in rows for i in range(1, 7)]
        assert _bits(cells) == _bits(round_trip_record.probs)
        assert cells == list(map(repr, round_trip_record.probs))

    def test_round_trip_plot_is_build_svg(self, round_trip_record, tmp_path):
        emit_artifacts(round_trip_record, tmp_path)
        assert (tmp_path / "plot.svg").read_text() == build_svg(round_trip_record)

    @pytest.mark.parametrize("name", sorted(CHUNK_EDGE_STEPS))
    def test_chunk_edge_records_run_their_whole_budget(self, name):
        record = run_episode(ROUND_TRIP_CONFIGS[name])
        assert record.total_steps == CHUNK_EDGE_STEPS[name]

    def test_tail_records_end_in_one_run_of_equal_rows(self):
        frozen = run_episode(ROUND_TRIP_CONFIGS["literal-lri-frozen"])
        assert (frozen.action[-1], frozen.flag[-1], frozen.blocked[-1]) == (4, 0, 1)
        assert _constant_tail_row(frozen) == 620
        assert frozen.probs[-6:] == array("d", (0.0, 0.0, 0.0, 1.0, 0.0, 0.0))
        for name, offset in (("tail-edge-1", -1), ("tail-edge+1", 1)):
            record = run_episode(ROUND_TRIP_CONFIGS[name])
            assert record.total_steps == 400
            assert _constant_tail_row(record) == _WRITE_CHUNK + offset

    def test_round_trip_records_repeat_row_one(self):
        # Row 1 has no previous row to reuse; these records repeat the start there.
        blocked = run_episode(ROUND_TRIP_CONFIGS["first-move-blocked"])
        assert (blocked.blocked[0], blocked.flag[0]) == (1, 1)
        assert 0 < sum(blocked.blocked) < blocked.total_steps
        general = run_episode(ROUND_TRIP_CONFIGS["zero-reward-general"])
        assert general.flag[0] == 0
        assert general.success
        # Every row repeats the start pose, and no move is blocked.
        still = run_episode(ROUND_TRIP_CONFIGS["zero-speed"])
        assert not any(still.blocked)
        assert set(zip(still.x, still.y, still.theta)) == {(0.0, 0.0, 0.0)}

    def test_round_trip_polyline_points(self, round_trip_record):
        # Exact text: parsed floats would hide the sign of zero. SVG y is
        # 0.0 - y, which is 0.0, not -0.0, where the world y is 0.0.
        record = round_trip_record
        (polyline,) = (line for line in build_svg(record).splitlines() if "<polyline" in line)
        points = polyline.split('points="')[1].split('"')[0].split(" ")
        assert points[0] == "0,0"
        assert points[1:] == [format(x, ".6g") + "," + format(0.0 - y, ".6g") for x, y in zip(record.x, record.y)]
        assert "-0" not in {c for point in points for c in point.split(",")}

    def test_summary_contents(self, short_record, tmp_path):
        emit_artifacts(short_record, tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["terminated"] == "goal_reached"
        assert doc["total_steps"] == short_record.total_steps
        assert doc["seed"] == 42
        assert doc["rng_algorithm"] == "mt19937"
        assert doc["config_digest"] == short_record.config_digest
        assert doc["config"]["scheme"]["a"] == 0.7
        assert doc["world"]["goal"] == list(short_record.world.goal)

    def test_zero_step_run_emits_headers_only(self, tmp_path):
        record = run_episode(
            ExperimentConfig(
                scheme=LearningScheme("lrp", 0.7), seed=1, world=WorldSpec(goal=(0.5, 0.5))
            )
        )
        emit_artifacts(record, tmp_path)
        assert (tmp_path / "trajectory.csv").read_text() == "n,x,y,theta,action,flag,d,blocked\n"
        assert (tmp_path / "probs.csv").read_text() == "n,p1,p2,p3,p4,p5,p6\n"
        svg = (tmp_path / "plot.svg").read_text()
        assert svg == build_svg(record)
        assert "polyline" not in svg
        assert 'class="goal"' in svg
        assert 'class="start"' in svg

    def test_blocking_preset_plot_has_two_obstacles(self, tmp_path):
        record = run_episode(preset_config(4, seed=2))
        svg = build_svg(record)
        assert svg.count('class="obstacle"') == 2
        assert svg.count("<polyline") == 1

    def test_goal_on_the_x_axis_is_drawn_at_cy_0(self, tmp_path):
        # The SVG y of the goal negates a world y of 0.0, which must not print "-0".
        path = write_config(tmp_path, {"preset": 1, "seed": 1, "max_steps": 5, "world": {"goal": [30, 0]}})
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        svg = (out / "plot.svg").read_text()
        assert svg.count('cx="30" cy="0"') == 2
        assert re.search(r"-0(?![.\d])", svg) is None

    def test_emission_is_deterministic(self, short_record, tmp_path):
        emit_artifacts(short_record, tmp_path / "a")
        emit_artifacts(short_record, tmp_path / "b")
        for name in ARTIFACT_NAMES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of (trajectory.csv, probs.csv, summary.json, plot.svg) written by
# emit_artifacts for episodes that draw from random.Random(seed), keyed by
# (preset, seed), with "literal" for the inverted success test. A change
# that keeps behaviour must keep every byte.
GOLDEN_ARTIFACTS = {
    (1, 1): (
        "29ca556405f06830851fff398de190b6d9b1d2468de61e0e0ad8fe24b87d69fa",
        "bdfe42522b5568d7ab7c46fbe30b20753b168e0cd8db49db5c4aba2896c294c8",
        "2b725d816f06ec95a92a9f11219b0778444ba7a0b83bf306d144c5b27ce027e9",
        "16408a7ef27e66a50d86e918075419c4f43fd335cc3e955a536bb4cacb11c7d2",
    ),
    (1, 2): (
        "66753a49eb34e4e954d2c3bbfdbe3f1ebd5997c4c4f7dd444b4471980d266e4f",
        "2182c22fd04768abf982385378c4eabd5f79e0f27054c09cfce4a236031441ec",
        "fb203f08d08c93dad08bef97abc1c38cdbe86da1e8a5045e492223730295cb5b",
        "a290fea32f74d3840ee805fc2ceecf4e51bf0fbf8b180754a0e2a1c2b5f4cb87",
    ),
    (1, 3): (
        "c6aafc8f6e8fe0966cbedf1b26ffa9011bddeabfc3b668ea0e292400a7b21644",
        "f99afa061f2f21f43b891f6b1548c5da63b96822ab305d140e93fcea85ef7319",
        "8d7f187aca717bfe92c065999aa58d2b19e44a5eb6e2099393b6d3681009ecff",
        "1a40b74a5abae75f831e8e78a0a01fed2fd658a7bd79673dd0e2c69ff83d2b05",
    ),
    (2, 1): (
        "b0d3623500bf04075ffda109374aea14c8d7f687854d6b7d68be4ffdfab02720",
        "f640d1933ed28bb7672fbeeee81210e85c133d72fed89db33a364add20d8509c",
        "516de6f13dfe071777c77bde4cf55d6a00e44e16bec18fbcd601f78130c225e8",
        "4fc009da91ceb0e2bd1374d9a3eee902d52414fc98513b3b523c74449291459c",
    ),
    (2, 2): (
        "c7b1ef28bba4ece9424a740eeb75eeb903e741d7a2ff8619956ac851f3289471",
        "45769dce4607e33120d9d49e24eca6c393de6a7242053d10119b43538aba1f8e",
        "e5c380bb9f24ee1e556c943c3e6ac545b15c5586817ac9342cc0c47b35bca9dc",
        "15ec7497e436d85a12b559bdee9278e406e81c844a862e33e3c2513c018dd6f4",
    ),
    (2, 3): (
        "0134928039560cc487d6c9a4dedb4a632fef47f97ac3ce5e8d7054a76087084e",
        "e0f5094eae54d0ff31196c2869e61a692190bcf379b3c7136a0bf48cc19f77f4",
        "40e1af62f3b7a1f8ee902c79ce4ca0b2641da5a1b8973d6f5aeaacff4d87342c",
        "95b5e43a51ed1e75e5335810b08daca25ebdc78f6b554d4d9bcdebe1865b92d6",
    ),
    (3, 1): (
        "e01ad88c67b0ea71f493a2101bce0563db1bbd534e7b3d9cfa428c0d7c6fe62b",
        "18827a35ddab89cb768e4b1aaa112814686acb3e3e363ae981cfa9978991f281",
        "17c420e44d3cebce0a23eee5a4cc8cea91c336440d16cb7099a18c1fe18d4f47",
        "ab57c71b547426c447505f1fb632b921a8a5be774509896e3dd79853e02f1cee",
    ),
    (3, 2): (
        "e2164cd5ad052fd252fecdb3b3750290f7c0aacc267d477cec27ae4127f8082e",
        "5583071da1e53446d4c52d8e22c152f9948e5a0cad20623dff12e07ff3d52971",
        "1d5026b45cc5aca67ee216b3d88ea811b5d738fb58bb75be2a79ffa3bfccef3e",
        "161b6da4c600562b5168fb8c4edfd5947e20145cc95fbd23fcb7f12c0a7a5058",
    ),
    (3, 3): (
        "8b63db976eecd5dce103c560e7e5b96207f45624de4b91789fd080e63aa56dda",
        "52adf8e71388b8bb53723ccbb9dad07da769a44e4eb955485fb95505cfdb3691",
        "cfaafa4b36dc6018e07475d5cbc03b00429aa5dcc3d14b351fa8bb992a1d3bcf",
        "ff1f1bac2765178d4a5d463714bec779fb9e3754130d0bfbac524029d9f7b61a",
    ),
    (4, 1): (
        "ac11796456f771d6d9957367b148bb38d82e993032b2b20c718fca68e486f831",
        "10c8f25a0e98f2ab085860c3cc47e2294f688b6133a413b4151d76fa38350e94",
        "1fef565993f58f01c8486b531e9e2a2a063e74a96f70fb47c5bceb506d5a640f",
        "eb04c4b37f6d93ea245d05a31624dd5c7f2f7fbbd28e443c5d8128580e10001f",
    ),
    (4, 2): (
        "5c8d82e6b83f180cf54dec00003343569f27e624471e3fadd6afa2f5301b7cbb",
        "5b46cd0f8f1e05d311c5f3343373a31a42ac7918b063fd42258c2ffc949982f5",
        "ce2bd3592f730c04578e75c364e47d821d9e4430c8e1d1fa55b03ba433658271",
        "326704b991b21a543bcc0dcb7bdceb457dab8b0bec2e9956d66be0f2eea090a3",
    ),
    (4, 3): (
        "d9ecd357ccbb649f5995fb9a6eb49f3c7894b5b38ae54c5f49219c2bac952a69",
        "68f0207e0a767e5444bb6dc8b90ef9ade34a00d32431fa3e8c585efa75ac41a4",
        "20733968f444273a4b30859bc56a7ca5443d850d8b3fbf86c093225d531a9465",
        "4d25ca862e27c571a68170987cb68551610aa0240ca4435c21cb0e46465af466",
    ),
    # Preset 2 under the literal test: it absorbs at step 620 and pushes into a wall.
    (2, 3, "literal"): (
        "2cd934bdb1a4f83e11698e48e3c7952c350e57de238b10f86e92d3218af72085",
        "a891a790654ff10d8e8046d937f24e7d5c893376958215125769f86eca440297",
        "12bf92c9f704fe43e812ed8a1c4ece1d61fa1b5b4151c665fa0d2d398f4d2d45",
        "3d8aff65025407df438dc323e6fdc3493ca14b40668d3a6f99c65c244fd01d80",
    ),
}


class TestGoldenArtifacts:
    @pytest.mark.parametrize("preset_seed", list(GOLDEN_ARTIFACTS))
    def test_artifact_bytes_are_pinned(self, preset_seed, tmp_path):
        preset, seed, *literal = preset_seed
        config = preset_config(preset, seed=seed).replace(feedback_literal_eq10=bool(literal))
        record = run_episode(config)
        emit_artifacts(record, tmp_path)
        observed = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ARTIFACT_NAMES
        )
        assert observed == GOLDEN_ARTIFACTS[preset_seed]
        assert (tmp_path / "plot.svg").read_text() == build_svg(record)


class TestMain:
    def test_run_verb(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--preset", "1", "--seed", "42", "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "probs.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "plot.svg").exists()
        assert "goal_reached" in capsys.readouterr().out

    def test_run_echoes_out_as_typed(self, tmp_path, capsys):
        # The last line keeps a trailing slash of --out.
        out = f"{tmp_path}/out/"
        assert main(["run", "--preset", "1", "--seed", "42", "--out", out]) == 0
        steps = run_episode(preset_config(1, seed=42)).total_steps
        assert capsys.readouterr().out == f"seed 42: goal_reached after {steps} steps (artifacts in {out})\n"

    @pytest.mark.parametrize(
        "argv,blocker",
        [
            (["run", "--preset", "1", "--seed", "1"], None),
            (["batch", "--preset", "1", "--seeds", "1..3"], None),
            (["batch", "--preset", "1", "--seeds", "1..3"], "seed_2"),
        ],
        ids=["run", "batch", "batch-seed-dir"],
    )
    def test_out_blocked_by_a_file_exits_with_one_error_line(self, tmp_path, capsys, argv, blocker):
        out = tmp_path / "out"
        path = out if blocker is None else out / blocker
        path.parent.mkdir(exist_ok=True)
        path.write_text("")
        code = main([*argv, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: [Errno 17] File exists: '{path}'"]
        assert "Traceback" not in captured.err
        assert captured.out == ""
        if blocker == "seed_2":
            # The batch ends at the failing seed: seeds before it keep their
            # files, later seeds never run, and no batch_summary.json is written.
            assert sorted(p.name for p in (out / "seed_1").iterdir()) == sorted(ARTIFACT_NAMES)
            assert not (out / "seed_3").exists()
            assert not (out / "batch_summary.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--preset", "1", "--seed", "7", "--out", str(out_a)]) == 0
        assert main(["run", "--preset", "1", "--seed", "7", "--out", str(out_b)]) == 0
        for name in ("trajectory.csv", "probs.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_budget_exhaustion_still_exits_zero(self, tmp_path):
        code = main(
            ["run", "--preset", "2", "--seed", "1", "--max-steps", "10", "--out", str(tmp_path / "o")]
        )
        assert code == 0

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_batch_verb(self, tmp_path, capsys, parallelism):
        # --parallelism has no effect: the output equals a run without the flag.
        out, ref = tmp_path / "batch", tmp_path / "ref"
        code = main(
            ["batch", "--preset", "1", "--seeds", "1..3", "--parallelism", parallelism,
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "batch_summary.json").read_text())
        assert doc["seeds"] == [1, 2, 3]
        assert doc["summary"]["runs"] == 3
        assert "3 runs" in capsys.readouterr().out
        assert main(["batch", "--preset", "1", "--seeds", "1..3", "--out", str(ref)]) == 0
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert len(files) == 1 + 3 * 4
        assert files == sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
        for name in files:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_batch_summary_is_run_batch_summary(self, tmp_path):
        out = tmp_path / "batch"
        assert main(["batch", "--preset", "3", "--seeds", "2..4", "--out", str(out)]) == 0
        doc = json.loads((out / "batch_summary.json").read_text())
        records = list(run_batch(preset_config(3, seed=0), range(2, 5)))
        summary = summarize([r.total_steps for r in records], sum(r.success for r in records))
        assert summary == doc["summary"]

    def test_batch_writes_each_seed_before_running_the_next(self, tmp_path, monkeypatch):
        out = tmp_path / "batch"
        started = []

        def checking_run_episode(config):
            if started:
                assert (out / f"seed_{started[-1]}" / "summary.json").exists()
            started.append(config.seed)
            return run_episode(config)

        monkeypatch.setattr("la_nav.runner.run_episode", checking_run_episode)
        assert main(["batch", "--preset", "1", "--seeds", "1..3", "--out", str(out)]) == 0
        assert started == [1, 2, 3]

    def test_batch_drops_each_record_before_the_next_episode(self, tmp_path, monkeypatch):
        # Counted relative to the records that exist before the batch starts
        # (module fixtures hold some).
        def live_records():
            gc.collect()
            return sum(isinstance(o, RunRecord) for o in gc.get_objects())

        baseline = live_records()
        live = []

        def counting_run_episode(config):
            live.append(live_records() - baseline)
            return run_episode(config)

        monkeypatch.setattr("la_nav.runner.run_episode", counting_run_episode)
        argv = ["batch", "--preset", "2", "--seeds", "1..3", "--max-steps", "50"]
        assert main([*argv, "--out", str(tmp_path / "batch")]) == 0
        assert live == [0, 0, 0]

    def test_batch_with_some_failed_seeds(self, tmp_path, capsys):
        # Goals fall only in the sliver above the box; seeds 5 and 6 never draw one.
        path = write_config(
            tmp_path,
            {
                "scheme": {"kind": "lrp", "a": 0.7},
                "max_steps": 5,
                "world": {
                    "bounds": {"min": [0, -1], "max": [1, 1]},
                    "obstacles": [{"shape": "rect", "min": [0, -1], "max": [1, 0.99986]}],
                    "random_goal": {"min_start_distance": 0},
                },
            },
        )
        out = tmp_path / "batch"
        code = main(["batch", "--config", str(path), "--seeds", "1..8", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "6 runs, 6 reached the goal (rate 1.00), median steps 0.0\n"
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("seed 5: configuration failure: no feasible goal")
        assert lines[1].startswith("seed 6: configuration failure: no feasible goal")
        doc = json.loads((out / "batch_summary.json").read_text())
        assert [f["seed"] for f in doc["failures"]] == [5, 6]
        assert [f"seed {f['seed']}: configuration failure: {f['error']}" for f in doc["failures"]] == lines
        assert doc["summary"]["runs"] == 6
        assert doc["summary"]["config_failures"] == 2
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == [f"seed_{k}" for k in (1, 2, 3, 4, 7, 8)]

        # When every seed fails there is no median: the line says n/a, the JSON null.
        out = tmp_path / "none-ran"
        code = main(["batch", "--config", str(path), "--seeds", "5..6", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().out == "0 runs, 0 reached the goal (rate 0.00), median steps n/a\n"
        doc = json.loads((out / "batch_summary.json").read_text())
        assert doc["summary"]["runs"] == 0
        assert doc["summary"]["steps"]["median"] is None

    def test_presets_verb(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "lrp" in out and "lri" in out and "penalty_only" in out
        assert "2 discs" in out
        assert out == (
            "preset  kind          a    b    obstacles  description\n"
            "1       lrp           0.7  0.7  none       reward and penalty, open workspace\n"
            "2       lri           0.7  0.0  none       reward only (failures ignored), open workspace\n"
            "3       penalty_only  0.0  0.7  none       penalty only (successes ignored), open workspace\n"
            "4       lrp           0.7  0.7  2 discs    reward and penalty, two discs blocking the direct path\n"
        )

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--seed", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_seed_range_exits_nonzero(self, tmp_path, capsys):
        code = main(["batch", "--preset", "1", "--seeds", "5..1", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize(
        "verb,prefix",
        [
            (["run", "--config", "digits.json"], "error: config field '{dir}/digits.json': invalid JSON:"),
            (["run", "--config", "deep.json"], "error: config field '{dir}/deep.json': invalid JSON:"),
            (
                ["batch", "--preset", "1", "--seeds", "1..1000000000000000000000000000000"],
                "error: config field 'seeds': range '1..1000000000000000000000000000000' holds more than",
            ),
            (
                ["run", "--config", "array.json"],
                "error: config field '{dir}/array.json': top level must be a JSON object",
            ),
            (
                ["batch", "--preset", "1", "--seeds", "abc"],
                "error: config field 'seeds': expected A..B or a single integer, got 'abc'",
            ),
        ],
        ids=["long-integer", "deep-nesting", "seed-range-overflow", "top-level-array", "seed-range-text"],
    )
    def test_unreadable_input_exits_with_one_error_line(self, tmp_path, capsys, verb, prefix):
        (tmp_path / "digits.json").write_text('{"seed": 1' + "0" * 5000 + "}")
        (tmp_path / "deep.json").write_text("[" * 100_000)
        (tmp_path / "array.json").write_text("[1, 2]")
        out = tmp_path / "o"
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in verb]
        code = main(argv + ["--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix.format(dir=tmp_path))
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("parallelism", ["0", "-3"])
    def test_parallelism_below_one_exits_nonzero(self, tmp_path, capsys, parallelism):
        out = tmp_path / "batch"
        code = main(
            ["batch", "--preset", "1", "--seeds", "1..2", "--parallelism", parallelism,
             "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'parallelism'")
        assert err.count("error:") == 1
        assert "Traceback" not in err
        assert not out.exists()

    # Each id names the config key that holds the bad number; the error names
    # the section and the field, in the words of the type that holds it.
    @pytest.mark.parametrize(
        "config,field,message",
        [
            pytest.param(
                {"robot": {"c": float("nan")}}, "robot", "wheel radius must be finite, got nan",
                id="config0-robot.c",
            ),
            pytest.param(
                {"world": {"tolerance": float("inf")}}, "world", "tolerance must be finite, got inf",
                id="config1-world.tolerance",
            ),
            pytest.param(
                {"world": {"goal": [float("-inf"), 0.0]}}, "world.goal", "goal must be finite, got -inf",
                id="config2-world.goal[0]",
            ),
            pytest.param(
                {"world": {"obstacles": [{"shape": "circle", "center": [10, 10], "radius": float("nan")}]}},
                "world.obstacles[0]",
                "circle radius must be finite, got nan",
                id="config3-world.obstacles[0].radius",
            ),
            pytest.param(
                {"robot": {"T": 10**400}},
                "robot",
                "action duration must be finite, got an integer beyond float range",
                id="config4-robot.T",
            ),
            # The bounds corners are finite JSON numbers, but beyond the world's magnitude cap.
            pytest.param(
                {"world": {"bounds": {"min": [1e308, -1e308], "max": [1.7e308, 1e308]}}},
                "world.bounds",
                "bounds min corner must be finite and at most 1e+150 cm in magnitude, got 1e+308",
                id="config5-world.bounds",
            ),
        ],
    )
    def test_non_finite_config_number_exits_nonzero(self, tmp_path, capsys, config, field, message):
        path = write_config(tmp_path, {"preset": 4, "seed": 1, **config})
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: config field '{field}': {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config",
        [
            {"preset": 1, "seed": 1, "robot": {"c": 1e200, "omega": 1e200}},  # travel overflows
            {"preset": 1, "seed": 1, "robot": {"b": 2e-308}},  # turn rate overflows
            {"preset": 3, "seed": 1, "robot": {"b": 1e-307}},  # heading overflows within the budget
        ],
        ids=["travel", "turn", "heading"],
    )
    def test_overflowing_robot_exits_nonzero(self, tmp_path, capsys, config):
        path = write_config(tmp_path, config)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config field 'robot':")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "config,prefix",
        [
            ({"preset": 1, "robot": {"b": 2e-308}}, "error: config field 'robot':"),
            (
                {"preset": 1, "world": {"bounds": {"min": [10, 10], "max": [50, 50]}}},
                "error: config field 'world.bounds':",
            ),
            (
                {"preset": 4, "world": {"goal": [20, 0]}},
                "error: config field 'world.goal': "
                "blocking pair derived from goal (20.0, 0.0) traps the start or the goal",
            ),
            ({"preset": 1, "world": {"goal": [500, 0]}}, "error: config field 'world.goal':"),
            ({"preset": 1, "max_steps": 10**400}, "error: config field 'max_steps':"),
            (
                # The family cannot fill in a rate that the config leaves out.
                {"seed": 1, "scheme": {"kind": "lrp"}},
                "error: config field 'scheme': reward-penalty scheme needs a rate",
            ),
            (
                # Every point of these bounds lies within 14.2 cm of the start, below 20 cm.
                {"preset": 1, "world": {"bounds": {"min": [-10, -10], "max": [10, 10]}}},
                "error: config field 'world.random_goal':",
            ),
            # A bounds value that is not an object is named as one, not iterated.
            *(
                (
                    {"preset": 1, "world": {"bounds": bounds}},
                    "error: config field 'world.bounds': expected an object",
                )
                for bounds in (5, None, "ab", [1, 2])
            ),
            (
                {"preset": 1, "world": {"random_goal": {"min_start_distance": -1}}},
                "error: config field 'world': min start distance must be non-negative, got -1.0",
            ),
            (
                {"preset": 1, "world": {"random_goal": 5}},
                "error: config field 'world.random_goal': expected true or an object, got 5",
            ),
            (
                {"preset": 1, "world": {"obstacles": 5}},
                "error: config field 'world.obstacles': expected a list or 'auto', got 5",
            ),
            (
                {"preset": 1, "world": {"obstacles": [5]}},
                "error: config field 'world.obstacles[0]': expected an object, got 5",
            ),
            (
                {"preset": 1, "world": {"obstacles": [{"shape": "hex"}]}},
                "error: config field 'world.obstacles[0].shape': expected 'circle' or 'rect', got 'hex'",
            ),
        ],
        ids=[
            "robot",
            "start-outside-bounds",
            "trapped-goal",
            "goal-outside-bounds",
            "max-steps-beyond-float-range",
            "scheme-without-rate",
            "random-goal-beyond-bounds",
            "bounds-number",
            "bounds-null",
            "bounds-string",
            "bounds-list",
            "negative-min-start-distance",
            "random-goal-number",
            "obstacles-number",
            "obstacle-number",
            "obstacle-unknown-shape",
        ],
    )
    def test_batch_seed_independent_error_fails_once(self, tmp_path, capsys, config, prefix):
        path = write_config(tmp_path, config)
        code = main(["run", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "run")])
        assert code == 1
        run_err = capsys.readouterr().err
        out = tmp_path / "batch"
        code = main(["batch", "--config", str(path), "--seeds", "1..4", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix)
        assert captured.err == run_err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (out / "batch_summary.json").exists()

    def test_fast_turning_robot_within_float_range_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, {"preset": 1, "seed": 1, "robot": {"b": 1e-300}})
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "goal_reached" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "verb,target",
        [(["run", "--seed", "3"], "la_nav.cli.run_episode"),
         (["batch", "--seeds", "3..4"], "la_nav.runner.run_episode")],
        ids=["run", "batch"],
    )
    def test_budget_too_large_to_record_fails_with_one_line(
        self, tmp_path, monkeypatch, capsys, verb, target
    ):
        # A frozen episode extends its columns by the rest of the budget in one
        # go, so an accepted max_steps can still be too large to record. The
        # failure is raised here, not allocated.
        def out_of_memory(config):
            raise MemoryError

        monkeypatch.setattr(target, out_of_memory)
        argv = [*verb, "--preset", "2", "--literal-eq10", "--max-steps", str(sys.maxsize)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory; a smaller max_steps needs less\n"
        assert captured.out == ""

    def test_interrupt_ends_with_one_line(self, tmp_path, monkeypatch, capsys):
        # Ctrl-C while a seed's artifacts are written.
        def interrupted(record, out_dir):
            raise KeyboardInterrupt

        monkeypatch.setattr("la_nav.cli.emit_artifacts", interrupted)
        assert main(["batch", "--preset", "2", "--seeds", "1..3", "--out", str(tmp_path / "o")]) == 130
        captured = capsys.readouterr()
        assert captured.err == "error: interrupted\n"
        assert "Traceback" not in captured.err + captured.out

    def test_goal_at_start_with_derived_discs_exits_nonzero(self, tmp_path, capsys):
        # The derived pair straddles the start-to-goal line, which has no direction here.
        path = write_config(
            tmp_path,
            {"seed": 1, "scheme": {"kind": "lrp", "a": 0.7}, "world": {"goal": [0, 0], "obstacles": "auto"}},
        )
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'world':")
        assert err.count("error:") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_seed_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LA_NAV_SEED", "42")
        out = tmp_path / "env_out"
        assert main(["run", "--preset", "1", "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["seed"] == 42

    def test_non_integer_seed_env_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LA_NAV_SEED", "4.5")
        code = main(["run", "--preset", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config field 'seed': LA_NAV_SEED must be an integer, got '4.5'\n"
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_literal_flag_recorded_in_config_echo(self, tmp_path):
        out = tmp_path / "lit"
        assert (
            main(
                ["run", "--preset", "1", "--seed", "3", "--max-steps", "5",
                 "--literal-eq10", "--out", str(out)]
            )
            == 0
        )
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"]["feedback_literal_eq10"] is True


# The directory that holds the la_nav package, for child interpreters.
PACKAGE_ROOT = str(Path(la_nav.__file__).resolve().parent.parent)


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports la_nav from ``PACKAGE_ROOT``."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestWithoutNumpy:
    def test_import_does_not_load_numpy(self):
        proc = _python("import sys, la_nav.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_batch_runs_without_numpy(self, tmp_path):
        # numpy cannot be imported in the child; its tree must equal one made here.
        out, ref = tmp_path / "no_numpy", tmp_path / "ref"
        argv = ["batch", "--preset", "4", "--seeds", "1..3"]
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from la_nav.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = _python(code, *argv, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert main([*argv, "--out", str(ref)]) == 0
        files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
        assert len(files) == 1 + 3 * 4
        assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        for name in files:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
class TestBatchMemory:
    def test_peak_memory_does_not_grow_with_the_seed_range(self, tmp_path):
        # Each seed of preset 2 runs 5000 steps; a batch that kept every
        # record would grow by about 0.4 MB per seed. The child reads VmHWM,
        # the peak of its own address space: Linux carries the forking
        # process's peak over into a child's ru_maxrss, which would hide
        # the child's own behind this test process's.
        code = (
            "import sys\n"
            "from la_nav.cli import main\n"
            "main(['batch', '--preset', '2', '--seeds', sys.argv[1], '--out', sys.argv[2]])\n"
            "status = open('/proc/self/status').read()\n"
            "print(status.split('VmHWM:')[1].split()[0])\n"
        )
        peaks = []
        for seeds in ("1..4", "1..24"):
            proc = _python(code, seeds, str(tmp_path / seeds))
            assert proc.returncode == 0, proc.stderr
            peaks.append(int(proc.stdout.splitlines()[-1]))
        assert peaks[1] - peaks[0] < 3 * 1024, peaks  # kB


@pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
class TestEmissionMemory:
    def test_peak_memory_grows_only_by_the_record_with_episode_length(self, tmp_path):
        # Preset 2 runs its whole budget. A RunRecord holds about 94 bytes
        # per step; building each file as one string added about 320 more.
        # The child reads VmHWM, as in TestBatchMemory.
        code = (
            "import sys\n"
            "from la_nav.cli import main\n"
            "main(['run', '--preset', '2', '--seed', '1', '--max-steps', sys.argv[1],"
            " '--out', sys.argv[2]])\n"
            "status = open('/proc/self/status').read()\n"
            "print(status.split('VmHWM:')[1].split()[0])\n"
        )
        peaks = []
        for steps in (10_000, 60_000):
            proc = _python(code, str(steps), str(tmp_path / str(steps)))
            assert proc.returncode == 0, proc.stderr
            peaks.append(int(proc.stdout.splitlines()[-1]))
            with open(tmp_path / str(steps) / "trajectory.csv") as fh:
                assert sum(1 for _ in fh) == steps + 1
        assert peaks[1] - peaks[0] < 50_000 * 200 // 1024, peaks  # kB


class TestStartupImports:
    def test_startup_loads_no_dataclasses_inspect_or_hashlib(self):
        # -S: no site .pth file preloads a module before la_nav does.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {PACKAGE_ROOT!r})\n"
            "import la_nav.cli\n"
            "la_nav.cli.main(['presets'])\n"
            "la_nav.cli.parse_config(None, {'preset': 1, 'seed': 1})\n"
            "print([m for m in ('dataclasses', 'inspect', 'hashlib', 'pathlib') if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_an_episode_hashes_nothing(self):
        # The record reads its digest from its config on demand; the episode never hashes.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {PACKAGE_ROOT!r})\n"
            "import la_nav\n"
            "record = la_nav.run_episode(la_nav.preset_config(1, 1).replace(max_steps=5))\n"
            "print(record.total_steps, 'hashlib' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "5 False"
