"""CLI tests: config parsing, artifact emission, end-to-end verbs."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import la_nav

from la_nav import (
    ConfigError,
    ExperimentConfig,
    LearningScheme,
    WorldSpec,
    config_digest,
    preset_config,
    run_batch,
    run_episode,
)
from la_nav.cli import build_svg, emit_artifacts, main, parse_config

from conftest import first_move_blocked_config, zero_reward_general_config


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


class TestParseConfig:
    def test_minimal_preset_config(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "seed": 42})
        config = parse_config(path)
        assert config.preset == 1
        assert config.seed == 42
        assert config.scheme == LearningScheme.lrp(0.7)
        assert config.world.goal is None
        assert config.max_steps == 5000

    def test_preset_with_out_of_range_rate(self, tmp_path):
        path = write_config(tmp_path, {"preset": 1, "seed": 1, "scheme": {"a": 1.5}})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.field == "scheme.a"

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
        assert lri.scheme == LearningScheme.lri(0.5)
        pen = parse_config(write_config(tmp_path, {"seed": 1, "scheme": {"kind": "penalty_only", "b": 0.4}}, "b.json"))
        assert pen.scheme == LearningScheme.penalty_only(0.4)
        lrp = parse_config(write_config(tmp_path, {"seed": 1, "scheme": {"kind": "lrp", "a": 0.6}}, "c.json"))
        assert lrp.scheme == LearningScheme.lrp(0.6)

    def test_general_scheme_needs_both_rates(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1, "scheme": {"a": 0.5}})
        with pytest.raises(ConfigError):
            parse_config(path)

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
        ],
        ids=["preset1", "preset2", "preset3", "preset4", "full-world", "goal-rect"],
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


# Records that take every path of the CSV writers: a fresh row, a repeated
# pose (blocked move) and repeated probabilities (update at rate 0), also on
# row 1. Preset 2 seed 2 pushes into a wall, so nearly all its rows repeat.
ROUND_TRIP_CONFIGS = {
    "preset1": preset_config(1, seed=42),
    "preset2": preset_config(2, seed=2),
    "preset3": preset_config(3, seed=1),
    "preset4": preset_config(4, seed=1),
    "first-move-blocked": first_move_blocked_config(),
    "zero-reward-general": zero_reward_general_config(),
}


@pytest.fixture(scope="module", params=list(ROUND_TRIP_CONFIGS))
def round_trip_record(request):
    return run_episode(ROUND_TRIP_CONFIGS[request.param])


def _bits(values):
    return [float(v).hex() for v in values]


class TestArtifacts:
    def test_round_trip_trajectory_bit_equal(self, round_trip_record, tmp_path):
        artifacts = emit_artifacts(round_trip_record, tmp_path)
        with open(artifacts.trajectory_csv) as fh:
            rows = list(csv.DictReader(fh))
        rec = round_trip_record
        assert len(rows) == rec.total_steps
        for name in ("x", "y", "theta", "d"):
            assert _bits(row[name] for row in rows) == _bits(getattr(rec, name))
        for i, row in enumerate(rows):
            assert int(row["n"]) == i + 1
            assert int(row["action"]) == rec.action[i]
            assert int(row["flag"]) == rec.flag[i]
            assert int(row["blocked"]) == rec.blocked[i]

    def test_round_trip_probability_history(self, round_trip_record, tmp_path):
        artifacts = emit_artifacts(round_trip_record, tmp_path)
        with open(artifacts.probs_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == round_trip_record.total_steps
        cells = [row[f"p{i}"] for row in rows for i in range(1, 7)]
        assert _bits(cells) == _bits(round_trip_record.probs)

    def test_round_trip_records_repeat_row_one(self):
        # Row 1 has no previous row to reuse; these records repeat the start there.
        blocked = run_episode(ROUND_TRIP_CONFIGS["first-move-blocked"])
        assert (blocked.blocked[0], blocked.flag[0]) == (1, 1)
        assert 0 < sum(blocked.blocked) < blocked.total_steps
        general = run_episode(ROUND_TRIP_CONFIGS["zero-reward-general"])
        assert general.flag[0] == 0
        assert general.success

    def test_polyline_repeats_blocked_points(self):
        record = run_episode(ROUND_TRIP_CONFIGS["first-move-blocked"])
        (polyline,) = (line for line in build_svg(record).splitlines() if "<polyline" in line)
        points = polyline.split('points="')[1].split('"')[0].split(" ")
        assert len(points) == record.total_steps + 1
        for i, point in enumerate(points[1:]):
            x, y = (float(v) for v in point.split(","))
            assert (x, y) == (float(format(record.x[i], ".6g")), -float(format(record.y[i], ".6g")))

    def test_summary_contents(self, short_record, tmp_path):
        artifacts = emit_artifacts(short_record, tmp_path)
        doc = json.loads(artifacts.summary_json.read_text())
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
                scheme=LearningScheme.lrp(0.7), seed=1, world=WorldSpec(goal=(0.5, 0.5))
            )
        )
        artifacts = emit_artifacts(record, tmp_path)
        assert artifacts.trajectory_csv.read_text() == "n,x,y,theta,action,flag,d,blocked\n"
        assert artifacts.probs_csv.read_text() == "n,p1,p2,p3,p4,p5,p6\n"
        svg = artifacts.plot_svg.read_text()
        assert "polyline" not in svg
        assert 'class="goal"' in svg
        assert 'class="start"' in svg

    def test_blocking_preset_plot_has_two_obstacles(self, tmp_path):
        record = run_episode(preset_config(4, seed=2))
        svg = build_svg(record)
        assert svg.count('class="obstacle"') == 2
        assert svg.count("<polyline") == 1

    def test_emission_is_deterministic(self, short_record, tmp_path):
        a = emit_artifacts(short_record, tmp_path / "a")
        b = emit_artifacts(short_record, tmp_path / "b")
        for name in ("trajectory_csv", "probs_csv", "summary_json", "plot_svg"):
            assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()


# sha256 of (trajectory.csv, probs.csv, summary.json, plot.svg) written by
# emit_artifacts for episodes that draw from random.Random(seed). A change
# that keeps behaviour must keep every byte.
GOLDEN_ARTIFACTS = {
    (1, 1): (
        "29ca556405f06830851fff398de190b6d9b1d2468de61e0e0ad8fe24b87d69fa",
        "bdfe42522b5568d7ab7c46fbe30b20753b168e0cd8db49db5c4aba2896c294c8",
        "2b725d816f06ec95a92a9f11219b0778444ba7a0b83bf306d144c5b27ce027e9",
        "e89761260067fc9dde16e0027ec8b28fb52f1a3d03d185c0557b3f22d2af5300",
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
        "ab06966dae814ea2eae4f33215e5fc6d0fe52905d8f66b8ecb44bfbae629966e",
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
        "51cb5cbb1ebbb40cb0718269addac0daa56679b6ec130dd507a236f959c69147",
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
        "04862a60b081091b9107474a5570cc2eaba32d495838b816bbdb47716f2e2f61",
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
}


ARTIFACT_NAMES = ("trajectory_csv", "probs_csv", "summary_json", "plot_svg")


class TestGoldenArtifacts:
    @pytest.mark.parametrize("preset_seed", sorted(GOLDEN_ARTIFACTS))
    def test_artifact_bytes_are_pinned(self, preset_seed, tmp_path):
        preset, seed = preset_seed
        artifacts = emit_artifacts(run_episode(preset_config(preset, seed=seed)), tmp_path)
        observed = tuple(
            hashlib.sha256(getattr(artifacts, name).read_bytes()).hexdigest()
            for name in ARTIFACT_NAMES
        )
        assert observed == GOLDEN_ARTIFACTS[preset_seed]


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
        assert run_batch(preset_config(3, seed=0), range(2, 5)).summary == doc["summary"]

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
        ],
        ids=["long-integer", "deep-nesting", "seed-range-overflow"],
    )
    def test_unreadable_input_exits_with_one_error_line(self, tmp_path, capsys, verb, prefix):
        (tmp_path / "digits.json").write_text('{"seed": 1' + "0" * 5000 + "}")
        (tmp_path / "deep.json").write_text("[" * 100_000)
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

    @pytest.mark.parametrize(
        "config,field",
        [
            ({"robot": {"c": float("nan")}}, "robot.c"),
            ({"world": {"tolerance": float("inf")}}, "world.tolerance"),
            ({"world": {"goal": [float("-inf"), 0.0]}}, "world.goal[0]"),
            (
                {"world": {"obstacles": [{"shape": "circle", "center": [10, 10], "radius": float("nan")}]}},
                "world.obstacles[0].radius",
            ),
            ({"robot": {"T": 10**400}}, "robot.T"),
            ({"world": {"bounds": {"min": [1e308, -1e308], "max": [1.7e308, 1e308]}}}, "world.bounds"),
        ],
    )
    def test_non_finite_config_number_exits_nonzero(self, tmp_path, capsys, config, field):
        path = write_config(tmp_path, {"preset": 4, "seed": 1, **config})
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        # The bounds corners are finite JSON numbers, but beyond the world's magnitude cap.
        message = "expected a finite number"
        if field == "world.bounds":
            message = "bounds x_min must be finite and at most 1e+150 cm"
        assert captured.err.startswith(f"error: config field '{field}': {message}")
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err
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
            ({"preset": 4, "world": {"goal": [20, 0]}}, "error: blocking pair derived from goal"),
            ({"preset": 1, "world": {"goal": [500, 0]}}, "error: config field 'world.goal':"),
            ({"preset": 1, "max_steps": 10**400}, "error: config field 'max_steps':"),
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
        ],
        ids=[
            "robot",
            "start-outside-bounds",
            "trapped-goal",
            "goal-outside-bounds",
            "max-steps-beyond-float-range",
            "random-goal-beyond-bounds",
            "bounds-number",
            "bounds-null",
            "bounds-string",
            "bounds-list",
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


class TestStartupImports:
    def test_startup_loads_no_dataclasses_inspect_or_hashlib(self):
        # -S: no site .pth file preloads a module before la_nav does.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {PACKAGE_ROOT!r})\n"
            "import la_nav.cli\n"
            "la_nav.cli.main(['presets'])\n"
            "la_nav.cli.parse_config(None, {'preset': 1, 'seed': 1})\n"
            "print([m for m in ('dataclasses', 'inspect', 'hashlib') if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
