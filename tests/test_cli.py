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
# row 1. Preset 2 seed 1 pushes into a wall, so nearly all its rows repeat.
ROUND_TRIP_CONFIGS = {
    "preset1": preset_config(1, seed=42),
    "preset2": preset_config(2, seed=1),
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
        assert doc["rng_algorithm"] == "pcg64"
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
# emit_artifacts, recorded before the scalar collision rewrite and the leaner
# CSV row emission; both must keep every byte. The preset 3 rows were
# recorded before the plain-value engine and its columnar RunRecord.
GOLDEN_ARTIFACTS = {
    (1, 1): (
        "13211e91756eb38777f56c97cbd2cca61e4da480907f7339cab1bcc2f897c2fe",
        "1d353e6063f12d0145d0d093f3615bd7fbe7e107addecfeae443a2d6a2dfb08c",
        "20cd6d5bc6551d71af7ca17dcbd4f1e771fa6fbb478305d3e76e108d9b775941",
        "a0a5dd835cfd275f71f2fb539e33d1adf2c13127bba0e3033a1a94fb88e52202",
    ),
    (1, 2): (
        "52934b8c1cc0548c4d11b68a1cbf3dff9f6e4387966ddf3246d3de420f324a54",
        "e4bec39a8a7566deaa9986d90a446691ba92dc125d5891508eb378caa640361f",
        "d88f64d351585b7a6d64a30007f46b1ddd0570de5d9c24a323b8dc3cc17237a9",
        "19d3a0facf913c4d73a8a92e520d31a21aacaa493bdd34bf467ff86a2338e3f3",
    ),
    (1, 3): (
        "bbff2b8188c7cbc42dd82ef49bc888aab23336d6c403a2c1279881a3afa6c535",
        "49671e76e42cac5d51093d6e0abcc6d800ae6475b1f53c93245751472f034e55",
        "001abef2a4d5816bd0311beed4c66ce209f331852fbf077bbf559b5bfb6ad046",
        "633fd8e3311d9df5d40303457a97a5b04031e4606a3694ad5f221e7b608e01bb",
    ),
    (2, 1): (
        "83b2d38c20749e97f2dcfd611183e52e5f32a6389ab2ddc410b26b9dfe0f8bd8",
        "733180ae157db5dd78f5accc3bdc2d633cacf9ec0d1534ed85421c87e9c8b49c",
        "f363d5f9719a72194bdbb7006cb6f37ec71490cc438aa19b127ecdd4c7d183c8",
        "194531899800ba9bbdbb7f481ba7f290d880953f792a0a702b7529ba736bd6a9",
    ),
    (2, 2): (
        "e09a72a1830dc298cdab9a6ae893ab4b285f3bc0088124df8f63270c7e69ef4b",
        "6eb07818740389b329afd2ac49f4fa1ea35da8b779530d88414da0f8d3838634",
        "257f681299b6be1b3c6da461f05fa3c5c617051e4a9e21b6a6e30940072cc00f",
        "6943382a7157a54f6e9d22fffad203a277c8fee93c69ca17c33ede60446e59cc",
    ),
    (2, 3): (
        "9590be9fb0a039f64a6ca7c31b19f63ece3bc7c2458bedf205ffaf504883ada5",
        "fbf346785e7f3fac297229dad029e41b943d612202a2d468f8a7a2398ce5289f",
        "83324f375d4886dfa3d1f21c342dad68bd0abb4dcf07b51edde11903857ca3dd",
        "e5ee7879c316c863cde2fa3deba093160578764b3f478f548789f0e410cb3550",
    ),
    (3, 1): (
        "2907ef1389988ebac12a71bd5d1ae96ed48a9c853d9e10c3522f5167b4413785",
        "f7e7ae20f4a25d8f85f7d7ae4f6900e7a13b07954cbcb939cb2e6082593b150f",
        "a61be4ce29a6806dc777eb015edfc46a9eccc4ed6c766e7794efaea0018a1b62",
        "8235d9d43a00e46bee12a868384a926c22a8ea08cc8286210d749a92a408a144",
    ),
    (3, 2): (
        "eac1567391280343fb611007843689a2e573a4cd84031ed9ac183d9e3b3e4bf1",
        "46e4446ba9ec35245b73db545904ad8acfd06c0117df2cf504c0c9155faf4c99",
        "dfb82e34a76862203e4d527b15a9e0be78b4da8dbefb3c213777b5fdd1d19758",
        "b9595c4fd755219762ebcea6e5dc889b59bd2841ff7c66f69d9a5be1f6fb9a71",
    ),
    (3, 3): (
        "89675842ff841cf52be2d928ea766215a2e67e421d80f19955d631ec2b55caa4",
        "76efbce0d29c6119e0f49d24a46e0175388ba18340197309b52a3d7470fdda43",
        "9b05fdfc21c85c62e532d850aea84a32e79c58258ab619b7b34b86606a536273",
        "e4a4550d7652a161afee89d5a86e087a2647b605992fba8a4d512b5492a44bb7",
    ),
    (4, 1): (
        "351f5d7fef7a98f4c5b92b4d4ddabae2ffd66a605ff8025f2bfe5d8f4af3b995",
        "b42976a9c68261d648daa1a28d7c3537e410e6d86460fcb854241f8008a5d966",
        "3c61411c56225cb2e17913666d18357bb7f1e0cb7972048148efddda3a64ccea",
        "af5fbe514595215b7f5fd47104692f8cc21ec059c80fa6711d0b15ba1fb18d23",
    ),
    (4, 2): (
        "b7f3223bb655b13fd69b709704a81a1058b71c65c1ed2f3884fb263e389a9b6b",
        "7f0acd39b780965ee7a6254306be02b8b383893360898bc8a12cd8ffb90a1402",
        "13535e2524e97bda5c20582d758ece627faa5f1cc85a674dd4a21610854ab9a8",
        "21ebfd272d32d7d02997d302f52672b93b30f85479ca4959a4d14e27a14a1597",
    ),
    (4, 3): (
        "302975b81a16f06c690e534339f973165fe7d582610c14d2cfc5587a6bba210b",
        "2c0a323140baa5b784f81d01f1d749c2a9e27a399e241b3f3b266be6573fbf11",
        "81e1490bdaa1318e001a9ea2a4c5431cc2f8be6b291eb472bb257bba4d998eb1",
        "2e8610d172e5db9f5955d439ab5f189954dd84f4eeb6a51796be610836fd85d3",
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
