"""Runner tests: episode semantics, determinism, presets, batches."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from la_nav import (
    ACTION_COUNT,
    Bounds,
    CircleObstacle,
    ConfigError,
    ExperimentConfig,
    InfeasibleWorldError,
    LearningScheme,
    RectObstacle,
    RobotParams,
    SchemeKind,
    Termination,
    WorldSpec,
    build_world,
    config_digest,
    move_table,
    preset_config,
    run_batch,
    run_episode,
    summarize,
)

from conftest import first_move_blocked_config


# The box fills the bounds and the start lies on its edge, outside its open
# interior: the spec builds, and only goal sampling can fail.
COVERED_BOUNDS = WorldSpec(
    bounds=Bounds(0, -1, 1, 1),
    obstacles=(RectObstacle((0.0, -1.0), (1.0, 1.0)),),
    min_start_distance=0.0,
)


def pinned_goal_config(goal=(40.0, 0.0), seed=1, **kwargs):
    defaults = dict(
        scheme=LearningScheme.lrp(0.7),
        seed=seed,
        world=WorldSpec(goal=goal),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def prob_rows(record):
    """The probability vector after each step, as tuples."""
    r = ACTION_COUNT
    return [tuple(record.probs[i * r : (i + 1) * r]) for i in range(record.total_steps)]


class TestEpisode:
    def test_goal_at_start_terminates_before_any_action(self):
        record = run_episode(pinned_goal_config(goal=(0.5, 0.5)))
        assert record.terminated is Termination.GOAL_REACHED
        assert record.total_steps == 0
        assert len(record.x) == len(record.probs) == 0
        assert record.final_pose == (0.0, 0.0, 0.0)

    def test_same_seed_reproduces_record(self):
        config = preset_config(1, seed=17)
        first = run_episode(config)
        second = run_episode(config)
        assert first == second  # every column, the world and the digest

    def test_goal_reached_implies_final_pose_within_tolerance(self):
        record = run_episode(preset_config(1, seed=23))
        assert record.terminated is Termination.GOAL_REACHED
        x, y, _theta = record.final_pose
        goal = record.world.goal
        assert math.hypot(x - goal[0], y - goal[1]) <= record.world.goal_tolerance

    def test_distance_bookkeeping_is_exact(self):
        # Each d is the goal distance of its row's pose, and each flag
        # compares it with the previous row's d (the start's for row 1).
        record = run_episode(preset_config(1, seed=5))
        gx, gy = record.world.goal
        d_before = [math.hypot(gx, gy)] + list(record.d[:-1])
        for x, y, d, prev, flag in zip(record.x, record.y, record.d, d_before, record.flag):
            assert d == math.hypot(x - gx, y - gy)
            assert flag == (0 if d < prev else 1)

    def test_step_indices_and_count(self):
        record = run_episode(preset_config(1, seed=5))
        columns = (record.x, record.y, record.theta, record.d, record.action, record.flag, record.blocked)
        assert record.total_steps > 0
        assert {len(c) for c in columns} == {record.total_steps}
        assert len(record.probs) == ACTION_COUNT * record.total_steps
        assert record.final_pose == (record.x[-1], record.y[-1], record.theta[-1])

    def test_probabilities_stay_valid_every_step(self):
        record = run_episode(preset_config(1, seed=8))
        for row in prob_rows(record):
            assert abs(sum(row) - 1.0) <= 1e-9

    def test_feedback_updates_are_consistent(self):
        record = run_episode(preset_config(1, seed=9))
        probs_before = (1 / 6,) * 6
        for action, flag, probs_after in zip(record.action, record.flag, prob_rows(record)):
            idx = action - 1
            if flag == 0 and probs_before[idx] < 1.0:
                assert probs_after[idx] > probs_before[idx]
            elif flag == 1 and probs_before[idx] > 0.0:
                assert probs_after[idx] < probs_before[idx]
            probs_before = probs_after

    def test_blocked_steps_keep_pose_and_fail(self):
        # Bit for bit, pose and distance: the CSV writers reuse the previous row's text.
        for config in (preset_config(4, seed=1), preset_config(2, seed=2), first_move_blocked_config()):
            record = run_episode(config)
            assert any(record.blocked), "expected at least one blocked step for this seed"
            start = (0.0, 0.0, 0.0, math.hypot(*record.world.goal))
            rows = list(zip(record.x, record.y, record.theta, record.d))
            for before, after, blocked, flag in zip([start] + rows[:-1], rows, record.blocked, record.flag):
                if blocked:
                    assert [v.hex() for v in after] == [v.hex() for v in before]
                    assert flag == 1

    def test_obstacle_safety_in_blocking_preset(self):
        record = run_episode(preset_config(4, seed=2))
        for x, y in zip(record.x, record.y):
            assert not any(o.contains(x, y) for o in record.world.obstacles)

    def test_max_steps_budget(self):
        config = preset_config(2, seed=1).replace(max_steps=40)
        record = run_episode(config)
        assert record.terminated is Termination.MAX_STEPS_EXCEEDED
        assert record.total_steps == 40

    def test_rng_algorithm_recorded(self):
        record = run_episode(pinned_goal_config())
        assert record.rng_algorithm == "mt19937"

    def test_overflowing_robot_fails_at_construction(self):
        with pytest.raises(ConfigError) as err:
            pinned_goal_config(robot=RobotParams(axle_length=2e-308))
        assert err.value.field == "robot"

    def test_start_inside_obstacle_fails_before_stepping(self):
        with pytest.raises(ConfigError):
            WorldSpec(goal=(40.0, 0.0), obstacles=(CircleObstacle((0.0, 0.0), 5.0),))

    def test_literal_feedback_flag_flips_polarity(self):
        base = pinned_goal_config(max_steps=50)
        literal = base.replace(feedback_literal_eq10=True)
        rec_a = run_episode(base)
        rec_b = run_episode(literal)
        # same first draw and action, opposite grading of the first step
        assert rec_a.action[0] == rec_b.action[0]
        assert (rec_a.x[0], rec_a.y[0]) == (rec_b.x[0], rec_b.y[0])
        assert rec_a.flag[0] != rec_b.flag[0]


class TestWorldBuilding:
    def test_explicit_goal_is_used_verbatim(self):
        rng = np.random.Generator(np.random.PCG64(0))
        world = build_world(WorldSpec(goal=(12.0, -7.0)), rng)
        assert world.goal == (12.0, -7.0)
        assert world.obstacles == ()

    def test_explicit_goal_outside_bounds_is_config_error(self):
        with pytest.raises(ConfigError):
            WorldSpec(goal=(500.0, 0.0))

    @pytest.mark.parametrize(
        "goal,message",
        [
            ((1e200, 0.0), "goal must be finite and at most 1e+150 cm in magnitude, got 1e+200"),
            ((10**400, 0.0), "goal must be finite, got an integer beyond float range"),
        ],
        ids=["beyond-magnitude-cap", "integer-beyond-float-range"],
    )
    def test_explicit_goal_beyond_range_is_config_error(self, goal, message):
        with pytest.raises(ConfigError) as err:
            WorldSpec(goal=goal)
        assert str(err.value) == f"config field 'world.goal': {message}"

    def test_explicit_goal_inside_obstacle_is_config_error(self):
        with pytest.raises(ConfigError):
            WorldSpec(goal=(30.0, 0.0), obstacles=(CircleObstacle((30.0, 0.0), 5.0),))

    def test_random_goal_determinism(self):
        spec = WorldSpec()
        w1 = build_world(spec, np.random.Generator(np.random.PCG64(42)))
        w2 = build_world(spec, np.random.Generator(np.random.PCG64(42)))
        assert w1.goal == w2.goal

    def test_blocking_pair_geometry(self):
        rng = np.random.Generator(np.random.PCG64(0))
        goal = (90.0, 0.0)
        world = build_world(WorldSpec(goal=goal, auto_blocking_pair=True), rng)
        near, far = world.obstacles
        assert near.center == pytest.approx((30.0, 5.0))
        assert far.center == pytest.approx((60.0, -5.0))
        assert near.radius == far.radius == 10.0

    def test_blocking_pair_rejects_trapped_goal(self):
        # A goal this close leaves the far disc overlapping the goal disc.
        with pytest.raises(InfeasibleWorldError):
            WorldSpec(goal=(20.0, 0.0), auto_blocking_pair=True)

    def test_blocking_pair_never_traps_random_goals(self):
        for seed in range(40):
            rng = np.random.Generator(np.random.PCG64(seed))
            world = build_world(WorldSpec(auto_blocking_pair=True), rng)
            for obs in world.obstacles:
                assert obs.exterior_clearance(0.0, 0.0) > 0.0
                assert obs.exterior_clearance(*world.goal) > world.goal_tolerance

    def test_infeasible_sampling_raises(self):
        with pytest.raises(InfeasibleWorldError):
            build_world(COVERED_BOUNDS, np.random.Generator(np.random.PCG64(1)))
        # No point of these bounds lies 5 cm from the start, for any seed.
        with pytest.raises(ConfigError) as err:
            WorldSpec(bounds=Bounds(-1, -1, 1, 1), min_start_distance=5.0)
        assert err.value.field == "world.random_goal"
        # A disc over the start fails when the spec is built, before any draw.
        with pytest.raises(ConfigError):
            WorldSpec(
                bounds=Bounds(-1, -1, 1, 1),
                obstacles=(CircleObstacle((0.0, 0.0), 10.0),),
                min_start_distance=0.0,
            )

    def test_spec_rejects_obstacles_with_auto_pair(self):
        with pytest.raises(ValueError):
            WorldSpec(auto_blocking_pair=True, obstacles=(CircleObstacle((5.0, 5.0), 1.0),))


class TestDigest:
    def test_digest_depends_on_seed(self):
        a = config_digest(preset_config(1, seed=1))
        b = config_digest(preset_config(1, seed=2))
        assert a != b

    def test_digest_is_stable(self):
        config = preset_config(4, seed=3)
        assert config_digest(config) == config_digest(config)

    def test_config_roundtrip_dict_shape(self):
        d = preset_config(4, seed=3).to_dict()
        assert d["scheme"] == {"kind": "lrp", "a": 0.7, "b": 0.7}
        assert d["robot"] == {"c": 2.8, "b": 12.0, "omega": 2.0, "T": 0.5}
        assert d["world"]["obstacles"] == "auto"
        assert d["world"]["random_goal"] == {"min_start_distance": 20.0}


class TestPresets:
    @pytest.mark.parametrize(
        "preset,kind,a,b,auto",
        [
            (1, SchemeKind.LRP, 0.7, 0.7, False),
            (2, SchemeKind.LRI, 0.7, 0.0, False),
            (3, SchemeKind.PENALTY_ONLY, 0.0, 0.7, False),
            (4, SchemeKind.LRP, 0.7, 0.7, True),
        ],
    )
    def test_expansion(self, preset, kind, a, b, auto):
        config = preset_config(preset, seed=0)
        assert config.scheme.kind is kind
        assert config.scheme.reward_rate == a
        assert config.scheme.penalty_rate == b
        assert config.world.auto_blocking_pair is auto
        assert config.max_steps == 5000
        assert config.preset == preset

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config(9, seed=0)
        # True == 1 and [1] is unhashable: ids that are not ints are unknown too.
        for preset in (True, [1]):
            with pytest.raises(ConfigError) as err:
                preset_config(preset, seed=0)
            assert str(err.value) == (
                f"config field 'preset': unknown preset {preset!r}; valid presets are 1-4"
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field,message",
        [
            ({"seed": -1}, "seed", "must be non-negative, got -1"),
            ({"max_steps": 0}, "max_steps", "must be >= 1, got 0"),
            (
                {"max_steps": 10**400},
                "max_steps",
                "must be at most 1.79769e+308, got an integer beyond float range",
            ),
            ({"seed": True}, "seed", "expected an integer, got True"),
            ({"seed": 1.5}, "seed", "expected an integer, got 1.5"),
            ({"max_steps": 2.5}, "max_steps", "expected an integer, got 2.5"),
            ({"max_steps": True}, "max_steps", "expected an integer, got True"),
            ({"feedback_literal_eq10": 1}, "feedback_literal_eq10", "expected true/false, got 1"),
            ({"preset": True}, "preset", "expected an integer, got True"),
        ],
        ids=[
            "seed",
            "max_steps",
            "max_steps-beyond-float-range",
            "seed-bool",
            "seed-float",
            "max_steps-float",
            "max_steps-bool",
            "literal-int",
            "preset-bool",
        ],
    )
    def test_rejects_negative_seed_and_empty_budget(self, kwargs, field, message):
        with pytest.raises(ConfigError) as err:
            preset_config(1, seed=0).replace(**kwargs)
        assert str(err.value) == f"config field '{field}': {message}"

    @pytest.mark.parametrize(
        "robot",
        [RobotParams(wheel_speed=0.0), RobotParams(axle_length=1e300)],
        ids=["never-turns", "turns-slowly"],
    )
    def test_huge_budget_builds_when_heading_stays_finite(self, robot):
        # Built, not run: each would drive about 1e308 steps. The heading
        # stays 0 for a still robot and below about 6e8 rad for the other.
        config = ExperimentConfig(
            scheme=LearningScheme.lrp(0.7), seed=1, robot=robot, max_steps=10**308
        )
        assert config.max_steps == 10**308


class TestWorldSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": math.nan},
            {"tolerance": 0.0},
            {"min_start_distance": math.nan},
            {"tolerance": 10**400},
            {"tolerance": math.inf},
            {"min_start_distance": 10**400},
        ],
    )
    def test_rejects_non_positive_or_nan(self, kwargs):
        with pytest.raises(ValueError):
            WorldSpec(**kwargs)

    def test_start_outside_bounds_is_config_error(self):
        with pytest.raises(ConfigError) as err:
            WorldSpec(bounds=Bounds(10, 10, 50, 50))
        assert err.value.field == "world.bounds"


class TestBatch:
    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_batch(preset_config(1, seed=0), [])

    def test_order_stable_by_seed_list(self):
        result = run_batch(preset_config(1, seed=0), [5, 1, 3])
        assert [r.seed for r in result.records] == [5, 1, 3]

    def test_infeasible_seed_recorded_not_raised(self):
        template = ExperimentConfig(scheme=LearningScheme.lrp(0.7), seed=0, world=COVERED_BOUNDS)
        result = run_batch(template, [1, 2])
        assert result.records == ()
        assert [f.seed for f in result.failures] == [1, 2]
        assert result.summary["config_failures"] == 2
        assert result.summary["runs"] == 0
        # A random goal that no point of the bounds allows is not a per-seed failure either.
        with pytest.raises(ConfigError):
            WorldSpec(bounds=Bounds(-1, -1, 1, 1), min_start_distance=5.0)
        # A disc over the start is not a per-seed failure: the spec cannot be built.
        with pytest.raises(ConfigError):
            WorldSpec(
                bounds=Bounds(-1, -1, 1, 1),
                obstacles=(CircleObstacle((0.0, 0.0), 10.0),),
                min_start_distance=0.0,
            )

    def test_summary_statistics(self):
        result = run_batch(preset_config(1, seed=0), list(range(1, 11)))
        counts = sorted(r.total_steps for r in result.records)
        s = result.summary
        assert s["runs"] == 10
        assert s["success_count"] == sum(r.success for r in result.records)
        assert s["steps"]["min"] == counts[0]
        assert s["steps"]["max"] == counts[-1]
        values = np.array(counts, dtype=float)
        assert s["steps"]["median"] == np.median(values)
        assert s["steps"]["mean"] == np.mean(values)
        for q in (10, 25, 75, 90):
            assert s["steps"][f"p{q}"] == np.percentile(values, q)
        assert 0.0 <= s["success_rate"] <= 1.0

    def test_summary_serialization(self):
        result = run_batch(preset_config(1, seed=0), [1, 2])
        doc = result.summary
        assert set(doc) == {"runs", "config_failures", "success_count", "success_rate", "steps"}
        assert set(doc["steps"]) == {"mean", "median", "p10", "p25", "p75", "p90", "min", "max"}

    def test_move_table_built_once_per_seed(self, monkeypatch):
        # Only the check in ExperimentConfig builds the table; the episode reuses it.
        template = preset_config(1, seed=0)
        calls = []

        def counting_move_table(params):
            calls.append(params)
            return move_table(params)

        monkeypatch.setattr("la_nav.runner.move_table", counting_move_table)
        run_batch(template, [1, 2, 3])
        assert len(calls) == 3


def _records(counts):
    return tuple(SimpleNamespace(total_steps=n, success=n < 5000) for n in counts)


class TestSummarizeMatchesNumpy:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=400))
    @example([7])
    @example([3, 9])
    @example([5000, 1, 17, 17])
    @example(list(range(1, 401)))
    def test_step_statistics(self, counts):
        steps = summarize(_records(counts))["steps"]
        values = np.array(counts, dtype=float)
        p10, p25, p75, p90 = np.percentile(values, [10, 25, 75, 90])
        expected = {
            "mean": float(values.mean()),
            "median": float(np.median(values)),
            "p10": float(p10),
            "p25": float(p25),
            "p75": float(p75),
            "p90": float(p90),
            "min": int(values.min()),
            "max": int(values.max()),
        }
        assert steps == expected
        assert [type(v) for v in steps.values()] == [type(v) for v in expected.values()]

    def test_no_records(self):
        steps = summarize(())["steps"]
        assert list(steps) == ["mean", "median", "p10", "p25", "p75", "p90", "min", "max"]
        assert set(steps.values()) == {None}


# (total_steps, sha256 over the per-step "action,flag,blocked;" records) for
# seeds 1..5 of each preset. Any change to selection, kinematics, collision,
# grading or the update rules that alters an episode's decisions shows here.
GOLDEN_EPISODES = {
    1: [
        (237, "529c0ceb4a6c3744ecd7d887cbd12b7f2c1e19e9130f09a6e67b02a37fa3a6eb"),
        (180, "fac313986f5c733a241c2abd3159e25df5e474bd56b5d66f2f1f7d97ee77efa2"),
        (94, "ea512617db4c4eeb47efdab225dd380f8a9e86d0157ab8da8e0639212e611aa7"),
        (220, "9a688380215e61b485a97c1b297b48b65be11fcd8ac5bc2426c4f5580ef54920"),
        (145, "54d56bee4481badae13eaa7712b342feea96d752b8053a3c50c56021633584cc"),
    ],
    2: [
        (5000, "186c03d3cf41a7d754e47d668bda242519d1c75ca811ec09e6effa2a8788c9a7"),
        (5000, "b3a0fe28b9573c9ee312aff088d7b28c489c325bcae6fa8768669a4f56cf562b"),
        (5000, "306acef732dc73b248ecf2d4ff6eb89141efab74438988ee0458e7dac21193d5"),
        (5000, "2fdc2b01ef157883be50114871cc595e724572d9effeefbe4570314459664688"),
        (5000, "f95ffaae044675f8506911956d772dd28d75aef520805bc6f1dffeccc3f4b030"),
    ],
    3: [
        (666, "8b96f0bf61a63a8a795f3849988d30c28fe897302c678f46e8b299c24574d46c"),
        (768, "91fde3ebfb31fc3cbb5abf2b182f61d89b0be95f209dc4f0f44f449c1e8f3b8d"),
        (312, "4c71f3ecd8de53ce9324236f52be942ff8aaca1acad08a401edbf3350b68cb3b"),
        (699, "7accfc9f43c2f390a7937a84c3d5556d7a5f447efa292eacf29b26643b7409b5"),
        (1397, "7361601042c881202d37efc3177e5394eef8ecc440b4771f06ec13ceeaeb65f7"),
    ],
    4: [
        (266, "0e1babd704a5182eaee8e33e8d2744c13094a155743df77c68b28972142c742d"),
        (247, "692f4225c32bb33c9cfd83332c8442ba508e86fb545842d537a7cb6bf57e7290"),
        (184, "89f5fad43a307fdd2195ab59e07ce74f6b001c98067a5e26efddb73d64898053"),
        (265, "2b3ca0c0a56634e94e525473da722792b8c9e6c39d4f5c5164e691d518ae55fc"),
        (290, "0c16055f952ab06f0b798f25763257151e2bcac0bba2284f9a36330023286c54"),
    ],
}


class TestGoldenBehaviour:
    @pytest.mark.parametrize("preset", sorted(GOLDEN_EPISODES))
    def test_decision_sequences_are_pinned(self, preset):
        observed = []
        for seed in range(1, 6):
            record = run_episode(preset_config(preset, seed=seed))
            digest = hashlib.sha256()
            for action, flag, blocked in zip(record.action, record.flag, record.blocked):
                digest.update(f"{action},{flag},{blocked};".encode("ascii"))
            observed.append((record.total_steps, digest.hexdigest()))
        assert observed == GOLDEN_EPISODES[preset]
