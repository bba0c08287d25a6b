"""Runner tests: episode semantics, determinism, presets, batches."""

import hashlib
import importlib.util
import math
import random
import re
import sys
from array import array
from pathlib import Path

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
    RunRecord,
    SchemeKind,
    SeedFailure,
    Termination,
    World,
    WorldSpec,
    absorbed_action,
    apply_feedback,
    build_world,
    compute_feedback,
    config_digest,
    distance_to_goal,
    goal_reached,
    init_uniform,
    integrate_action,
    move_table,
    preset_config,
    resolve_motion,
    run_batch,
    run_episode,
    select_action,
    summarize,
)

from conftest import (
    WRONG_WORLD_TYPES,
    first_move_blocked_config,
    zero_reward_general_config,
    zero_speed_config,
)


# The box fills the bounds and the start lies on its edge, outside its open
# interior: the spec builds, and only goal sampling can fail.
COVERED_BOUNDS = WorldSpec(
    bounds=Bounds(0, -1, 1, 1),
    obstacles=(RectObstacle((0.0, -1.0), (1.0, 1.0)),),
    min_start_distance=0.0,
)
# The box leaves a sliver 0.00014 cm tall above it: of seeds 1..8, all but
# 5 and 6 draw a goal there within their 10 000 draws.
PARTIAL_BOX = WorldSpec(
    bounds=Bounds(0, -1, 1, 1),
    obstacles=(RectObstacle((0.0, -1.0), (1.0, 0.99986)),),
    min_start_distance=0.0,
)


def pinned_goal_config(goal=(40.0, 0.0), seed=1, **kwargs):
    defaults = dict(
        scheme=LearningScheme("lrp", 0.7),
        seed=seed,
        world=WorldSpec(goal=goal),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# Runs whose columns must hold no -0.0: the presets, a first move that keeps
# the start pose, a robot whose move table holds -0.0, updates at rate 0, and
# the inverted success test.
NO_NEGATIVE_ZERO_CONFIGS = {
    **{f"preset{p}-seed{s}": preset_config(p, seed=s) for p in (1, 2, 3, 4) for s in (1, 2, 3)},
    "first-move-blocked": first_move_blocked_config(),
    "zero-speed": zero_speed_config(),
    "zero-reward-general": zero_reward_general_config(),
    "literal-eq10": preset_config(4, seed=1).replace(feedback_literal_eq10=True),
}


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
        # Bit for bit, pose and distance.
        for config in (preset_config(4, seed=1), preset_config(2, seed=2), first_move_blocked_config()):
            record = run_episode(config)
            assert any(record.blocked), "expected at least one blocked step for this seed"
            start = (0.0, 0.0, 0.0, math.hypot(*record.world.goal))
            rows = list(zip(record.x, record.y, record.theta, record.d))
            for before, after, blocked, flag in zip([start] + rows[:-1], rows, record.blocked, record.flag):
                if blocked:
                    assert [v.hex() for v in after] == [v.hex() for v in before]
                    assert flag == 1

    @pytest.mark.parametrize("name", sorted(NO_NEGATIVE_ZERO_CONFIGS))
    def test_no_recorded_float_is_negative_zero(self, name):
        # The artifact writers repeat a row's text while its values repeat;
        # equal floats have equal text unless one of them is -0.0.
        record = run_episode(NO_NEGATIVE_ZERO_CONFIGS[name])
        for column in (record.x, record.y, record.theta, record.d, record.probs):
            assert all(math.copysign(1.0, v) == 1.0 for v in column if v == 0.0)

    def test_obstacle_safety_in_blocking_preset(self):
        record = run_episode(preset_config(4, seed=2))
        for x, y in zip(record.x, record.y):
            assert not any(o.contains(x, y) for o in record.world.obstacles)

    def test_max_steps_budget(self):
        config = preset_config(2, seed=1).replace(max_steps=40)
        record = run_episode(config)
        assert record.terminated is Termination.MAX_STEPS_EXCEEDED
        assert record.total_steps == 40

    def test_goal_is_tested_at_step_ends_only(self):
        # Seed 1's first draw selects Forward, 2.8 cm along +y through the goal
        # centre (0, 1.4). Both ends lie 1.4 cm from it, outside the 1 cm
        # tolerance, so crossing the goal disc does not finish the episode.
        world = WorldSpec(goal=(0.0, 1.4), tolerance=1.0)
        record = run_episode(pinned_goal_config(world=world, max_steps=1))
        assert (record.action[0], record.blocked[0]) == (1, 0)
        assert (record.x[0], record.y[0]) == (0.0, 2.8)
        assert min(math.hypot(*record.world.goal), record.d[0]) > record.world.goal_tolerance
        assert record.terminated is Termination.MAX_STEPS_EXCEEDED

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


def reference_episode(config):
    """The columns of ``run_episode``'s record, and its termination, one step at a time.

    Every step draws, selects, drives, grades and updates, from the public
    step functions only: the oracle for the engine, which stops drawing,
    selecting and updating once absorbed, and appends a stalled run's rows
    without driving, grading or updating them.
    """
    rng = random.Random(config.seed)
    world = build_world(config.world, rng)
    moves = move_table(config.robot)
    probs = init_uniform(ACTION_COUNT)
    x = y = theta = 0.0
    d_prev = distance_to_goal(x, y, world)
    xs, ys, thetas, ds, prob_col = (array("d") for _ in range(5))
    actions, flags, blocks = (array("b") for _ in range(3))
    terminated = Termination.GOAL_REACHED if goal_reached(x, y, world) else Termination.MAX_STEPS_EXCEEDED
    for _ in range(config.max_steps if terminated is Termination.MAX_STEPS_EXCEEDED else 0):
        action = select_action(probs, rng.random())
        px, py, ptheta = integrate_action(x, y, theta, moves[action - 1])
        blocked = resolve_motion(x, y, px, py, world)
        if not blocked:
            x, y, theta = px, py, ptheta
        d = distance_to_goal(x, y, world)
        flag = compute_feedback(d, d_prev, literal=config.feedback_literal_eq10)
        probs = apply_feedback(probs, action, flag, config.scheme)
        row = (x, y, theta, d, action, flag, blocked)
        for column, value in zip((xs, ys, thetas, ds, actions, flags, blocks), row):
            column.append(value)
        prob_col.extend(probs)
        d_prev = d
        if goal_reached(x, y, world):
            terminated = Termination.GOAL_REACHED
            break
    return (xs, ys, thetas, ds, prob_col, actions, flags, blocks), terminated


def absorbed_at(record):
    """The first step after which ``absorbed_action`` names an action, or None."""
    for step, row in enumerate(prob_rows(record), start=1):
        if absorbed_action(row, record.config.scheme):
            return step
    return None


def stalled_steps(record):
    """The 1-based steps that repeat a blocked step whose update left the vector as it was.

    Such a step repeats its predecessor's row exactly: these are the rows
    ``run_episode`` appends in bulk instead of driving them.
    """
    rows = [init_uniform(ACTION_COUNT), *prob_rows(record)]
    action, blocked = record.action, record.blocked
    return [
        i + 1 for i in range(1, record.total_steps)
        if blocked[i - 1] and action[i] == action[i - 1] and rows[i] == rows[i - 1]
    ]


def run_spans(steps):
    """Each maximal run of consecutive steps, as ``[first, last]``."""
    spans = []
    for step in steps:
        if spans and spans[-1][1] == step - 1:
            spans[-1][1] = step
        else:
            spans.append([step, step])
    return spans


def _counting(monkeypatch, names):
    """Count the calls ``run_episode`` makes to each of ``names``."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in names:
        monkeypatch.setattr(f"la_nav.runner.{name}", counting(name, globals()[name]))
    return calls


def _columns_bytes(record):
    r = record
    return [c.tobytes() for c in (r.x, r.y, r.theta, r.d, r.probs, r.action, r.flag, r.blocked)]


def _lri(seed, **kwargs):
    return ExperimentConfig(scheme=LearningScheme("lri", 0.7), seed=seed, **kwargs)


SEEDS = range(1, 41)
DISC = CircleObstacle((0.0, 12.0), 5.0)
# Episodes whose automaton can absorb, each family with what its absorbed steps must show.
ABSORBING_CONFIGS = {
    "preset2": [preset_config(2, seed=s) for s in SEEDS],
    # A blocked move is not an improvement, so the literal test rewards it: frozen rows carry flag 0.
    "literal-lri": [_lri(s, feedback_literal_eq10=True) for s in SEEDS],
    "general-b0": [
        ExperimentConfig(scheme=LearningScheme("general", 0.7, 0.0), seed=s) for s in range(1, 11)
    ],
    # Five seeds drive straight ahead, absorb at step 618, and reach the goal 453 steps later.
    "goal-0-3000": [
        _lri(s, world=WorldSpec(goal=(0.0, 3000.0), bounds=Bounds(-100, -100, 100, 3100))) for s in SEEDS
    ],
    "bounds-15": [_lri(s, world=WorldSpec(bounds=Bounds(-15, -15, 15, 15))) for s in range(1, 11)],
    # Literal too: four seeds push into the disc, the others into the bounds.
    "listed-disc": [
        _lri(s, world=WorldSpec(goal=(30.0, 5.0), obstacles=(DISC,)), feedback_literal_eq10=True)
        for s in range(1, 11)
    ],
    # The move table holds -0.0; the literal test rewards every step, so it absorbs.
    "zero-speed-literal": [
        _lri(s, robot=RobotParams(wheel_speed=0.0), feedback_literal_eq10=True) for s in range(1, 6)
    ],
    "max-steps-1": [preset_config(2, seed=s).replace(max_steps=1) for s in range(1, 6)],
}


BOX = RectObstacle((-12.0, -20.0), (-8.0, 20.0))
LISTED_OBSTACLES = WorldSpec(goal=(30.0, 5.0), obstacles=(DISC, BOX))
# Episodes with blocked steps, each family with what its stalled runs must show.
STALLING_CONFIGS = {
    # A blocked step gets flag 0 here, and the favorable update runs at rate 0.
    "literal-penalty-only": [
        ExperimentConfig(
            scheme=LearningScheme("penalty_only", 0.0, 0.7), seed=s, feedback_literal_eq10=True
        )
        for s in range(1, 11)
    ],
    # L_R-P penalizes every blocked step, so no row repeats its predecessor.
    "preset4": [preset_config(4, seed=s) for s in range(1, 11)],
    # Seeds 10 and 12 stall against the box, 1, 11 and 12 against the disc,
    # 2 against the bounds; seed 1's runs are many and short.
    "listed-obstacles": [_lri(s, world=LISTED_OBSTACLES) for s in (1, 2, 10, 11, 12)],
    # Absorbed into a blocked move at step 620: from step 622 on, one run.
    "literal-lri-frozen": [preset_config(2, seed=3).replace(feedback_literal_eq10=True)],
}
ENGINE_CONFIGS = {**ABSORBING_CONFIGS, **STALLING_CONFIGS}
# The families with stalled runs under a vector that is not one-hot.
STALLS_BEFORE_ABSORBING = {
    "preset2", "general-b0", "goal-0-3000", "bounds-15", "literal-penalty-only", "listed-obstacles"
}


def _blocker(record, step):
    """What blocks the move of 1-based ``step``: ``"bounds"`` or the obstacle's type name."""
    i = step - 1
    start = (record.x[i - 1], record.y[i - 1], record.theta[i - 1]) if i else (0.0, 0.0, 0.0)
    px, py, _ = integrate_action(*start, record.config.moves[record.action[i] - 1])
    if not record.world.bounds.contains(px, py):
        return "bounds"
    (kind,) = {type(o).__name__ for o in record.world.obstacles if o.crosses(*start[:2], px, py)}
    return kind


class TestAbsorbedEngine:
    @pytest.mark.parametrize("family", sorted(ENGINE_CONFIGS))
    def test_every_column_matches_the_step_by_step_loop(self, family):
        records = []
        for config in ENGINE_CONFIGS[family]:
            record = run_episode(config)
            columns, terminated = reference_episode(config)
            assert _columns_bytes(record) == [c.tobytes() for c in columns], config.seed
            assert record.terminated is terminated
            records.append(record)
        if family in STALLING_CONFIGS:
            spans = [run_spans(stalled_steps(r)) for r in records]
            assert all(spans) if family != "preset4" else not any(spans)
            if family == "listed-obstacles":
                blockers = {_blocker(r, run[0] - 1) for r, runs in zip(records, spans) for run in runs}
                assert blockers == {"bounds", "CircleObstacle", "RectObstacle"}
            if family == "literal-lri-frozen":
                assert absorbed_at(records[0]) == 620
                assert spans[0][-1] == [622, records[0].total_steps]
            return
        absorbed = [r for r in records if (absorbed_at(r) or r.total_steps) < r.total_steps]
        if family == "max-steps-1":
            assert absorbed == []
            return
        assert absorbed, "no episode ran steps after absorbing"
        if family == "goal-0-3000":
            assert sum(r.success for r in absorbed) == 5
        if family in ("literal-lri", "listed-disc"):
            frozen = [r for r in absorbed if r.blocked[-1]]
            assert frozen and {r.flag[-1] for r in frozen} == {0}
        if family == "listed-disc":
            ends = [integrate_action(*r.final_pose, r.config.moves[r.action[-1] - 1]) for r in frozen]
            assert sum(r.world.bounds.contains(x, y) for r, (x, y, _) in zip(frozen, ends)) == 4

    @pytest.mark.parametrize("k", [0, 1])
    def test_budget_ending_at_absorption(self, k):
        # The budget ends on the step that absorbs, or on the first absorbed step.
        base = preset_config(2, seed=1)
        step = absorbed_at(run_episode(base))
        config = base.replace(max_steps=step + k)
        record = run_episode(config)
        columns, terminated = reference_episode(config)
        assert record.total_steps == config.max_steps
        assert _columns_bytes(record) == [c.tobytes() for c in columns]
        assert record.terminated is terminated


class TestStalledRuns:
    @pytest.mark.parametrize("family", sorted(ENGINE_CONFIGS))
    def test_moves_run_once_per_step_outside_a_run(self, family, monkeypatch):
        # A stalled run draws and selects, and nothing else; an absorbed step
        # neither draws nor selects, but drives its move unless it is in a run.
        calls = _counting(
            monkeypatch, ("select_action", "apply_feedback", "integrate_action", "resolve_motion")
        )
        stalled_before_absorbing = 0
        for config in ENGINE_CONFIGS[family]:
            calls.update(dict.fromkeys(calls, 0))
            record = run_episode(config)
            stalled = stalled_steps(record)
            live = absorbed_at(record) or record.total_steps
            early = sum(step <= live for step in stalled)
            assert calls == {
                "select_action": live,
                "apply_feedback": live - early,
                "integrate_action": record.total_steps - len(stalled),
                "resolve_motion": record.total_steps - len(stalled),
            }, config.seed
            stalled_before_absorbing += early
        # Under literal L_R-I a blocked step is rewarded, which moves the vector
        # until it is one-hot; L_R-P penalizes every blocked step.
        assert bool(stalled_before_absorbing) == (family in STALLS_BEFORE_ABSORBING)

    def test_preset2_stalls_on_a_third_of_its_steps(self):
        # Seeds 1..20 are budget-lri's block 0: 7 of them stall against a bound.
        records = [run_episode(preset_config(2, seed=s)) for s in range(1, 21)]
        stalled = [len(stalled_steps(r)) for r in records]
        assert sum(map(bool, stalled)) == 7
        assert sum(stalled) == 34_603
        assert sum(r.total_steps for r in records) == 100_000

    @pytest.mark.parametrize(
        "cut", ["stalling-step", "run-start", "mid-run", "run-end", "breaking-step"]
    )
    def test_budget_edges(self, cut):
        # Seed 1's first run is steps 5..7; the draw of step 8 ends it.
        base = _lri(1, world=LISTED_OBSTACLES)
        first, last = run_spans(stalled_steps(run_episode(base)))[0]
        assert (first, last) == (5, 7)
        steps = {
            "stalling-step": first - 1, "run-start": first, "mid-run": first + 1,
            "run-end": last, "breaking-step": last + 1,
        }[cut]
        config = base.replace(max_steps=steps)
        record = run_episode(config)
        columns, terminated = reference_episode(config)
        assert record.total_steps == steps
        assert _columns_bytes(record) == [c.tobytes() for c in columns]
        assert record.terminated is terminated


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
        with pytest.raises(ConfigError) as err:
            WorldSpec(goal=(20.0, 0.0), auto_blocking_pair=True)
        assert err.value.field == "world.goal"
        assert str(err.value) == (
            "config field 'world.goal': "
            "blocking pair derived from goal (20.0, 0.0) traps the start or the goal"
        )

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (
                # Seed 4 draws three goals: the first two land inside the box.
                WorldSpec(obstacles=(CircleObstacle((30, 5), 25), RectObstacle((-80, -90), (10, -5)))),
                [
                    ((-73.12715117751975, 69.48674738744654), 0.763774618976614),
                    ((91.20685437784988, 89.56549741186987), 0.05655136772680869),
                    ((-52.40707458162173, 8.845845059190367), 0.36995516654807925),
                    ((-86.69698086408202, -19.68179710298503), 0.9179550430877189),
                    ((24.580338977940386, 48.35739785214588), 0.7951935655656966),
                ],
            ),
            (
                # Every seed but 2 draws again: the derived pair traps the start or the goal.
                WorldSpec(auto_blocking_pair=True, bounds=Bounds(-30, -30, 30, 30), min_start_distance=0),
                [
                    ((-24.368424793545906, -28.29915140867962), 0.8357651039198697),
                    ((27.362056313354962, 26.869649223560963), 0.05655136772680869),
                    ((-29.20992050670755, 20.2481449257876), 0.25935401432800764),
                    ((22.80304508167196, -24.79690484190469), 0.6058518837198799),
                    ((24.054029505037363, -23.207642120811336), 0.46906904778216374),
                ],
            ),
        ],
        ids=["listed-obstacles", "auto-pair-tight-bounds"],
    )
    def test_random_goal_redraws_pinned(self, spec, expected):
        # A rejected goal is drawn again, x then y, and the episode's next
        # draw follows the accepted one.
        for seed, (goal, next_draw) in enumerate(expected, start=1):
            rng = random.Random(seed)
            assert build_world(spec, rng).goal == goal
            assert rng.random() == next_draw

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

    def test_rejected_draws_build_no_world(self, monkeypatch):
        # Only the accepted goal becomes a World; a rejected draw is tested, not built.
        calls = []

        def counting_world(*args):
            calls.append(args)
            return World(*args)

        monkeypatch.setattr("la_nav.runner.World", counting_world)
        with pytest.raises(InfeasibleWorldError):
            build_world(PARTIAL_BOX, random.Random(5))
        assert len(calls) == 0
        build_world(PARTIAL_BOX, random.Random(1))
        assert len(calls) == 1

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
                f"must be at most sys.maxsize = {sys.maxsize}, got more",
            ),
            (
                {"max_steps": sys.maxsize + 1},
                "max_steps",
                f"must be at most sys.maxsize = {sys.maxsize}, got more",
            ),
            ({"seed": True}, "seed", "expected an integer, got True"),
            ({"seed": 1.5}, "seed", "expected an integer, got 1.5"),
            ({"max_steps": 2.5}, "max_steps", "expected an integer, got 2.5"),
            ({"max_steps": True}, "max_steps", "expected an integer, got True"),
            ({"feedback_literal_eq10": 1}, "feedback_literal_eq10", "expected true/false, got 1"),
            ({"preset": True}, "preset", "expected an integer, got True"),
            ({"preset": 99}, "preset", "unknown preset 99; valid presets are 1-4"),
            ({"preset": -1}, "preset", "unknown preset -1; valid presets are 1-4"),
            ({"scheme": None}, "scheme", "expected a LearningScheme, got None"),
            ({"robot": {"c": 3.0}}, "robot", "expected a RobotParams, got {'c': 3.0}"),
            ({"world": None}, "world", "expected a WorldSpec, got None"),
            (
                {"robot": RobotParams(wheel_radius=1e200, wheel_speed=1e200)},
                "robot",
                "action Forward travels or turns beyond float range",
            ),
        ],
        ids=[
            "seed",
            "max_steps",
            "max_steps-beyond-float-range",
            "max_steps-beyond-maxsize",
            "seed-bool",
            "seed-float",
            "max_steps-float",
            "max_steps-bool",
            "literal-int",
            "preset-bool",
            "preset-unknown",
            "preset-negative",
            "scheme-none",
            "robot-dict",
            "world-none",
            "robot-travel-overflows",
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
        # Built, not run: each would drive sys.maxsize steps, the largest
        # budget. The heading stays 0 for a still robot and tiny for the other.
        config = ExperimentConfig(
            scheme=LearningScheme("lrp", 0.7), seed=1, robot=robot, max_steps=sys.maxsize
        )
        assert config.max_steps == sys.maxsize


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

    @pytest.mark.parametrize(
        "kwargs,field,message",
        [
            *WRONG_WORLD_TYPES,
            pytest.param(
                {"auto_blocking_pair": "no"}, "world.auto_blocking_pair", "expected true/false, got 'no'",
                id="pair-string",
            ),
            pytest.param(
                {"goal": (500.0, 0.0)},
                "world.goal",
                "goal (500.0, 0.0) outside bounds "
                "Bounds(x_min=-100.0, y_min=-100.0, x_max=100.0, y_max=100.0)",
                id="goal-outside-bounds",
            ),
            pytest.param(
                {"goal": (30.0, 0.0), "obstacles": (CircleObstacle((30.0, 0.0), 5.0),)},
                "world.goal",
                "goal (30.0, 0.0) lies inside obstacle "
                "CircleObstacle(center=(30.0, 0.0), radius=5.0)",
                id="goal-inside-obstacle",
            ),
        ],
    )
    def test_rejects_wrong_types(self, kwargs, field, message):
        with pytest.raises(ConfigError) as err:
            WorldSpec(**kwargs)
        assert str(err.value) == f"config field '{field}': {message}"


def _batch_summary(outcomes):
    """The summary that ``la-nav batch`` builds from a batch's outcomes."""
    records = [o for o in outcomes if isinstance(o, RunRecord)]
    return summarize(
        [r.total_steps for r in records], sum(r.success for r in records), len(outcomes) - len(records)
    )


class TestBatch:
    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            list(run_batch(preset_config(1, seed=0), []))

    def test_order_stable_by_seed_list(self):
        outcomes = list(run_batch(preset_config(1, seed=0), [5, 1, 3]))
        assert [type(o) for o in outcomes] == [RunRecord] * 3
        assert [r.seed for r in outcomes] == [5, 1, 3]

    def test_yields_each_seed_before_running_the_next(self, monkeypatch):
        calls = []

        def counting_run_episode(config):
            calls.append(config.seed)
            return run_episode(config)

        monkeypatch.setattr("la_nav.runner.run_episode", counting_run_episode)
        first = next(run_batch(preset_config(1, seed=0), [1, 2, 3]))
        assert calls == [1]
        assert first.seed == 1

    def test_infeasible_seed_recorded_not_raised(self):
        template = ExperimentConfig(scheme=LearningScheme("lrp", 0.7), seed=0, world=COVERED_BOUNDS)
        outcomes = list(run_batch(template, [1, 2]))
        assert [type(o) for o in outcomes] == [SeedFailure] * 2
        assert [f.seed for f in outcomes] == [1, 2]
        summary = _batch_summary(outcomes)
        assert summary["config_failures"] == 2
        assert summary["runs"] == 0
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
        records = list(run_batch(preset_config(1, seed=0), list(range(1, 11))))
        counts = sorted(r.total_steps for r in records)
        s = _batch_summary(records)
        assert s["runs"] == 10
        assert s["success_count"] == sum(r.success for r in records)
        assert s["steps"]["min"] == counts[0]
        assert s["steps"]["max"] == counts[-1]
        values = np.array(counts, dtype=float)
        assert s["steps"]["median"] == np.median(values)
        assert s["steps"]["mean"] == np.mean(values)
        for q in (10, 25, 75, 90):
            assert s["steps"][f"p{q}"] == np.percentile(values, q)
        assert 0.0 <= s["success_rate"] <= 1.0

    def test_summary_serialization(self):
        doc = _batch_summary(list(run_batch(preset_config(1, seed=0), [1, 2])))
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
        list(run_batch(template, [1, 2, 3]))
        assert len(calls) == 3

    def test_explicit_world_built_once(self, monkeypatch):
        # The spec builds its goal's world when it checks it; every seed reuses it.
        calls = []

        def counting_world(*args):
            calls.append(args)
            return World(*args)

        monkeypatch.setattr("la_nav.runner.World", counting_world)
        world = WorldSpec(goal=(40.0, 25.0), auto_blocking_pair=True)
        template = ExperimentConfig(scheme=LearningScheme("lrp", 0.7), seed=0, world=world)
        outcomes = list(run_batch(template, [1, 2, 3]))
        assert [type(o) for o in outcomes] == [RunRecord] * 3
        assert len(calls) == 1


def test_readme_library_example_runs():
    # The one ```python block of README.md, run as written.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    exec(block, {})


class TestSummarizeMatchesNumpy:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=400))
    @example([7])
    @example([3, 9])
    @example([5000, 1, 17, 17])
    @example(list(range(1, 401)))
    def test_step_statistics(self, counts):
        steps = summarize(counts, sum(n < 5000 for n in counts))["steps"]
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
        steps = summarize([], 0)["steps"]
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


def test_layer_trace_names_resolve():
    """Every function that perfbench's layer trace replaces exists where it looks it up."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layer_trace.py"
    spec = importlib.util.spec_from_file_location("layer_trace", path)
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    assert layer_trace.WRAPPED
    for key, (module, attr) in layer_trace.WRAPPED.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), (key, module, attr)
