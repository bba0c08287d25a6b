"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance]`` line with its measured numbers,
so a verbose run doubles as the acceptance report. The statistical gates
use the fixed seed range 1..100 and are fully deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from la_nav import (
    Action,
    ProbabilityVector,
    RobotParams,
    RunRecord,
    init_uniform,
    integrate_action,
    move_table,
    preset_config,
    run_batch,
    run_episode,
    select_action,
    update_p_favorable,
    update_p_unfavorable,
    update_s_model,
)
from la_nav.cli import emit_artifacts

SEEDS = list(range(1, 101))


def report(criterion: int, name: str, detail: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS ({detail})")


# --- independent brute-force evaluators (kept deliberately naive) ----------

def oracle_favorable(probs, chosen, a):
    out = []
    for j, v in enumerate(probs, start=1):
        if j == chosen:
            out.append(v + a * (1.0 - v))
        else:
            out.append((1.0 - a) * v)
    return out


def oracle_unfavorable(probs, chosen, b):
    r = len(probs)
    out = []
    for j, v in enumerate(probs, start=1):
        if j == chosen:
            out.append((1.0 - b) * v)
        else:
            out.append(b / (r - 1) + (1.0 - b) * v)
    return out


def oracle_graded(probs, chosen, beta, a):
    out = []
    for j, v in enumerate(probs, start=1):
        if j == chosen:
            out.append(v + a * (1.0 - beta) * (1.0 - v))
        else:
            out.append(v - a * (1.0 - beta) * v)
    return out


def oracle_scan(probs, z):
    cum = 0.0
    for idx, v in enumerate(probs, start=1):
        cum += v
        if cum >= z:
            return idx
    return len(probs)


def random_vector(rng, r):
    raw = rng.uniform(0.001, 1.0, r)
    return ProbabilityVector(tuple(raw / raw.sum()))


@pytest.fixture(scope="module")
def preset1_batch():
    start = time.perf_counter()
    outcomes = list(run_batch(preset_config(1, seed=0), SEEDS))
    wall = time.perf_counter() - start
    return outcomes, wall


def test_criterion_1_update_rules_match_brute_force_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100_000):
        r = int(rng.integers(2, 9))
        p = random_vector(rng, r)
        chosen = int(rng.integers(1, r + 1))
        a = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.0, 1.0))
        beta = float(rng.uniform(0.0, 1.0))
        rate = float(rng.uniform(0.01, 0.99))
        for got, want in (
            (update_p_favorable(p, chosen, a), oracle_favorable(p, chosen, a)),
            (update_p_unfavorable(p, chosen, b), oracle_unfavorable(p, chosen, b)),
            (update_s_model(p, chosen, beta, rate), oracle_graded(p, chosen, beta, rate)),
        ):
            for g, w in zip(got, want):
                diff = abs(g - w)
                if diff > worst:
                    worst = diff
    wall = time.perf_counter() - start
    assert worst <= 1e-12
    assert wall < 10.0
    report(1, "update-rule oracle equivalence", f"max component diff {worst:.2e}, {wall:.1f}s")


def test_criterion_2_normalization_never_drifts():
    rng = np.random.default_rng(202)
    n = 1_000_000
    ops = rng.integers(0, 3, n)
    actions = rng.integers(1, 7, n)
    params = rng.uniform(0.0, 1.0, n)
    responses = rng.uniform(0.0, 1.0, n)
    p = init_uniform(6)
    worst_drift = 0.0
    start = time.perf_counter()
    for i in range(n):
        op = ops[i]
        chosen = int(actions[i])
        if op == 0:
            p = update_p_favorable(p, chosen, params[i])
        elif op == 1:
            p = update_p_unfavorable(p, chosen, params[i])
        else:
            p = update_s_model(p, chosen, responses[i], min(max(params[i], 0.01), 0.99))
        drift = abs(sum(p) - 1.0)
        if drift > worst_drift:
            worst_drift = drift
        lo, hi = min(p), max(p)
        assert 0.0 <= lo and hi <= 1.0
    wall = time.perf_counter() - start
    assert worst_drift <= 1e-9
    assert wall < 30.0
    report(2, "normalization invariant", f"max |sum-1| {worst_drift:.2e} over {n} updates, {wall:.1f}s")


def test_criterion_3_selection_fidelity():
    p = ProbabilityVector((0.1, 0.2, 0.3, 0.15, 0.15, 0.1))
    rng = np.random.Generator(np.random.PCG64(303))
    n = 100_000
    counts = np.zeros(6)
    for _ in range(n):
        counts[select_action(p, float(rng.random())) - 1] += 1
    chi = stats.chisquare(counts, f_exp=np.array(p) * n)
    assert chi.pvalue > 0.01

    mismatches = 0
    for _ in range(10_000):
        r = int(rng.integers(2, 9))
        vec = random_vector(rng, r)
        z = float(rng.random())
        if select_action(vec, z) != oracle_scan(vec, z):
            mismatches += 1
    assert mismatches == 0
    report(3, "selection fidelity", f"chi-square p={chi.pvalue:.3f}, 0 oracle mismatches")


def test_criterion_4_kinematic_closure():
    params = RobotParams()
    circle_T = 2 * math.pi * params.axle_length / (params.wheel_radius * params.wheel_speed)
    circle_move = move_table(params.replace(action_duration=circle_T))[Action.RIGHT_FORWARD - 1]
    end_x, end_y, _ = integrate_action(0.0, 0.0, 0.0, circle_move)
    closure = math.hypot(end_x, end_y)
    assert closure < 1e-4

    straight_x, straight_y, _ = integrate_action(0.0, 0.0, 0.0, move_table(params)[Action.FORWARD - 1])
    expected = params.wheel_radius * params.wheel_speed * params.action_duration
    line_err = abs(straight_y - expected)
    assert line_err < 1e-9
    assert abs(straight_x) < 1e-9
    report(4, "kinematic closure", f"circle gap {closure:.2e} cm, line err {line_err:.2e} cm")


def test_criterion_5_reward_penalty_preset_converges(preset1_batch):
    records, wall = preset1_batch
    assert [type(r) for r in records] == [RunRecord] * len(SEEDS)
    for record in records:
        assert math.hypot(*record.world.goal) >= 20.0
        assert record.config.max_steps == 5000
    successes = sum(r.success for r in records)
    assert successes >= 90
    assert wall < 60.0
    report(5, "reward-penalty convergence", f"{successes}/100 goals, wall {wall:.1f}s")


def test_criterion_6_one_sided_schemes_are_slower(preset1_batch):
    records, _ = preset1_batch
    median_1 = float(np.median([r.total_steps for r in records]))
    goals_1 = {r.seed: r.world.goal for r in records}

    medians = {}
    for preset in (2, 3):
        counts = []
        for seed in SEEDS:
            record = run_episode(preset_config(preset, seed))
            counts.append(record.total_steps)
            assert record.world.goal == goals_1[seed]
        medians[preset] = float(np.median(counts))

    assert median_1 < medians[2]
    assert median_1 < medians[3]
    report(
        6,
        "ordinal difficulty",
        f"medians: both-sides {median_1:g} < reward-only {medians[2]:g}, "
        f"< penalty-only {medians[3]:g}",
    )


def test_criterion_7_obstacle_avoidance(preset1_batch):
    records, _ = preset1_batch
    median_1 = float(np.median([r.total_steps for r in records]))

    counts = []
    successes = 0
    for seed in SEEDS:
        record = run_episode(preset_config(4, seed))
        counts.append(record.total_steps)
        successes += record.success
        for n, (x, y) in enumerate(zip(record.x, record.y), start=1):
            assert not any(
                o.contains(x, y) for o in record.world.obstacles
            ), f"seed {seed} step {n} entered an obstacle"
    median_4 = float(np.median(counts))
    assert successes >= 70
    assert median_4 >= median_1
    report(
        7,
        "obstacle avoidance",
        f"{successes}/100 goals, 0 obstacle entries, median {median_4:g} >= {median_1:g}",
    )


def test_criterion_8_artifact_determinism(tmp_path):
    record_a = run_episode(preset_config(1, seed=11))
    record_b = run_episode(preset_config(1, seed=11))
    emit_artifacts(record_a, tmp_path / "a")
    emit_artifacts(record_b, tmp_path / "b")
    for name in ("trajectory.csv", "probs.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report(8, "determinism", "trajectory/probs/summary byte-identical on rerun")


def test_criterion_9_graded_and_binary_paths_coincide():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10_000):
        r = int(rng.integers(2, 9))
        p = random_vector(rng, r)
        chosen = int(rng.integers(1, r + 1))
        rate = float(rng.uniform(0.01, 0.99))
        graded = update_s_model(p, chosen, 0.0, rate)
        binary = update_p_favorable(p, chosen, rate)
        worst = max(worst, max(abs(g - b) for g, b in zip(graded, binary)))
        assert update_s_model(p, chosen, 1.0, rate) is p
    assert worst <= 1e-12
    report(9, "graded/binary coincidence", f"max diff {worst:.2e}, full-response is identity")
