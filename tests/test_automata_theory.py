"""The automaton learns as learning-automata theory says (Narendra and Thathachar, 1989).

Apart from the last test, only ``select_action`` and ``apply_feedback`` run,
in a stationary random environment: action i is penalised with probability
c_i at every step, independently of the past. Each tolerance is about twice
the largest deviation seen over 25 groups of the same number of seeds (seeds
1000..1199 for the time averages, 2000..3999 in groups of 200 for L_R-I).

The last test runs whole episodes on the robot, whose environment is not
stationary: which action shortens the distance depends on the heading.
"""

import random
import statistics
from itertools import islice

from la_nav import ExperimentConfig, LearningScheme, apply_feedback, init_uniform, run_episode, select_action

PENALTY_PROBS = (0.2, 0.4, 0.6, 0.8)


def _walk(scheme, penalty_probs, seed):
    """The probability vector after each step, without end."""
    rng = random.Random(seed)
    p = init_uniform(len(penalty_probs))
    while True:
        action = select_action(p, rng.random())
        flag = 1 if rng.random() < penalty_probs[action - 1] else 0
        p = apply_feedback(p, action, flag, scheme)
        yield p


def _time_average(scheme, penalty_probs, seeds=range(8), steps=20_000, burn_in=1_000):
    """Each action's probability averaged over ``steps`` steps after ``burn_in``, then over ``seeds``."""
    total = [0.0] * len(penalty_probs)
    for seed in seeds:
        for p in islice(_walk(scheme, penalty_probs, seed), burn_in, burn_in + steps):
            for i, v in enumerate(p):
                total[i] += v
    return [t / (len(seeds) * steps) for t in total]


def test_lrp_time_average_is_inverse_to_penalty():
    # The mean drift of L_R-P with a = b is linear in p, and zero where
    # p_i * c_i is the same for every action. Largest deviation seen: 0.0064.
    weights = [1.0 / c for c in PENALTY_PROBS]
    expected = [w / sum(weights) for w in weights]
    average = _time_average(LearningScheme("lrp", 0.01), PENALTY_PROBS)
    assert max(abs(a - e) for a, e in zip(average, expected)) < 0.01, (average, expected)


def test_penalty_only_ratio_is_root_of_penalty_ratio():
    # For r = 2 the mean drift is b * (c2 * p2**2 - c1 * p1**2), zero at
    # p1 / p2 = sqrt(c2 / c1) = 2. Largest deviation seen: 0.015.
    p1, p2 = _time_average(LearningScheme("penalty_only", penalty_rate=0.01), (0.2, 0.8))
    assert abs(p1 / p2 - 2.0) < 0.03, (p1, p2)


def test_lri_absorbs_the_lowest_penalty_action():
    # L_R-I is epsilon-optimal: with a small rate almost every run ends
    # absorbed in the action penalised least. Fewest seen: 196 of 200.
    absorbed_best = 0
    for seed in range(200):
        for p in islice(_walk(LearningScheme("lri", 0.05), PENALTY_PROBS, seed), 20_000):
            if max(p) >= 0.999:
                break
        absorbed_best += p[0] >= 0.999
    assert absorbed_best >= 190


def test_learning_rate_on_the_robot():
    # Default world, no preset, seeds 1..60. Over seeds 1..240 in blocks of
    # 60, L_R-P reached 60 of 60 goals at a = 0.05 and at a = 0.7 in every
    # block; L_R-I reached 32-37 at a = 0.02 and 0-2 at a = 0.7, a difference
    # of 30-36; L_R-P's median steps at a = 0.4 were 0.32-0.41 of those at
    # a = 0.05 (151.5 of 480 here). Each margin leaves room, so that a change
    # of bits that keeps the behaviour still passes. An absorbing scheme holds on
    # to an action that stops paying once the heading turns, and a larger rate
    # absorbs sooner.
    seeds = range(1, 61)

    def outcome(kind, a):
        """Goals reached and median steps over the seeds."""
        records = [run_episode(ExperimentConfig(scheme=LearningScheme(kind, a), seed=s)) for s in seeds]
        return sum(r.success for r in records), statistics.median(r.total_steps for r in records)

    lrp_slow_goals, lrp_slow_median = outcome("lrp", 0.05)
    assert lrp_slow_goals == outcome("lrp", 0.7)[0] == len(seeds)
    assert outcome("lri", 0.02)[0] >= outcome("lri", 0.7)[0] + 20
    assert outcome("lrp", 0.4)[1] <= lrp_slow_median / 2
