"""Property-based tests for the probability-update and selection invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from la_nav import (
    LearningScheme,
    absorbed_action,
    apply_feedback,
    init_uniform,
    select_action,
    update_p_favorable,
    update_p_unfavorable,
    update_s_model,
)

from conftest import absorbed_vectors, draws, edge_rates, edge_vectors, probability_vectors, rates

SUM_TOL = 1e-9


def _scan_oracle(probs, z):
    """Literal cumulative-sum scan: first index whose running sum reaches z."""
    cum = 0.0
    for idx, v in enumerate(probs, start=1):
        cum += v
        if cum >= z:
            return idx
    return len(probs)


@given(p=probability_vectors(), chosen_frac=st.floats(0, 1, exclude_max=True), a=rates, b=rates)
def test_updates_preserve_normalization(p, chosen_frac, a, b):
    chosen = 1 + int(chosen_frac * len(p))
    for out in (
        update_p_favorable(p, chosen, a),
        update_p_unfavorable(p, chosen, b),
        update_s_model(p, chosen, 0.3, min(max(a, 1e-6), 1 - 1e-6)),
    ):
        assert abs(sum(out) - 1.0) <= SUM_TOL
        assert all(0.0 <= v <= 1.0 for v in out)


@given(p=probability_vectors(), chosen_frac=st.floats(0, 1, exclude_max=True), a=rates)
def test_favorable_monotonicity(p, chosen_frac, a):
    chosen = 1 + int(chosen_frac * len(p))
    out = update_p_favorable(p, chosen, a)
    assert out[chosen - 1] > p[chosen - 1]
    for idx in range(len(p)):
        if idx != chosen - 1:
            assert out[idx] < p[idx]


@given(p=probability_vectors(), chosen_frac=st.floats(0, 1, exclude_max=True), b=rates)
def test_unfavorable_monotonicity(p, chosen_frac, b):
    chosen = 1 + int(chosen_frac * len(p))
    out = update_p_unfavorable(p, chosen, b)
    assert out[chosen - 1] < p[chosen - 1]


@settings(max_examples=1000)
@given(p=edge_vectors(), chosen_frac=st.floats(0, 1, exclude_max=True), rate=edge_rates)
def test_updates_keep_components_in_unit_interval_without_a_clip(p, chosen_frac, rate):
    # The rounding argument in automata._finish's docstring, checked at the
    # edges: subnormal components and rates, and rates next to 0, 1/2 and 1.
    chosen = 1 + int(chosen_frac * len(p))
    for out in (update_p_favorable(p, chosen, rate), update_p_unfavorable(p, chosen, rate)):
        assert all(0.0 <= v <= 1.0 for v in out)


@given(p=edge_vectors(), chosen_frac=st.floats(0, 1, exclude_max=True), other_rate=edge_rates)
def test_rate_zero_update_returns_its_input_bit_for_bit(p, chosen_frac, other_rate):
    # The CSV writers reuse the previous probabilities row on such a step.
    chosen = 1 + int(chosen_frac * len(p))
    bits = [v.hex() for v in p]
    for out in (
        update_p_favorable(p, chosen, 0.0),
        update_p_unfavorable(p, chosen, 0.0),
        apply_feedback(p, chosen, 0, LearningScheme("general", 0.0, other_rate)),
        apply_feedback(p, chosen, 1, LearningScheme("general", other_rate, 0.0)),
    ):
        assert [v.hex() for v in out] == bits


@given(p=probability_vectors())
def test_reward_inaction_failure_is_identity(p):
    scheme = LearningScheme("lri", 0.7)
    assert apply_feedback(p, 1, 1, scheme) is p


@given(p=probability_vectors(), chosen_frac=st.floats(0, 1, exclude_max=True), a=st.floats(0.01, 0.99))
def test_graded_zero_response_matches_favorable(p, chosen_frac, a):
    chosen = 1 + int(chosen_frac * len(p))
    graded = update_s_model(p, chosen, 0.0, a)
    binary = update_p_favorable(p, chosen, a)
    for g, b in zip(graded, binary):
        assert abs(g - b) <= 1e-12


@given(p=probability_vectors(), a=st.floats(0.01, 0.99))
def test_graded_full_response_is_identity(p, a):
    assert update_s_model(p, 1, 1.0, a) is p


@given(p=probability_vectors(), z=draws)
def test_selection_matches_scan_oracle(p, z):
    # Strategy components are strictly positive, so the zero-skipping rule
    # coincides with the literal scan.
    got = select_action(p, z)
    assert got == _scan_oracle(p, z)
    before = sum(p[: got - 1])
    in_bucket = before < z <= before + p[got - 1]
    first_bucket = got == 1 and z <= p[0]
    # a draw just under 1 can exceed the rounded cumulative total; the rule
    # then lands on the last positive action
    ran_off_end = got == len(p) and sum(p) < z
    assert in_bucket or first_bucket or ran_off_end


@given(pair=absorbed_vectors(), z=draws)
def test_selection_on_absorbed_vector(pair, z):
    p, winner = pair
    assert select_action(p, z) == winner


@given(pair=absorbed_vectors(), reward_rate=edge_rates, z=draws)
def test_one_hot_vector_without_penalties_is_a_fixed_point(pair, reward_rate, z):
    # The engine stops drawing, selecting and updating once absorbed_action names an action.
    p, winner = pair
    scheme = LearningScheme("general", reward_rate, 0.0)
    assert absorbed_action(p, scheme) == winner
    for flag in (0, 1):
        assert [v.hex() for v in apply_feedback(p, winner, flag, scheme)] == [v.hex() for v in p]
    assert select_action(p, z) == winner


@given(pair=absorbed_vectors(), penalty_rate=edge_rates.filter(lambda b: b > 0.0))
def test_a_penalty_rate_or_a_nonzero_component_is_not_absorbed(pair, penalty_rate):
    p, winner = pair
    assert absorbed_action(p, LearningScheme("general", 0.7, penalty_rate)) is None
    # 5e-324 in a component other than the winner's (index winner - 1).
    tiny = tuple(5e-324 if i == winner % len(p) else v for i, v in enumerate(p))
    assert absorbed_action(tiny, LearningScheme("lri", 0.7)) is None
    assert absorbed_action(p, LearningScheme("lri", 0.7)) == winner


@settings(max_examples=25, deadline=None)
@given(p=probability_vectors(min_actions=6, max_actions=6), seed=st.integers(0, 2**32 - 1))
def test_chained_updates_stay_normalized(p, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    current = p
    for _ in range(200):
        chosen = int(rng.integers(1, 7))
        kind = rng.integers(0, 3)
        if kind == 0:
            current = update_p_favorable(current, chosen, float(rng.uniform(0, 1)))
        elif kind == 1:
            current = update_p_unfavorable(current, chosen, float(rng.uniform(0, 1)))
        else:
            current = update_s_model(
                current, chosen, float(rng.uniform(0, 1)), float(rng.uniform(0.01, 0.99))
            )
        assert abs(sum(current) - 1.0) <= SUM_TOL
        assert all(0.0 <= v <= 1.0 for v in current)


def test_selection_frequencies_track_probabilities():
    rng = np.random.Generator(np.random.PCG64(2024))
    p = init_uniform(6)
    counts = np.zeros(6)
    n = 100_000
    for _ in range(n):
        counts[select_action(p, float(rng.random())) - 1] += 1
    assert np.all(np.abs(counts / n - 1 / 6) < 0.01)
