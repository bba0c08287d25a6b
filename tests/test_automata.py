"""Unit tests for the automaton primitives: frozen examples and error paths."""

import math

import pytest

from la_nav import (
    LearningScheme,
    ProbabilityVector,
    SchemeKind,
    apply_feedback,
    init_uniform,
    select_action,
    update_p_favorable,
    update_p_unfavorable,
    update_s_model,
)

UNIFORM6 = init_uniform(6)


class TestProbabilityVector:
    def test_init_uniform_six(self):
        assert UNIFORM6 == (1 / 6,) * 6
        assert isinstance(UNIFORM6, ProbabilityVector)

    def test_init_uniform_two(self):
        assert init_uniform(2) == (0.5, 0.5)

    @pytest.mark.parametrize("r", [1, 0, -3])
    def test_init_uniform_rejects_degenerate(self, r):
        with pytest.raises(ValueError):
            init_uniform(r)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbabilityVector((0.5, 0.4))

    def test_rejects_out_of_range_component(self):
        with pytest.raises(ValueError):
            ProbabilityVector((1.2, -0.2))

    def test_rejects_single_component(self):
        with pytest.raises(ValueError):
            ProbabilityVector((1.0,))

    def test_accepts_list_input(self):
        p = ProbabilityVector([0.25, 0.75])
        assert p == (0.25, 0.75)
        assert isinstance(p, tuple)


class TestFavorableUpdate:
    def test_frozen_example(self):
        # 1/6 + 0.7 * 5/6 = 3/4; 0.3 * 1/6 = 1/20
        out = update_p_favorable(UNIFORM6, 1, 0.7)
        assert out[0] == pytest.approx(0.75, abs=1e-12)
        for v in out[1:]:
            assert v == pytest.approx(0.05, abs=1e-12)
        assert sum(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rate_is_identity(self):
        assert update_p_favorable(UNIFORM6, 3, 0.0) is UNIFORM6

    def test_full_rate_absorbs(self):
        out = update_p_favorable(ProbabilityVector((0.5, 0.5)), 1, 1.0)
        assert out == (1.0, 0.0)

    def test_drifted_sum_is_rescaled(self):
        # The input sums to 1 + 2e-9, beyond SUM_TOLERANCE; the update rescales its result.
        out = update_p_favorable((0.5, 0.5 + 2e-9), 1, 0.1)
        assert abs(sum(out) - 1.0) <= 1e-15

    @pytest.mark.parametrize("chosen", [0, 7, -1])
    def test_rejects_bad_index(self, chosen):
        with pytest.raises(ValueError):
            update_p_favorable(UNIFORM6, chosen, 0.5)

    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            update_p_favorable(UNIFORM6, 1, rate)


class TestUnfavorableUpdate:
    def test_frozen_example(self):
        # 0.3 * 1/6 = 1/20; 0.7/5 + 0.3/6 = 19/100; 0.05 + 5 * 0.19 = 1
        out = update_p_unfavorable(UNIFORM6, 1, 0.7)
        assert out[0] == pytest.approx(0.05, abs=1e-12)
        for v in out[1:]:
            assert v == pytest.approx(0.19, abs=1e-12)
        assert sum(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rate_is_identity(self):
        assert update_p_unfavorable(UNIFORM6, 2, 0.0) is UNIFORM6

    def test_full_rate_two_actions(self):
        out = update_p_unfavorable(ProbabilityVector((0.5, 0.5)), 1, 1.0)
        assert out == (0.0, 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            update_p_unfavorable(UNIFORM6, 1, 1.5)


class TestSModelUpdate:
    def test_zero_response_matches_favorable(self):
        graded = update_s_model(UNIFORM6, 1, 0.0, 0.7)
        binary = update_p_favorable(UNIFORM6, 1, 0.7)
        for g, b in zip(graded, binary):
            assert g == pytest.approx(b, abs=1e-12)

    def test_full_response_is_identity(self):
        assert update_s_model(UNIFORM6, 1, 1.0, 0.5) is UNIFORM6

    def test_frozen_half_response(self):
        # 1/6 + 0.35 * 5/6 = 11/24; 1/6 - 0.35/6 = 13/120
        out = update_s_model(UNIFORM6, 1, 0.5, 0.7)
        assert out[0] == pytest.approx(11 / 24, abs=1e-12)
        for v in out[1:]:
            assert v == pytest.approx(13 / 120, abs=1e-12)
        assert sum(out) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("response", [-0.01, 1.01])
    def test_rejects_bad_response(self, response):
        with pytest.raises(ValueError):
            update_s_model(UNIFORM6, 1, response, 0.5)

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.2, 1.2])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            update_s_model(UNIFORM6, 1, 0.5, rate)


class TestLearningScheme:
    def test_constructors(self):
        # A family fills in the rate it fixes; the kind may be given by its string value.
        assert LearningScheme("lrp", 0.7) == LearningScheme(SchemeKind.LRP, 0.7, 0.7)
        assert LearningScheme("lrp", penalty_rate=0.7) == LearningScheme(SchemeKind.LRP, 0.7, 0.7)
        assert LearningScheme("lri", 0.7).penalty_rate == 0.0
        assert LearningScheme("penalty_only", penalty_rate=0.7).reward_rate == 0.0
        assert LearningScheme("general", 0.3, 0.6).kind is SchemeKind.GENERAL_P
        assert LearningScheme("lri", 0.7, 0.0).kind is SchemeKind.LRI

    @pytest.mark.parametrize(
        "kind,rates,message",
        [
            ("lrp", {}, "reward-penalty scheme needs a rate"),
            ("lri", {"penalty_rate": 0.0}, "reward-inaction scheme needs a reward rate"),
            ("penalty_only", {"reward_rate": 0.0}, "penalty-only scheme needs a penalty rate"),
            ("general", {"reward_rate": 0.5}, "general scheme needs both a reward and a penalty rate"),
            ("general", {"penalty_rate": 0.5}, "general scheme needs both a reward and a penalty rate"),
        ],
    )
    def test_missing_rate_names_the_family(self, kind, rates, message):
        with pytest.raises(ValueError) as err:
            LearningScheme(kind, **rates)
        assert str(err.value) == message

    def test_lrp_requires_equal_rates(self):
        with pytest.raises(ValueError):
            LearningScheme(SchemeKind.LRP, 0.7, 0.3)

    def test_lri_requires_zero_penalty(self):
        with pytest.raises(ValueError):
            LearningScheme(SchemeKind.LRI, 0.7, 0.1)
        # A kind given by its string value gets the same rate rules.
        with pytest.raises(ValueError):
            LearningScheme("lri", 0.7, 0.7)

    def test_unknown_kind_string_rejected(self):
        with pytest.raises(ValueError) as err:
            LearningScheme("s_model", 0.5, 0.5)
        assert str(err.value) == "unknown kind 's_model' (valid: general, lrp, lri, penalty_only)"

    def test_penalty_only_requires_zero_reward(self):
        with pytest.raises(ValueError):
            LearningScheme(SchemeKind.PENALTY_ONLY, 0.1, 0.7)

    @pytest.mark.parametrize("a,b", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)])
    def test_rates_bounded(self, a, b):
        with pytest.raises(ValueError):
            LearningScheme("general", a, b)

    def test_replace_checks_both_rates_against_the_family(self):
        # replace passes the unchanged rate back, so lrp's equal-rate rule sees both.
        lrp = LearningScheme("lrp", 0.7)
        with pytest.raises(ValueError) as err:
            lrp.replace(reward_rate=0.5)
        assert str(err.value) == "reward-penalty scheme requires equal reward and penalty rates"
        assert lrp.replace(reward_rate=0.5, penalty_rate=0.5) == LearningScheme("lrp", 0.5)


class TestApplyFeedback:
    def test_success_takes_favorable_path(self):
        scheme = LearningScheme("lrp", 0.7)
        out = apply_feedback(UNIFORM6, 2, 0, scheme)
        assert out == update_p_favorable(UNIFORM6, 2, 0.7)

    def test_failure_takes_unfavorable_path(self):
        scheme = LearningScheme("lrp", 0.7)
        out = apply_feedback(UNIFORM6, 2, 1, scheme)
        assert out == update_p_unfavorable(UNIFORM6, 2, 0.7)

    def test_reward_inaction_ignores_failures(self):
        scheme = LearningScheme("lri", 0.7)
        assert apply_feedback(UNIFORM6, 2, 1, scheme) is UNIFORM6

    def test_rejects_flags_other_than_zero_or_one(self):
        for flag in (2, -1):
            with pytest.raises(ValueError):
                apply_feedback(UNIFORM6, 2, flag, LearningScheme("lrp", 0.7))

    def test_updates_return_plain_tuples(self):
        out = apply_feedback(UNIFORM6, 2, 0, LearningScheme("lrp", 0.7))
        assert type(out) is tuple and len(out) == 6


class TestSelectAction:
    def test_cumulative_rule(self):
        assert select_action(ProbabilityVector((0.2, 0.8)), 0.5) == 2

    def test_zero_draw_returns_first_positive(self):
        assert select_action(UNIFORM6, 0.0) == 1
        assert select_action(ProbabilityVector((0.0, 0.4, 0.6)), 0.0) == 2

    def test_absorbed_vector_always_returns_winner(self):
        absorbed = ProbabilityVector((0.0, 0.0, 1.0, 0.0))
        for z in (0.0, 0.3, 0.999):
            assert select_action(absorbed, z) == 3

    @pytest.mark.parametrize("z", [-0.01, 1.0, 1.5])
    def test_rejects_out_of_range_draw(self, z):
        with pytest.raises(ValueError):
            select_action(UNIFORM6, z)

    def test_boundary_draw_takes_lower_bucket(self):
        assert select_action(ProbabilityVector((0.2, 0.8)), 0.2) == 1

    def test_rounding_shortfall_returns_last_positive_action(self):
        # The positive components sum to 1 - 2**-52, below the draw 1 - 2**-53.
        assert select_action((0.5, 0.5 - 2**-52, 0.0), math.nextafter(1.0, 0.0)) == 2
