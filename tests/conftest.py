"""Shared hypothesis strategies and episode configs for the test suite."""

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from la_nav import (
    CircleObstacle,
    ExperimentConfig,
    LearningScheme,
    ProbabilityVector,
    RobotParams,
    WorldSpec,
    preset_config,
)


@st.composite
def probability_vectors(draw, min_actions=2, max_actions=8, min_weight=0.01):
    """Valid probability vectors with strictly positive components.

    The weight floor keeps strict-monotonicity assertions meaningful:
    components stay far enough from 0 and 1 that one update moves them by
    more than an ulp.
    """
    r = draw(st.integers(min_value=min_actions, max_value=max_actions))
    weights = draw(
        st.lists(
            st.floats(min_value=min_weight, max_value=1.0),
            min_size=r,
            max_size=r,
        )
    )
    total = sum(weights)
    return ProbabilityVector(tuple(w / total for w in weights))


@st.composite
def absorbed_vectors(draw, min_actions=2, max_actions=8):
    """Vectors with all mass on a single action."""
    r = draw(st.integers(min_value=min_actions, max_value=max_actions))
    winner = draw(st.integers(min_value=1, max_value=r))
    return ProbabilityVector(tuple(1.0 if i == winner else 0.0 for i in range(1, r + 1))), winner


rates = st.floats(min_value=1e-6, max_value=1.0)
draws = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


# Rates at the edges of [0, 1]: subnormals, and values within a few ulps of 0, 1/2 and 1.
edge_rates = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.floats(min_value=1.0 - 1e-12, max_value=1.0),
    st.sampled_from([5e-324, 2.0**-1022, 2.0**-53, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0]),
)

_tiny = st.one_of(
    st.just(0.0),
    st.just(5e-324),
    st.floats(min_value=0.0, max_value=2.0**-1022),
    st.floats(min_value=0.0, max_value=1e-12),
)


@st.composite
def edge_vectors(draw, min_actions=2, max_actions=8):
    """Vectors with components in [0, 1] summing to 1 within 1e-9.

    Half are one component at 1.0 beside subnormal or tiny ones, the rest
    normalized weights that may include such components.
    """
    r = draw(st.integers(min_value=min_actions, max_value=max_actions))
    if draw(st.booleans()):
        winner = draw(st.integers(min_value=0, max_value=r - 1))
        return tuple(1.0 if i == winner else draw(_tiny) for i in range(r))
    weights = draw(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0), _tiny), min_size=r, max_size=r))
    total = sum(weights)
    assume(total > 0.0)
    return tuple(w / total for w in weights)


def first_move_blocked_config() -> ExperimentConfig:
    """Reward-inaction run whose first move, Forward for seed 1, hits a disc just ahead of the start.

    Row 1 then repeats the start pose and, as a failure at rate 0, the
    uniform start probabilities.
    """
    return ExperimentConfig(
        scheme=LearningScheme("lri", 0.7),
        seed=1,
        world=WorldSpec(goal=(30.0, 5.0), obstacles=(CircleObstacle((0.0, 4.0), 1.5),)),
        max_steps=400,
    )


def zero_reward_general_config() -> ExperimentConfig:
    """General scheme with reward rate 0: every success, row 1's included for seed 3, repeats the probabilities."""
    return ExperimentConfig(
        scheme=LearningScheme("general", 0.0, 0.4), seed=3, world=WorldSpec(goal=(30.0, 5.0)), max_steps=400
    )


def zero_speed_config() -> ExperimentConfig:
    """Preset 1 with wheel speed 0: every row repeats the start pose without a block.

    Its move table holds -0.0 (Backward's travel, LeftBackward's half turn
    and turn), which must not reach the record.
    """
    return preset_config(1, seed=1).replace(robot=RobotParams(wheel_speed=0.0), max_steps=300)


# Wrong-type arguments that ``World`` and ``WorldSpec`` reject in the same words:
# ``World`` raises a ValueError with the message, ``WorldSpec`` a ConfigError
# for the field. (keyword arguments, WorldSpec field, message)
WRONG_WORLD_TYPES = [
    pytest.param({"bounds": None}, "world.bounds", "expected a Bounds, got None", id="bounds-none"),
    pytest.param(
        {"obstacles": [5]}, "world.obstacles", "expected a CircleObstacle or RectObstacle, got 5",
        id="obstacle-int",
    ),
    pytest.param(
        {"obstacles": 5}, "world.obstacles", "expected a list of obstacles, got 5", id="obstacles-int"
    ),
    pytest.param(
        {"obstacles": None}, "world.obstacles", "expected a list of obstacles, got None",
        id="obstacles-none",
    ),
]
