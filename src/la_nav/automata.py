"""Learning automaton core: action probabilities, reinforcement updates, selection.

The automaton keeps a probability distribution over a finite action set.
After every interaction the environment's feedback moves probability mass
toward actions that worked and away from actions that did not. Selection
draws an action from the current distribution via a cumulative-sum scan.

All types are immutable values and all operations are pure functions;
randomness enters only through the explicit ``draw`` argument (callers own
their generators).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

SUM_TOLERANCE = 1e-9


def _clip01(values: list[float]) -> list[float]:
    # Rounding may push a component past a boundary by an ulp; anything
    # larger is a bug and gets caught by ProbabilityVector validation.
    return [0.0 if v < 0.0 else (1.0 if v > 1.0 else v) for v in values]


@dataclass(frozen=True, slots=True)
class ProbabilityVector:
    """Distribution over ``r`` actions: components in [0, 1] summing to 1."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.probs, tuple):
            object.__setattr__(self, "probs", tuple(float(v) for v in self.probs))
        if len(self.probs) < 2:
            raise ValueError(f"action count must be >= 2, got {len(self.probs)}")
        total = 0.0
        for v in self.probs:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"probability component {v!r} outside [0, 1]")
            total += v
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @property
    def r(self) -> int:
        """Number of actions."""
        return len(self.probs)

    def prob_of(self, action: int) -> float:
        """Probability of the 1-based action index."""
        _check_action(action, len(self.probs))
        return self.probs[action - 1]

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def __getitem__(self, idx: int) -> float:
        return self.probs[idx]


class SchemeKind(str, Enum):
    """Families of linear reinforcement schemes."""

    GENERAL_P = "general"
    LRP = "lrp"
    LRI = "lri"
    PENALTY_ONLY = "penalty_only"


@dataclass(frozen=True, slots=True)
class LearningScheme:
    """Reinforcement scheme: reward/penalty rates plus the scheme family.

    ``reward_rate`` scales updates after successes, ``penalty_rate`` after
    failures. The family constrains the two rates: reward-penalty ties them
    together, reward-inaction zeroes the penalty, and penalty-only zeroes
    the reward.
    """

    kind: SchemeKind
    reward_rate: float
    penalty_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.reward_rate <= 1.0:
            raise ValueError(f"reward rate {self.reward_rate!r} outside [0, 1]")
        if not 0.0 <= self.penalty_rate <= 1.0:
            raise ValueError(f"penalty rate {self.penalty_rate!r} outside [0, 1]")
        kind = self.kind
        if kind is SchemeKind.LRP and self.reward_rate != self.penalty_rate:
            raise ValueError("reward-penalty scheme requires equal reward and penalty rates")
        if kind is SchemeKind.LRI and self.penalty_rate != 0.0:
            raise ValueError("reward-inaction scheme requires a zero penalty rate")
        if kind is SchemeKind.PENALTY_ONLY and self.reward_rate != 0.0:
            raise ValueError("penalty-only scheme requires a zero reward rate")

    @classmethod
    def general(cls, reward_rate: float, penalty_rate: float) -> "LearningScheme":
        return cls(SchemeKind.GENERAL_P, reward_rate, penalty_rate)

    @classmethod
    def lrp(cls, rate: float) -> "LearningScheme":
        return cls(SchemeKind.LRP, rate, rate)

    @classmethod
    def lri(cls, reward_rate: float) -> "LearningScheme":
        return cls(SchemeKind.LRI, reward_rate, 0.0)

    @classmethod
    def penalty_only(cls, penalty_rate: float) -> "LearningScheme":
        return cls(SchemeKind.PENALTY_ONLY, 0.0, penalty_rate)


@dataclass(frozen=True, slots=True)
class PModelFeedback:
    """Binary environment response: flag 0 is success, 1 is failure."""

    flag: int

    def __post_init__(self) -> None:
        if self.flag not in (0, 1):
            raise ValueError(f"flag must be 0 or 1, got {self.flag!r}")


SUCCESS = PModelFeedback(0)
FAILURE = PModelFeedback(1)


def _check_action(chosen: int, r: int) -> None:
    if not 1 <= chosen <= r:
        raise ValueError(f"action index {chosen} outside [1, {r}]")


def _finish(values: list[float]) -> ProbabilityVector:
    values = _clip01(values)
    total = sum(values)
    if abs(total - 1.0) > SUM_TOLERANCE:
        # The linear updates preserve the sum algebraically, so any drift
        # here is accumulated rounding; rescaling is a pure correction.
        values = [v / total for v in values]
    return ProbabilityVector(tuple(values))


def init_uniform(r: int) -> ProbabilityVector:
    """Uniform distribution over ``r`` actions (each exactly 1/r)."""
    if r < 2:
        raise ValueError(f"action count must be >= 2, got {r}")
    return ProbabilityVector((1.0 / r,) * r)


def update_p_favorable(
    p: ProbabilityVector, chosen: int, reward_rate: float
) -> ProbabilityVector:
    """Reinforce the chosen action after a success.

    The chosen component gains ``reward_rate`` times its headroom,
    every other component shrinks by the factor ``1 - reward_rate``:

        p_chosen' = p_chosen + reward_rate * (1 - p_chosen)
        p_other'  = (1 - reward_rate) * p_other
    """
    _check_action(chosen, p.r)
    if not 0.0 <= reward_rate <= 1.0:
        raise ValueError(f"reward rate {reward_rate!r} outside [0, 1]")
    if reward_rate == 0.0:
        return p
    keep = 1.0 - reward_rate
    values = [keep * v for v in p.probs]
    pc = p.probs[chosen - 1]
    values[chosen - 1] = pc + reward_rate * (1.0 - pc)
    return _finish(values)


def update_p_unfavorable(
    p: ProbabilityVector, chosen: int, penalty_rate: float
) -> ProbabilityVector:
    """Penalize the chosen action after a failure.

    The chosen component shrinks by ``1 - penalty_rate``; the removed mass
    is spread evenly over the other actions:

        p_chosen' = (1 - penalty_rate) * p_chosen
        p_other'  = penalty_rate / (r - 1) + (1 - penalty_rate) * p_other
    """
    _check_action(chosen, p.r)
    if not 0.0 <= penalty_rate <= 1.0:
        raise ValueError(f"penalty rate {penalty_rate!r} outside [0, 1]")
    if penalty_rate == 0.0:
        return p
    keep = 1.0 - penalty_rate
    share = penalty_rate / (p.r - 1)
    values = [share + keep * v for v in p.probs]
    values[chosen - 1] = keep * p.probs[chosen - 1]
    return _finish(values)


def update_s_model(
    p: ProbabilityVector, chosen: int, response: float, learning_rate: float
) -> ProbabilityVector:
    """Graded update driven by a continuous response in [0, 1].

    A response of 0 applies the full favorable step, a response of 1 leaves
    the distribution untouched, and intermediate values interpolate:

        p_chosen' = p_chosen + learning_rate * (1 - response) * (1 - p_chosen)
        p_other'  = p_other - learning_rate * (1 - response) * p_other
    """
    _check_action(chosen, p.r)
    if not 0.0 <= response <= 1.0:
        raise ValueError(f"response {response!r} outside [0, 1]")
    if not 0.0 < learning_rate < 1.0:
        raise ValueError(f"learning rate {learning_rate!r} outside (0, 1)")
    gain = learning_rate * (1.0 - response)
    if gain == 0.0:
        return p
    values = [v - gain * v for v in p.probs]
    pc = p.probs[chosen - 1]
    values[chosen - 1] = pc + gain * (1.0 - pc)
    return _finish(values)


def apply_feedback(
    p: ProbabilityVector, chosen: int, fb: PModelFeedback, scheme: LearningScheme
) -> ProbabilityVector:
    """Apply binary feedback with the rates of ``scheme``.

    A success (flag 0) takes the favorable update with ``reward_rate``, a
    failure (flag 1) the unfavorable one with ``penalty_rate``.
    """
    if fb.flag == 0:
        return update_p_favorable(p, chosen, scheme.reward_rate)
    return update_p_unfavorable(p, chosen, scheme.penalty_rate)


def select_action(p: ProbabilityVector, draw: float) -> int:
    """Pick the first action whose cumulative probability reaches ``draw``.

    ``draw`` must lie in [0, 1). Returns a 1-based action index. Actions
    with exactly zero probability are never returned, so a fully absorbed
    distribution always yields its absorbed action.
    """
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw {draw!r} outside [0, 1)")
    cumulative = 0.0
    last_positive = 0
    for idx, prob in enumerate(p.probs, start=1):
        if prob <= 0.0:
            continue
        cumulative += prob
        last_positive = idx
        if cumulative >= draw:
            return idx
    # Rounding can leave the final cumulative sum a hair under a draw near 1.
    return last_positive
