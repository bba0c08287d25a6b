"""Learning automaton core: action probabilities, reinforcement updates, selection.

The automaton keeps a probability distribution over a finite action set.
After every interaction the environment's feedback moves probability mass
toward actions that worked and away from actions that did not. Selection
draws an action from the current distribution via a cumulative-sum scan.

Probability vectors are tuples and the rules are pure functions that return
tuples. ``ProbabilityVector`` is the checked way to build a vector from
caller data; the rules accept any valid tuple. Randomness enters only
through the explicit ``draw`` argument (callers own their generators).
"""

from __future__ import annotations

from enum import Enum

from ._value import Value, _number

SUM_TOLERANCE = 1e-9


class ProbabilityVector(tuple):
    """Distribution over ``r >= 2`` actions: components in [0, 1] summing to 1.

    A tuple that was checked once, when it was built.
    """

    __slots__ = ()

    def __new__(cls, probs) -> "ProbabilityVector":
        self = super().__new__(cls, (float(v) for v in probs))
        if len(self) < 2:
            raise ValueError(f"action count must be >= 2, got {len(self)}")
        total = 0.0
        for v in self:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"probability component {v!r} outside [0, 1]")
            total += v
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        return self


class SchemeKind(str, Enum):
    """Families of linear reinforcement schemes."""

    GENERAL_P = "general"
    LRP = "lrp"
    LRI = "lri"
    PENALTY_ONLY = "penalty_only"


# The error for a rate that is still missing once a family's defaults are filled in.
_MISSING_RATE = {
    SchemeKind.GENERAL_P: "general scheme needs both a reward and a penalty rate",
    SchemeKind.LRP: "reward-penalty scheme needs a rate",
    SchemeKind.LRI: "reward-inaction scheme needs a reward rate",
    SchemeKind.PENALTY_ONLY: "penalty-only scheme needs a penalty rate",
}


def _family_rates(kind: SchemeKind, reward_rate, penalty_rate) -> tuple:
    """The two rates with the ones ``kind`` fixes filled in; a rate it cannot fill stays ``None``."""
    if kind is SchemeKind.LRP:
        reward_rate = penalty_rate if reward_rate is None else reward_rate
        penalty_rate = reward_rate if penalty_rate is None else penalty_rate
    elif kind is SchemeKind.LRI and penalty_rate is None:
        penalty_rate = 0.0
    elif kind is SchemeKind.PENALTY_ONLY and reward_rate is None:
        reward_rate = 0.0
    return reward_rate, penalty_rate


def _check_rate(rate: float, what: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{what} {rate!r} outside [0, 1]")


class LearningScheme(Value):
    """Reinforcement scheme: reward/penalty rates plus the scheme family.

    ``reward_rate`` scales updates after successes, ``penalty_rate`` after
    failures. The family constrains the two rates: reward-penalty ties them
    together, reward-inaction zeroes the penalty, and penalty-only zeroes
    the reward. ``kind`` may be a ``SchemeKind`` or its string value.

    A rate left out (``None``) is filled in: for ``lrp`` from the other rate,
    for ``lri`` (penalty) and ``penalty_only`` (reward) as 0; ``general`` fills
    in nothing. A rate still missing is a ``ValueError`` naming the family.
    Both rates are stored as floats.

    ``replace`` passes every unchanged rate back, so nothing is filled in and
    the family checks apply to both rates: ``replace(reward_rate=0.5)`` on an
    ``lrp`` scheme fails. To change an ``lrp`` rate, build a new scheme,
    ``LearningScheme("lrp", 0.5)``, or replace both rates.
    """

    __slots__ = _fields = ("kind", "reward_rate", "penalty_rate")

    def __init__(
        self, kind: SchemeKind, reward_rate: float | None = None, penalty_rate: float | None = None
    ) -> None:
        kind = SchemeKind(kind)
        reward_rate, penalty_rate = _family_rates(kind, reward_rate, penalty_rate)
        if reward_rate is None or penalty_rate is None:
            raise ValueError(_MISSING_RATE[kind])
        reward_rate = _number(reward_rate, "reward rate")
        penalty_rate = _number(penalty_rate, "penalty rate")
        _check_rate(reward_rate, "reward rate")
        _check_rate(penalty_rate, "penalty rate")
        if kind is SchemeKind.LRP and reward_rate != penalty_rate:
            raise ValueError("reward-penalty scheme requires equal reward and penalty rates")
        if kind is SchemeKind.LRI and penalty_rate != 0.0:
            raise ValueError("reward-inaction scheme requires a zero penalty rate")
        if kind is SchemeKind.PENALTY_ONLY and reward_rate != 0.0:
            raise ValueError("penalty-only scheme requires a zero reward rate")
        super().__init__(kind, reward_rate, penalty_rate)


def _check_action(chosen: int, r: int) -> None:
    if not 1 <= chosen <= r:
        raise ValueError(f"action index {chosen} outside [1, {r}]")


def _finish(values: list[float]) -> tuple[float, ...]:
    """Rescale an updated vector whose sum drifted from 1 by rounding.

    No clip is needed: under round-to-nearest both linear rules keep every
    component in [0, 1] when the input's components and the rate lie in
    [0, 1]. Rounding is monotone and 0 and 1 are floats, so every product
    of two numbers in [0, 1] rounds into [0, 1], to at most either factor,
    and every sum of such terms is >= 0. Two sums can exceed 1 before
    rounding; with u = 2**-53, each stays at most 1 + u/2, which rounds
    to 1. For x in [0, 1], ``1 - x`` is exact when x >= 1/2 (Sterbenz)
    and otherwise lies in (1/2, 1], where floats are u apart, so
    ``fl(1 - x) <= 1 - x + u/2``. Hence:

    * favorable, ``pc + rate * fl(1 - pc) <= pc + fl(1 - pc) <= 1 + u/2``;
    * unfavorable, ``share + keep * v`` with ``share = fl(b / (r - 1))``
      at most ``fl(b) = b`` and ``keep = fl(1 - b)``, so at most
      ``b + fl(1 - b) <= 1 + u/2``.

    The rescale keeps [0, 1] too: it divides non-negative terms by their
    sum, which is at least the largest of them.
    """
    total = sum(values)
    if abs(total - 1.0) > SUM_TOLERANCE:
        # The linear updates preserve the sum algebraically, so any drift
        # here is accumulated rounding; rescaling is a pure correction.
        values = [v / total for v in values]
    return tuple(values)


def init_uniform(r: int) -> ProbabilityVector:
    """Uniform distribution over ``r`` actions (each exactly 1/r)."""
    if r < 2:
        raise ValueError(f"action count must be >= 2, got {r}")
    return ProbabilityVector((1.0 / r,) * r)


def update_p_favorable(p: tuple[float, ...], chosen: int, reward_rate: float) -> tuple[float, ...]:
    """Reinforce the chosen action after a success.

    The chosen component gains ``reward_rate`` times its headroom,
    every other component shrinks by the factor ``1 - reward_rate``:

        p_chosen' = p_chosen + reward_rate * (1 - p_chosen)
        p_other'  = (1 - reward_rate) * p_other
    """
    _check_action(chosen, len(p))
    _check_rate(reward_rate, "reward rate")
    if reward_rate == 0.0:
        return p
    keep = 1.0 - reward_rate
    values = [keep * v for v in p]
    pc = p[chosen - 1]
    values[chosen - 1] = pc + reward_rate * (1.0 - pc)
    return _finish(values)


def update_p_unfavorable(p: tuple[float, ...], chosen: int, penalty_rate: float) -> tuple[float, ...]:
    """Penalize the chosen action after a failure.

    The chosen component shrinks by ``1 - penalty_rate``; the removed mass
    is spread evenly over the other actions:

        p_chosen' = (1 - penalty_rate) * p_chosen
        p_other'  = penalty_rate / (r - 1) + (1 - penalty_rate) * p_other
    """
    _check_action(chosen, len(p))
    _check_rate(penalty_rate, "penalty rate")
    if penalty_rate == 0.0:
        return p
    keep = 1.0 - penalty_rate
    share = penalty_rate / (len(p) - 1)
    values = [share + keep * v for v in p]
    values[chosen - 1] = keep * p[chosen - 1]
    return _finish(values)


def update_s_model(
    p: tuple[float, ...], chosen: int, response: float, learning_rate: float
) -> tuple[float, ...]:
    """Graded update driven by a continuous response in [0, 1].

    It is the favorable update at rate ``learning_rate * (1 - response)``:
    a response of 0 applies the full favorable step, a response of 1 leaves
    the distribution untouched, and intermediate values interpolate.
    """
    if not 0.0 <= response <= 1.0:
        raise ValueError(f"response {response!r} outside [0, 1]")
    if not 0.0 < learning_rate < 1.0:
        raise ValueError(f"learning rate {learning_rate!r} outside (0, 1)")
    return update_p_favorable(p, chosen, learning_rate * (1.0 - response))


def apply_feedback(
    p: tuple[float, ...], chosen: int, flag: int, scheme: LearningScheme
) -> tuple[float, ...]:
    """Apply the binary feedback ``flag`` with the rates of ``scheme``.

    A success (flag 0) takes the favorable update with ``reward_rate``, a
    failure (flag 1) the unfavorable one with ``penalty_rate``.
    """
    if flag == 0:
        return update_p_favorable(p, chosen, scheme.reward_rate)
    if flag == 1:
        return update_p_unfavorable(p, chosen, scheme.penalty_rate)
    raise ValueError(f"flag must be 0 or 1, got {flag!r}")


def absorbed_action(p: tuple[float, ...], scheme: LearningScheme) -> int | None:
    """The 1-based action of ``p`` if it is exactly one-hot and the penalty rate is 0, else ``None``.

    Such a ``p`` is a fixed point: every draw selects that action, and neither
    update moves it (each 0.0 scales to 0.0, and 1.0 gains 0.0).
    """
    if scheme.penalty_rate == 0.0 and p.count(0.0) == len(p) - 1 and 1.0 in p:
        return p.index(1.0) + 1
    return None


def select_action(p: tuple[float, ...], draw: float) -> int:
    """Pick the first action whose cumulative probability reaches ``draw``.

    ``draw`` must lie in [0, 1). Returns a 1-based action index. Actions
    with exactly zero probability are never returned, so a fully absorbed
    distribution always yields its absorbed action.
    """
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw {draw!r} outside [0, 1)")
    cumulative = 0.0
    last_positive = 0
    for idx, prob in enumerate(p, start=1):
        if prob <= 0.0:
            continue
        cumulative += prob
        last_positive = idx
        if cumulative >= draw:
            return idx
    # Rounding can leave the final cumulative sum a hair under a draw near 1.
    return last_positive
