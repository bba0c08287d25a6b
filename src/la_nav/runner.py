"""Episode orchestration, experiment presets and batch campaigns.

One episode runs the learn/act loop: select an action from the current
probabilities, drive the robot for one action duration, resolve collisions,
grade the step by the change in goal distance, update the probabilities,
repeat until the goal is reached or the step budget runs out. Episodes are
fully determined by their configuration and seed; batches replay a config
template across a seed list.
"""

import json
import math
import random
import sys
from array import array
from collections.abc import Iterator, Sequence
from enum import Enum

from ._value import Value, _set
from .automata import LearningScheme, absorbed_action, apply_feedback, init_uniform, select_action
from .errors import ConfigError, InfeasibleWorldError, build
from .kinematics import ACTION_COUNT, RobotParams, integrate_action, move_table
from .world import (
    DEFAULT_MIN_START_DISTANCE_CM,
    GOAL_TOLERANCE_CM,
    Bounds,
    CircleObstacle,
    Obstacle,
    World,
    _check_bounds,
    _finite,
    _goal_misfit,
    _obstacles,
    _point,
    compute_feedback,
    distance_to_goal,
    goal_reached,
    resolve_motion,
)

RNG_ALGORITHM = "mt19937"
DEFAULT_MAX_STEPS = 5000

# Config key of each RobotParams field, in echo order.
ROBOT_KEYS = {"c": "wheel_radius", "b": "axle_length", "omega": "wheel_speed", "T": "action_duration"}

# Derived obstacle layout for the blocked-path preset: two discs straddling
# the straight origin-to-goal line at one third and two thirds of the way.
_BLOCKING_RADIUS_CM = 10.0
_BLOCKING_LATERAL_OFFSET_CM = 5.0
_START_CLEARANCE_CM = 0.5
_MAX_WORLD_ATTEMPTS = 10_000


def _check_int(value, field: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")


def _check_bool(value, field: str) -> None:
    if not isinstance(value, bool):
        raise ConfigError(field, f"expected true/false, got {value!r}")


class WorldSpec(Value):
    """World recipe: either an explicit goal or a random-goal directive.

    ``auto_blocking_pair`` derives the two-disc blocking layout from the
    goal instead of using ``obstacles``. Building a spec checks everything
    that does not depend on the seed: a ``bounds`` that is not a ``Bounds``,
    an ``obstacles`` that is not a list of ``CircleObstacle`` and
    ``RectObstacle``, or an ``auto_blocking_pair`` that is not a bool is a
    ``ConfigError`` for that field; the start (0, 0) must lie inside the
    bounds and outside every obstacle, and some point of the bounds must
    lie ``min_start_distance`` from the start for a random goal.

    An explicit goal's ``World`` is built once, with the spec, and kept in
    ``world`` (``None`` for a random goal); ``build_world`` returns it. A goal
    for which ``_goal_obstacles`` cannot place the derived pair is a ``ValueError``
    at the start (0, 0), else a ``ConfigError`` for ``world.goal``.
    """

    _fields = ("goal", "tolerance", "bounds", "obstacles", "min_start_distance", "auto_blocking_pair")
    __slots__ = (*_fields, "world")

    def __init__(
        self,
        goal: tuple[float, float] | None = None,
        tolerance: float = GOAL_TOLERANCE_CM,
        bounds: Bounds = Bounds(),
        obstacles: tuple[Obstacle, ...] = (),
        min_start_distance: float = DEFAULT_MIN_START_DISTANCE_CM,
        auto_blocking_pair: bool = False,
    ) -> None:
        obstacles = build("world.obstacles", _obstacles, obstacles)
        build("world.bounds", _check_bounds, bounds)
        _check_bool(auto_blocking_pair, "world.auto_blocking_pair")
        goal = None if goal is None else build("world.goal", _point, goal, "goal")
        tolerance = _finite(tolerance, "tolerance")
        min_start_distance = _finite(min_start_distance, "min start distance")
        if not tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {tolerance!r}")
        if not min_start_distance >= 0:
            raise ValueError(f"min start distance must be non-negative, got {min_start_distance!r}")
        if auto_blocking_pair and obstacles:
            raise ValueError("auto_blocking_pair replaces the obstacle list; give one or the other")
        world = None
        if goal is not None:
            goal_obstacles = _goal_obstacles(goal, tolerance, obstacles, auto_blocking_pair)
            if goal_obstacles is None:
                if goal == (0.0, 0.0):
                    raise ValueError("auto_blocking_pair needs a goal away from the start (0, 0)")
                trapped = f"blocking pair derived from goal {goal} traps the start or the goal"
                raise ConfigError("world.goal", trapped)
            world = build("world.goal", World, goal, tolerance, goal_obstacles, bounds)
        if not bounds.contains(0.0, 0.0):
            raise ConfigError("world.bounds", "bounds must contain the start position (0, 0)")
        if any(obs.contains(0.0, 0.0) for obs in obstacles):
            raise ConfigError("world.obstacles", "start position (0, 0) lies inside an obstacle")
        if goal is None:
            b = bounds
            farthest = math.hypot(max(-b.x_min, b.x_max), max(-b.y_min, b.y_max))
            if min_start_distance > farthest:
                raise ConfigError(
                    "world.random_goal",
                    f"min start distance {min_start_distance:g} cm exceeds {farthest:g} cm, "
                    "the largest distance from the start (0, 0) to a point of the bounds",
                )
        super().__init__(goal, tolerance, bounds, obstacles, min_start_distance, auto_blocking_pair)
        # Derived from the fields: out of eq, hash, repr and replace.
        _set(self, "world", world)

    def to_dict(self) -> dict:
        out: dict = {}
        if self.goal is not None:
            out["goal"] = [self.goal[0], self.goal[1]]
        else:
            out["random_goal"] = {"min_start_distance": self.min_start_distance}
        out["tolerance"] = self.tolerance
        out["bounds"] = self.bounds.to_dict()
        out["obstacles"] = "auto" if self.auto_blocking_pair else [o.to_dict() for o in self.obstacles]
        return out


class ExperimentConfig(Value):
    """Everything that determines a run: scheme, robot, world recipe, seed.

    Building a config checks it: a ``scheme``, ``robot`` or ``world`` that is
    not a ``LearningScheme``, ``RobotParams`` or ``WorldSpec``, a ``seed``,
    ``max_steps``, ``preset`` or ``feedback_literal_eq10`` of the wrong type,
    a negative ``seed``, or a ``max_steps`` below 1 or above ``sys.maxsize``, is
    a ``ConfigError`` for that field, and a move-table entry that is not
    finite, or turns large enough that the heading could leave float range
    within ``max_steps``, is one for the field ``robot``. The checked table
    is kept in ``moves`` for the episode to drive with.
    """

    _fields = ("scheme", "seed", "robot", "world", "max_steps", "feedback_literal_eq10", "preset")
    __slots__ = (*_fields, "moves")

    def __init__(
        self,
        scheme: LearningScheme,
        seed: int,
        robot: RobotParams = RobotParams(),
        world: WorldSpec = WorldSpec(),
        max_steps: int = DEFAULT_MAX_STEPS,
        feedback_literal_eq10: bool = False,
        preset: int | None = None,
    ) -> None:
        for field, value, kind in (
            ("scheme", scheme, LearningScheme), ("robot", robot, RobotParams), ("world", world, WorldSpec)
        ):
            if not isinstance(value, kind):
                raise ConfigError(field, f"expected a {kind.__name__}, got {value!r}")
        _check_int(seed, "seed")
        _check_int(max_steps, "max_steps")
        _check_bool(feedback_literal_eq10, "feedback_literal_eq10")
        if preset is not None:
            _check_int(preset, "preset")
            _check_preset(preset)
        if seed < 0:
            raise ConfigError("seed", f"must be non-negative, got {seed}")
        if max_steps < 1:
            raise ConfigError("max_steps", f"must be >= 1, got {max_steps}")
        if max_steps > sys.maxsize:
            # A stalled run extends each column by its length, which must fit an index.
            raise ConfigError("max_steps", f"must be at most sys.maxsize = {sys.maxsize}, got more")
        moves = build("robot", move_table, robot)
        # The heading is a sum of at most max_steps turns, so this bound keeps
        # it, and every mid-arc heading, finite for the whole episode. The turn
        # goes first, so a robot that never turns gives 0.0, not 0.0 * inf.
        if not math.isfinite(2.0 * max(abs(turn) for _, _, turn in moves) * (max_steps + 1)):
            raise ConfigError(
                "robot", f"the heading can leave float range within {max_steps} steps"
            )
        super().__init__(scheme, seed, robot, world, max_steps, feedback_literal_eq10, preset)
        # Derived from robot: out of eq, hash, repr and replace.
        _set(self, "moves", moves)

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "scheme": {
                "kind": self.scheme.kind.value,
                "a": self.scheme.reward_rate,
                "b": self.scheme.penalty_rate,
            },
            "robot": {key: getattr(self.robot, name) for key, name in ROBOT_KEYS.items()},
            "world": self.world.to_dict(),
            "max_steps": self.max_steps,
            "feedback_literal_eq10": self.feedback_literal_eq10,
        }


def config_digest(config: ExperimentConfig) -> str:
    """Stable hash of the full configuration, seed included."""
    import hashlib  # imported here: only digests need it, and it is slow to import

    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


class Termination(str, Enum):
    GOAL_REACHED = "goal_reached"
    MAX_STEPS_EXCEEDED = "max_steps_exceeded"


class RunRecord(Value):
    """Complete, reproducible trace of one episode, one column per quantity.

    Row ``i`` of every column is step ``i + 1``, as written to
    ``trajectory.csv``: the pose ``x``, ``y``, ``theta`` and goal distance
    ``d`` after the step, the 1-based ``action``, the feedback ``flag``
    (0 success, 1 failure) and whether the move was ``blocked``. ``probs``
    holds the action probabilities after each update, ``ACTION_COUNT``
    values per step. ``seed`` and ``config_digest`` are read from ``config``.

    The artifact writers rely on one property: no float in ``x``, ``y``,
    ``theta``, ``d`` or ``probs`` is -0.0, so equal values have equal text.
    ``x``, ``y`` and ``theta`` are sums that start at +0.0, and a rounded
    sum is -0.0 only when both terms are; ``d`` is a ``hypot``; the
    probabilities are non-negative products and sums.
    """

    __slots__ = _fields = (
        "x", "y", "theta", "d", "probs", "action", "flag", "blocked",
        "terminated", "config", "world",
    )
    rng_algorithm = RNG_ALGORITHM
    # Compared by value, but the array columns are mutable, so not hashable.
    __hash__ = None

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def config_digest(self) -> str:
        return config_digest(self.config)

    @property
    def total_steps(self) -> int:
        return len(self.action)

    @property
    def success(self) -> bool:
        return self.terminated is Termination.GOAL_REACHED

    @property
    def final_pose(self) -> tuple[float, float, float]:
        """``(x, y, theta)`` after the last step; the start pose if there was none."""
        if self.action:
            return self.x[-1], self.y[-1], self.theta[-1]
        return 0.0, 0.0, 0.0


def _goal_obstacles(
    goal: tuple[float, float], tolerance: float, obstacles: tuple[Obstacle, ...], auto_blocking_pair: bool
) -> tuple[Obstacle, ...] | None:
    """The obstacles of the world with this goal, or None when its derived pair cannot be placed.

    ``auto_blocking_pair`` derives two discs from the goal in place of ``obstacles``:
    they straddle the start-to-goal line at one third and two thirds of the way, so
    the goal must lie away from the start (0, 0), and they must leave the start and
    the whole goal-tolerance disc free.
    """
    if not auto_blocking_pair:
        return obstacles
    gx, gy = goal
    span = math.hypot(gx, gy)
    if span == 0.0:
        return None
    ux, uy = gx / span, gy / span
    off = _BLOCKING_LATERAL_OFFSET_CM
    pair = (
        CircleObstacle((gx / 3.0 - off * uy, gy / 3.0 + off * ux), _BLOCKING_RADIUS_CM),
        CircleObstacle((2.0 * gx / 3.0 + off * uy, 2.0 * gy / 3.0 - off * ux), _BLOCKING_RADIUS_CM),
    )
    trapped = any(
        obs.exterior_clearance(0.0, 0.0) <= _START_CLEARANCE_CM or obs.exterior_clearance(gx, gy) <= tolerance
        for obs in pair
    )
    return None if trapped else pair


def build_world(spec: WorldSpec, rng) -> World:
    """Materialize a :class:`World` from a recipe, consuming ``rng`` draws.

    ``rng`` is anything with ``uniform(low, high)`` that draws from
    [low, high], such as a ``random.Random`` or a numpy ``Generator``: both
    compute ``low + (high - low) * u`` for a u in [0, 1), which can round up to ``high``.

    A random goal is drawn uniformly over the bounds, x then y, and redrawn
    while it lies closer than ``min_start_distance`` to the start, its derived
    pair cannot be placed (``_goal_obstacles``), or it misses the bounds or
    lies inside an obstacle (``_goal_misfit``).
    """
    if spec.world is not None:
        return spec.world
    bounds = spec.bounds
    for _ in range(_MAX_WORLD_ATTEMPTS):
        goal = rng.uniform(bounds.x_min, bounds.x_max), rng.uniform(bounds.y_min, bounds.y_max)
        if math.hypot(*goal) < spec.min_start_distance:
            continue
        obstacles = _goal_obstacles(goal, spec.tolerance, spec.obstacles, spec.auto_blocking_pair)
        if obstacles is not None and _goal_misfit(goal, obstacles, bounds) is None:
            return World(goal, spec.tolerance, obstacles, bounds)
    raise InfeasibleWorldError(
        f"no feasible goal after {_MAX_WORLD_ATTEMPTS} samples (bounds {bounds!r}, "
        f"{len(spec.obstacles)} obstacles, min start distance {spec.min_start_distance})"
    )


def run_episode(config: ExperimentConfig) -> RunRecord:
    """Run one full episode; deterministic for a given config and seed.

    Once ``absorbed_action`` names an action, every later step takes it with no
    draw and no update, which could not change it; the rest of the step is the same.

    A blocked step whose update leaves the vector as it was is a fixed point:
    the pose, distance, flag and vector stay, so the same action repeats the
    row exactly. While the draws keep selecting it, those rows are appended in
    one go; the draw that ends the run picks the next step. Absorbed, the run
    takes the rest of the budget with no draw.
    """
    moves = config.moves
    rng = random.Random(config.seed)
    world = build_world(config.world, rng)

    scheme = config.scheme
    literal = config.feedback_literal_eq10
    probs = init_uniform(ACTION_COUNT)
    x = y = theta = 0.0
    d_prev = distance_to_goal(x, y, world)
    xs, ys, thetas, ds, prob_col = (array("d") for _ in range(5))
    actions, flags, blocks = (array("b") for _ in range(3))
    terminated = Termination.MAX_STEPS_EXCEEDED

    if goal_reached(x, y, world):
        terminated = Termination.GOAL_REACHED
    else:
        draw = rng.random
        # Only a scheme without penalties can absorb (see absorbed_action).
        absorbing = scheme.penalty_rate == 0.0
        absorbed = None
        stuck = 0  # the action that repeats the last row exactly, or 0
        remaining = config.max_steps
        while remaining:
            action = absorbed or select_action(probs, draw())
            if action == stuck:
                run = remaining if absorbed else 1
                while run < remaining and (action := select_action(probs, draw())) == stuck:
                    run += 1
                for column in (xs, ys, thetas, ds, actions, flags, blocks):
                    column.extend(column[-1:] * run)
                prob_col.extend(prob_col[-ACTION_COUNT:] * run)
                remaining -= run
                if not remaining:
                    break
            remaining -= 1
            px, py, ptheta = integrate_action(x, y, theta, moves[action - 1])
            blocked = resolve_motion(x, y, px, py, world)
            if not blocked:
                x, y, theta = px, py, ptheta
            d = distance_to_goal(x, y, world)
            flag = compute_feedback(d, d_prev, literal=literal)
            if absorbed:
                stuck = action if blocked else 0
            else:
                updated = apply_feedback(probs, action, flag, scheme)
                stuck = action if blocked and updated == probs else 0
                probs = updated
                if absorbing and flag == 0:
                    absorbed = absorbed_action(probs, scheme)
            xs.append(x)
            ys.append(y)
            thetas.append(theta)
            ds.append(d)
            prob_col.extend(probs)
            actions.append(action)
            flags.append(flag)
            blocks.append(blocked)
            d_prev = d
            # goal_reached's test, on the distance just computed.
            if d <= world.goal_tolerance:
                terminated = Termination.GOAL_REACHED
                break

    return RunRecord(
        x=xs,
        y=ys,
        theta=thetas,
        d=ds,
        probs=prob_col,
        action=actions,
        flag=flags,
        blocked=blocks,
        terminated=terminated,
        config=config,
        world=world,
    )


class SeedFailure(Value):
    """A seed whose world could not be materialized; the batch continues."""

    __slots__ = _fields = ("seed", "error")


def _percentile(ordered: list[int], q: int) -> float:
    """numpy's default ``linear`` percentile (Hyndman & Fan type 7) of a sorted list, bit for bit.

    The virtual index is ``(n - 1) * (q / 100)``, divided first as numpy
    does; the interpolation runs from the upper value when the fraction is
    at least one half, as numpy's ``_lerp`` does.
    """
    index = (len(ordered) - 1) * (q / 100)
    if index >= len(ordered) - 1:
        return float(ordered[-1])
    below = int(index)
    frac = index - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    return b - (b - a) * (1 - frac) if frac >= 0.5 else a + (b - a) * frac


def summarize(steps: Sequence[int], successes: int, config_failures: int = 0) -> dict:
    """The ``summary`` object of ``batch_summary.json``, from each run's step count,
    the number of runs that reached the goal and the number of seeds that failed."""
    runs = len(steps)
    stats = dict.fromkeys(("mean", "median", "p10", "p25", "p75", "p90", "min", "max"))
    if steps:
        counts = sorted(steps)
        stats = {
            "mean": sum(counts) / runs,
            "median": _percentile(counts, 50),
            **{f"p{q}": _percentile(counts, q) for q in (10, 25, 75, 90)},
            "min": counts[0],
            "max": counts[-1],
        }
    return {
        "runs": runs,
        "config_failures": config_failures,
        "success_count": successes,
        "success_rate": successes / runs if runs else 0.0,
        "steps": stats,
    }


def run_batch(
    config_template: ExperimentConfig, seeds: Sequence[int]
) -> Iterator[RunRecord | SeedFailure]:
    """Run one episode per seed, serially, and yield each outcome in the seed list's order.

    Each episode owns its generator, so a seed's run does not depend on
    the other seeds in the list. A seed whose world cannot be built yields
    a :class:`SeedFailure` instead of aborting the batch. Nothing is kept
    between seeds: a record is dropped once the caller lets go of it.
    An empty seed list raises ``ValueError`` at the first ``next()``.
    """
    if not seeds:
        raise ValueError("seed list must not be empty")
    for seed in seeds:
        try:
            yield run_episode(config_template.replace(seed=seed))
        except InfeasibleWorldError as exc:
            yield SeedFailure(seed=seed, error=str(exc))


# Built-in experiments: id -> (scheme, derived two-disc layout, description).
PRESETS = {
    1: (LearningScheme("lrp", 0.7), False, "reward and penalty, open workspace"),
    2: (LearningScheme("lri", 0.7), False, "reward only (failures ignored), open workspace"),
    3: (LearningScheme("penalty_only", 0.0, 0.7), False, "penalty only (successes ignored), open workspace"),
    4: (LearningScheme("lrp", 0.7), True, "reward and penalty, two discs blocking the direct path"),
}


def _check_preset(preset) -> None:
    # type() and not isinstance(): True == 1, and [1] is unhashable.
    if type(preset) is not int or preset not in PRESETS:
        raise ConfigError(
            "preset", f"unknown preset {preset!r}; valid presets are {min(PRESETS)}-{max(PRESETS)}"
        )


def preset_config(preset: int, seed: int) -> ExperimentConfig:
    """Expand one of the built-in experiment presets of ``PRESETS``."""
    _check_preset(preset)
    scheme, auto_blocking_pair, _ = PRESETS[preset]
    return ExperimentConfig(
        scheme=scheme,
        seed=seed,
        world=WorldSpec(auto_blocking_pair=auto_blocking_pair),
        preset=preset,
    )
