"""Workspace geometry, goal feedback and motion blocking.

The world is an axis-aligned rectangular workspace holding one goal point,
a goal tolerance, and optional obstacles (circles and axis-aligned
rectangles). Feedback is a binary flag derived from whether a step reduced
the straight-line distance to the goal. Moves that would cross an obstacle
or leave the workspace are rejected wholesale: the robot stays put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .automata import FAILURE, SUCCESS, PModelFeedback
from .errors import InfeasibleWorldError
from .kinematics import RobotPose

GOAL_TOLERANCE_CM = 2.0
DEFAULT_MIN_START_DISTANCE_CM = 20.0
_MAX_SAMPLE_ATTEMPTS = 10_000

# Chord samples for obstacle tests, as fractions of the move; the last lands
# on the proposed endpoint, which is additionally checked with exact
# coordinates. Every k/32 is exact in binary floating point.
_SAMPLE_FRACTIONS = tuple(k / 32 for k in range(1, 33))

# Slack of the collision broadphase, relative to the coordinate magnitude.
# Rounding in the chord samples, the midpoint, the chord length, the
# clearance and the containment test is each a few units in the last place
# of the largest coordinate involved, together below 1e-14 of it; 1e-12
# leaves ample room and is still far below any move length.
_BROADPHASE_REL_MARGIN = 1e-12


@dataclass(frozen=True, slots=True)
class Bounds:
    """Axis-aligned workspace rectangle in cm; membership is boundary-inclusive."""

    x_min: float = -100.0
    y_min: float = -100.0
    x_max: float = 100.0
    y_max: float = 100.0

    def __post_init__(self) -> None:
        # A non-finite corner makes the width or height non-finite too, and
        # a finite width and height keep goal sampling within float range.
        if not (math.isfinite(self.x_max - self.x_min) and math.isfinite(self.y_max - self.y_min)):
            raise ValueError(f"expected a finite number for every corner, width and height, got {self!r}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate bounds {self!r}")

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def to_dict(self) -> dict:
        return {"min": [self.x_min, self.y_min], "max": [self.x_max, self.y_max]}


@dataclass(frozen=True, slots=True)
class CircleObstacle:
    """Solid disc; points strictly inside the radius are blocked."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"circle radius must be positive, got {self.radius!r}")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if not (math.isfinite(self.center[0]) and math.isfinite(self.center[1])):
            raise ValueError(f"circle center must be finite, got {self.center!r}")

    def contains(self, x: float, y: float) -> bool:
        dx = x - self.center[0]
        dy = y - self.center[1]
        return dx * dx + dy * dy < self.radius * self.radius

    def exterior_clearance(self, x: float, y: float) -> float:
        """Distance from a point to the disc surface; 0 on or inside."""
        gap = math.hypot(x - self.center[0], y - self.center[1]) - self.radius
        return gap if gap > 0.0 else 0.0

    def to_dict(self) -> dict:
        return {"shape": "circle", "center": list(self.center), "radius": self.radius}

    def coordinate_scale(self) -> float:
        """Largest coordinate magnitude of any point of the disc."""
        return max(abs(self.center[0]), abs(self.center[1])) + self.radius


@dataclass(frozen=True, slots=True)
class RectObstacle:
    """Solid axis-aligned box; points strictly inside are blocked."""

    min_corner: tuple[float, float]
    max_corner: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_corner", (float(self.min_corner[0]), float(self.min_corner[1])))
        object.__setattr__(self, "max_corner", (float(self.max_corner[0]), float(self.max_corner[1])))
        if not all(math.isfinite(v) for v in (*self.min_corner, *self.max_corner)):
            raise ValueError(f"rectangle corners must be finite, got {self!r}")
        if not (self.min_corner[0] < self.max_corner[0] and self.min_corner[1] < self.max_corner[1]):
            raise ValueError(f"degenerate rectangle {self!r}")

    def contains(self, x: float, y: float) -> bool:
        return (
            self.min_corner[0] < x < self.max_corner[0]
            and self.min_corner[1] < y < self.max_corner[1]
        )

    def exterior_clearance(self, x: float, y: float) -> float:
        """Distance from a point to the box surface; 0 on or inside."""
        dx = max(self.min_corner[0] - x, 0.0, x - self.max_corner[0])
        dy = max(self.min_corner[1] - y, 0.0, y - self.max_corner[1])
        return math.hypot(dx, dy)

    def to_dict(self) -> dict:
        return {"shape": "rect", "min": list(self.min_corner), "max": list(self.max_corner)}

    def coordinate_scale(self) -> float:
        """Largest coordinate magnitude of any point of the box."""
        return max(abs(v) for v in (*self.min_corner, *self.max_corner))


Obstacle = CircleObstacle | RectObstacle


@dataclass(frozen=True, slots=True)
class World:
    """Immutable workspace: goal point, tolerance, obstacles, bounds.

    ``obstacle_scale`` is derived: the largest coordinate magnitude of any
    obstacle point (0 without obstacles). It scales the collision
    broadphase margin in :func:`resolve_motion`.
    """

    goal: tuple[float, float]
    goal_tolerance: float = GOAL_TOLERANCE_CM
    obstacles: tuple[Obstacle, ...] = ()
    bounds: Bounds = field(default_factory=Bounds)
    obstacle_scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(
            self, "obstacle_scale", max((o.coordinate_scale() for o in self.obstacles), default=0.0)
        )
        if not self.goal_tolerance > 0:
            raise ValueError(f"goal tolerance must be positive, got {self.goal_tolerance!r}")
        gx, gy = self.goal
        if not self.bounds.contains(gx, gy):
            raise ValueError(f"goal {self.goal} outside bounds {self.bounds!r}")
        for obs in self.obstacles:
            if obs.contains(gx, gy):
                raise ValueError(f"goal {self.goal} lies inside obstacle {obs!r}")

    def to_dict(self) -> dict:
        return {
            "goal": [self.goal[0], self.goal[1]],
            "tolerance": self.goal_tolerance,
            "bounds": self.bounds.to_dict(),
            "obstacles": [obs.to_dict() for obs in self.obstacles],
        }


def random_goal(
    bounds: Bounds,
    obstacles: tuple[Obstacle, ...] | list,
    rng: np.random.Generator,
    min_start_distance: float = DEFAULT_MIN_START_DISTANCE_CM,
) -> tuple[float, float]:
    """Sample a goal uniformly over the bounds.

    Candidates inside an obstacle or closer than ``min_start_distance`` to
    the origin (the robot's start) are rejected and redrawn. Deterministic
    for a given generator state.
    """
    for _ in range(_MAX_SAMPLE_ATTEMPTS):
        x = rng.uniform(bounds.x_min, bounds.x_max)
        y = rng.uniform(bounds.y_min, bounds.y_max)
        if math.hypot(x, y) < min_start_distance:
            continue
        if any(obs.contains(x, y) for obs in obstacles):
            continue
        return float(x), float(y)
    raise InfeasibleWorldError(
        f"no feasible goal after {_MAX_SAMPLE_ATTEMPTS} samples "
        f"(bounds {bounds!r}, {len(tuple(obstacles))} obstacles, "
        f"min start distance {min_start_distance})"
    )


def distance_to_goal(pose: RobotPose, world: World) -> float:
    """Euclidean distance in cm from the pose position to the goal."""
    return math.hypot(pose.x - world.goal[0], pose.y - world.goal[1])


def compute_feedback(d_now: float, d_prev: float, literal: bool = False) -> PModelFeedback:
    """Binary flag for one step: success when the goal distance shrank.

    ``literal`` inverts the comparison (success when the distance did not
    shrink); it exists for comparison runs and is off by default. Ties are
    never a success in the default mode: standing still earns a failure.
    """
    if d_now < 0 or d_prev < 0:
        raise ValueError(f"distances must be non-negative, got {d_now!r}, {d_prev!r}")
    improved = d_now < d_prev
    if literal:
        return FAILURE if improved else SUCCESS
    return SUCCESS if improved else FAILURE


def goal_reached(pose: RobotPose, world: World) -> bool:
    """True when the pose is within the goal tolerance (boundary inclusive)."""
    return distance_to_goal(pose, world) <= world.goal_tolerance


def resolve_motion(
    start: RobotPose, proposed: RobotPose, world: World
) -> tuple[RobotPose, bool]:
    """Accept or wholly reject a proposed move.

    The straight chord from ``start`` to ``proposed`` is sampled at the 32
    points ``start + (k/32)*(proposed - start)``, k = 1..32, plus the exact
    endpoint; if any sample falls inside an obstacle, or the endpoint leaves
    the bounds, the move is rejected and the robot stays at ``start``. The
    bounds are convex, so only the endpoint needs a bounds test.

    A broadphase skips the samples of every obstacle the chord cannot reach.
    With ``m`` the chord midpoint and ``L`` the chord length, an obstacle is
    skipped when its exterior clearance at ``m`` exceeds ``L/2 + margin``.
    Every chord point lies within ``L/2`` of ``m``, so by the triangle
    inequality it is more than ``margin`` outside the obstacle. The margin
    is relative to the largest coordinate magnitude of the chord and of the
    obstacles, and covers the rounding of the midpoint, the clearance, the
    samples and the containment test. A skipped obstacle is therefore one
    for which every sample would have tested outside: the broadphase never
    changes a decision.
    """
    obstacles = world.obstacles
    sx = start.x
    sy = start.y
    for obs in obstacles:
        if obs.contains(sx, sy):
            raise ValueError(f"start pose ({sx}, {sy}) lies inside obstacle {obs!r}")
    px = proposed.x
    py = proposed.y
    if not world.bounds.contains(px, py):
        return start, True
    if obstacles:
        dx = px - sx
        dy = py - sy
        mx = sx + 0.5 * dx
        my = sy + 0.5 * dy
        half = 0.5 * math.hypot(dx, dy)
        reach = half + _BROADPHASE_REL_MARGIN * (world.obstacle_scale + abs(mx) + abs(my) + half)
        for obs in obstacles:
            if obs.exterior_clearance(mx, my) > reach:
                continue
            contains = obs.contains
            if contains(px, py):
                return start, True
            for f in _SAMPLE_FRACTIONS:
                if contains(sx + f * dx, sy + f * dy):
                    return start, True
    return proposed, False
