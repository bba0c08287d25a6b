"""Workspace geometry, goal feedback and motion blocking.

The world is an axis-aligned rectangular workspace holding one goal point,
a goal tolerance, and optional obstacles (circles and axis-aligned
rectangles). Feedback is a binary flag derived from whether a step reduced
the straight-line distance to the goal. Moves that would cross an obstacle
or leave the workspace are rejected wholesale: the robot stays put.
"""

import math

from ._value import Value, _number

GOAL_TOLERANCE_CM = 2.0
DEFAULT_MIN_START_DISTANCE_CM = 20.0
# Every coordinate, radius and distance is at most this many cm in magnitude,
# so a squared coordinate difference or radius cannot overflow a float.
MAX_MAGNITUDE_CM = 1e150


def _finite(value: float, what: str) -> float:
    """``value`` as a float; ValueError unless it is a finite number within ``MAX_MAGNITUDE_CM``."""
    number = _number(value, what)
    if not abs(number) <= MAX_MAGNITUDE_CM:
        raise ValueError(
            f"{what} must be finite and at most {MAX_MAGNITUDE_CM:g} cm in magnitude, got {value!r}"
        )
    return number


def _point(point: tuple[float, float], what: str) -> tuple[float, float]:
    """``point`` as two ``_finite`` floats; ValueError unless it unpacks to exactly two items."""
    try:
        x, y = point
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an [x, y] pair, got {point!r}") from None
    return _finite(x, what), _finite(y, what)


class Bounds(Value):
    """Axis-aligned workspace rectangle in cm; membership is boundary-inclusive."""

    __slots__ = _fields = ("x_min", "y_min", "x_max", "y_max")

    def __init__(
        self, x_min: float = -100.0, y_min: float = -100.0, x_max: float = 100.0, y_max: float = 100.0
    ) -> None:
        edges = zip(self._fields, (x_min, y_min, x_max, y_max))
        super().__init__(*[_finite(value, f"bounds {name}") for name, value in edges])
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate bounds {self!r}")

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def to_dict(self) -> dict:
        return {"min": [self.x_min, self.y_min], "max": [self.x_max, self.y_max]}


class CircleObstacle(Value):
    """Solid disc; points strictly inside the radius are blocked."""

    __slots__ = _fields = ("center", "radius")

    def __init__(self, center: tuple[float, float], radius: float) -> None:
        radius = _finite(radius, "circle radius")
        if not radius > 0:
            raise ValueError(f"circle radius must be positive, got {radius!r}")
        super().__init__(_point(center, "circle center"), radius)

    def contains(self, x: float, y: float) -> bool:
        dx = x - self.center[0]
        dy = y - self.center[1]
        return dx * dx + dy * dy < self.radius * self.radius

    def exterior_clearance(self, x: float, y: float) -> float:
        """Distance from a point to the disc surface; 0 on or inside."""
        gap = math.hypot(x - self.center[0], y - self.center[1]) - self.radius
        return gap if gap > 0.0 else 0.0

    def crosses(self, sx: float, sy: float, px: float, py: float) -> bool:
        """True when the segment from (sx, sy) to (px, py) enters the open disc.

        The closest segment point to the centre decides, as in :meth:`contains`.
        """
        ax = sx - self.center[0]
        ay = sy - self.center[1]
        dx = px - sx
        dy = py - sy
        along = -(ax * dx + ay * dy)
        if along > 0.0:
            length_sq = dx * dx + dy * dy
            t = along / length_sq if along < length_sq else 1.0
            ax += t * dx
            ay += t * dy
        return ax * ax + ay * ay < self.radius * self.radius

    def to_dict(self) -> dict:
        return {"shape": "circle", "center": list(self.center), "radius": self.radius}


class RectObstacle(Value):
    """Solid axis-aligned box; points strictly inside are blocked."""

    __slots__ = _fields = ("min_corner", "max_corner")

    def __init__(self, min_corner: tuple[float, float], max_corner: tuple[float, float]) -> None:
        super().__init__(
            _point(min_corner, "rectangle min corner"), _point(max_corner, "rectangle max corner")
        )
        if not (self.min_corner[0] < self.max_corner[0] and self.min_corner[1] < self.max_corner[1]):
            raise ValueError(f"degenerate rectangle {self!r}")

    def contains(self, x: float, y: float) -> bool:
        return (
            self.min_corner[0] < x < self.max_corner[0]
            and self.min_corner[1] < y < self.max_corner[1]
        )

    def crosses(self, sx: float, sy: float, px: float, py: float) -> bool:
        """True when the segment from (sx, sy) to (px, py) enters the open box.

        Slab clip: the open parameter intervals of both axes and [0, 1] must
        overlap; an axis without displacement must lie strictly between its faces.
        """
        t_in, t_out = 0.0, 1.0
        for s, d, lo, hi in (
            (sx, px - sx, self.min_corner[0], self.max_corner[0]),
            (sy, py - sy, self.min_corner[1], self.max_corner[1]),
        ):
            if d == 0.0:
                if not lo < s < hi:
                    return False
            else:
                t_lo, t_hi = sorted(((lo - s) / d, (hi - s) / d))
                t_in, t_out = max(t_in, t_lo), min(t_out, t_hi)
        return t_in < t_out

    def to_dict(self) -> dict:
        return {"shape": "rect", "min": list(self.min_corner), "max": list(self.max_corner)}


Obstacle = CircleObstacle | RectObstacle


def _obstacles(obstacles) -> tuple[Obstacle, ...]:
    """``obstacles`` as a tuple; ValueError unless it is a list of ``CircleObstacle`` and ``RectObstacle``."""
    try:
        obstacles = tuple(obstacles)
    except TypeError:
        raise ValueError(f"expected a list of obstacles, got {obstacles!r}") from None
    for obs in obstacles:
        if not isinstance(obs, Obstacle):
            raise ValueError(f"expected a CircleObstacle or RectObstacle, got {obs!r}")
    return obstacles


def _check_bounds(bounds) -> None:
    if not isinstance(bounds, Bounds):
        raise ValueError(f"expected a Bounds, got {bounds!r}")


def _goal_misfit(goal: tuple[float, float], obstacles: tuple[Obstacle, ...], bounds: Bounds):
    """``bounds`` if ``goal`` lies outside them, else the first obstacle holding it, else None."""
    if not bounds.contains(*goal):
        return bounds
    return next((obs for obs in obstacles if obs.contains(*goal)), None)


class World(Value):
    """Immutable workspace: goal point, tolerance, obstacles, bounds."""

    __slots__ = _fields = ("goal", "goal_tolerance", "obstacles", "bounds")

    def __init__(
        self,
        goal: tuple[float, float],
        goal_tolerance: float = GOAL_TOLERANCE_CM,
        obstacles: tuple[Obstacle, ...] = (),
        bounds: Bounds = Bounds(),
    ) -> None:
        goal = _point(goal, "goal")
        goal_tolerance = _finite(goal_tolerance, "goal tolerance")
        obstacles = _obstacles(obstacles)
        _check_bounds(bounds)
        if not goal_tolerance > 0:
            raise ValueError(f"goal tolerance must be positive, got {goal_tolerance!r}")
        culprit = _goal_misfit(goal, obstacles, bounds)
        if culprit is bounds:
            raise ValueError(f"goal {goal} outside bounds {bounds!r}")
        if culprit is not None:
            raise ValueError(f"goal {goal} lies inside obstacle {culprit!r}")
        super().__init__(goal, goal_tolerance, obstacles, bounds)

    def to_dict(self) -> dict:
        return {
            "goal": [self.goal[0], self.goal[1]],
            "tolerance": self.goal_tolerance,
            "bounds": self.bounds.to_dict(),
            "obstacles": [obs.to_dict() for obs in self.obstacles],
        }


def distance_to_goal(x: float, y: float, world: World) -> float:
    """Euclidean distance in cm from the point ``(x, y)`` to the goal."""
    return math.hypot(x - world.goal[0], y - world.goal[1])


def compute_feedback(d_now: float, d_prev: float, literal: bool = False) -> int:
    """Binary flag for one step: 0 (success) when the goal distance shrank, else 1.

    ``literal`` inverts the comparison (success when the distance did not
    shrink); it exists for comparison runs and is off by default. Ties are
    never a success in the default mode: standing still earns a failure.
    """
    if d_now < 0 or d_prev < 0:
        raise ValueError(f"distances must be non-negative, got {d_now!r}, {d_prev!r}")
    improved = d_now < d_prev
    if literal:
        return 1 if improved else 0
    return 0 if improved else 1


def goal_reached(x: float, y: float, world: World) -> bool:
    """True when ``(x, y)`` is within the goal tolerance (boundary inclusive)."""
    return distance_to_goal(x, y, world) <= world.goal_tolerance


def resolve_motion(sx: float, sy: float, px: float, py: float, world: World) -> bool:
    """Whether the move from ``(sx, sy)`` to ``(px, py)`` is blocked.

    A blocked move is rejected wholesale and the robot stays at the start.
    The move is blocked when its endpoint leaves the bounds or its straight
    chord enters an obstacle's open interior. The bounds are convex, so the
    endpoint suffices for the chord it tests; the driven arc can bulge up
    to ~0.041 cm past the chord, and that is not tested. The endpoint's own
    coordinates are tested first: the chord's computed endpoint can round
    differently, and an accepted endpoint must test outside every obstacle.
    """
    obstacles = world.obstacles
    for obs in obstacles:
        if obs.contains(sx, sy):
            raise ValueError(f"start pose ({sx}, {sy}) lies inside obstacle {obs!r}")
    if not world.bounds.contains(px, py):
        return True
    for obs in obstacles:
        if obs.contains(px, py) or obs.crosses(sx, sy, px, py):
            return True
    return False
