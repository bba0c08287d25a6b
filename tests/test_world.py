"""World tests: feedback polarity, goal detection, sampling, blocking."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from la_nav import (
    Bounds,
    CircleObstacle,
    InfeasibleWorldError,
    RectObstacle,
    World,
    WorldSpec,
    build_world,
    compute_feedback,
    distance_to_goal,
    goal_reached,
    resolve_motion,
)

from conftest import WRONG_WORLD_TYPES


def make_world(goal=(50.0, 0.0), tolerance=2.0, obstacles=(), bounds=None):
    return World(goal, tolerance, obstacles, bounds or Bounds())


_ORACLE_FRACTIONS = np.arange(1, 33) / 32.0


def _oracle_any_contains(obs, xs, ys):
    # The vectorised containment tests of the numpy chord rule.
    if isinstance(obs, CircleObstacle):
        dx = xs - obs.center[0]
        dy = ys - obs.center[1]
        return bool(np.any(dx * dx + dy * dy < obs.radius * obs.radius))
    inside = (
        (xs > obs.min_corner[0])
        & (xs < obs.max_corner[0])
        & (ys > obs.min_corner[1])
        & (ys < obs.max_corner[1])
    )
    return bool(np.any(inside))


def chord_sample_oracle(start, proposed, world):
    """The numpy 32-sample chord rule that the exact chord tests replaced; True if blocked."""
    (sx, sy), (px, py) = start, proposed
    for obs in world.obstacles:
        if obs.contains(sx, sy):
            raise ValueError(f"start pose ({sx}, {sy}) lies inside obstacle {obs!r}")
    if not world.bounds.contains(px, py):
        return True
    if world.obstacles:
        xs = sx + _ORACLE_FRACTIONS * (px - sx)
        ys = sy + _ORACLE_FRACTIONS * (py - sy)
        for obs in world.obstacles:
            if obs.contains(px, py) or _oracle_any_contains(obs, xs, ys):
                return True
    return False


def deepest_sample_depth(start, proposed, obs):
    """How far the deepest of the oracle's chord samples lies inside ``obs``.

    Negative when every sample is outside.
    """
    (sx, sy), (px, py) = start, proposed
    xs = sx + _ORACLE_FRACTIONS * (px - sx)
    ys = sy + _ORACLE_FRACTIONS * (py - sy)
    if isinstance(obs, CircleObstacle):
        depth = obs.radius - np.hypot(xs - obs.center[0], ys - obs.center[1])
    else:
        (x0, y0), (x1, y1) = obs.min_corner, obs.max_corner
        depth = np.minimum.reduce([xs - x0, x1 - xs, ys - y0, y1 - ys])
    return float(depth.max())


def exact_chord_entry(start, proposed, obs):
    """Whether the chord enters the open interior of ``obs``, in exact rational arithmetic.

    Returns ``(enters, depth)``: ``depth`` is how far the deepest chord point
    lies inside (for a box, the least of its four face distances), negative
    for the closest approach of a chord that stays outside.
    """
    sx, sy = Fraction(start[0]), Fraction(start[1])
    dx, dy = Fraction(proposed[0]) - sx, Fraction(proposed[1]) - sy
    if isinstance(obs, CircleObstacle):
        ax, ay = sx - Fraction(obs.center[0]), sy - Fraction(obs.center[1])
        length_sq = dx * dx + dy * dy
        t = min(max(-(ax * dx + ay * dy) / length_sq, 0), 1) if length_sq else 0
        dist_sq = (ax + t * dx) ** 2 + (ay + t * dy) ** 2
        radius = Fraction(obs.radius)
        return dist_sq < radius * radius, obs.radius - math.sqrt(dist_sq)
    (x0, y0), (x1, y1) = obs.min_corner, obs.max_corner
    # Face distances c + k*t along the chord; their minimum is concave in t,
    # so it peaks at t = 0, t = 1 or where two of them cross.
    faces = [
        (sx - Fraction(x0), dx),
        (Fraction(x1) - sx, -dx),
        (sy - Fraction(y0), dy),
        (Fraction(y1) - sy, -dy),
    ]
    ts = {Fraction(0), Fraction(1)}
    for (c1, k1), (c2, k2) in combinations(faces, 2):
        if k1 != k2 and 0 < (c2 - c1) / (k1 - k2) < 1:
            ts.add((c2 - c1) / (k1 - k2))
    depth = max(min(c + k * t for c, k in faces) for t in ts)
    return depth > 0, float(depth)


def boundary_hugging_moves(rng, scale, count):
    """Seeded ((sx, sy), (px, py), world) moves that graze disc and thin-box boundaries.

    Every length is multiplied by ``scale`` and the obstacles sit about
    40*scale from the origin, so coordinates are large relative to a move.
    Move kinds cycle through: starts 1e-15..0.3 r off a disc, moves around
    a box 0.001-10 (times scale) thin, chords tangent to a disc at their
    midpoint, moves along a box face at offset 0 or nearly 0, zero-length
    moves next to either obstacle, and radial moves that end a hair either
    side of a disc's boundary.
    """
    bounds = Bounds(-100 * scale, -100 * scale, 100 * scale, 100 * scale)
    goal = (95 * scale, 95 * scale)
    for i in range(count):
        kind = i % 6
        cx, cy = (40 + rng.uniform(-20, 20)) * scale, (40 + rng.uniform(-20, 20)) * scale
        a = rng.uniform(0, 2 * math.pi)
        nx, ny = math.cos(a), math.sin(a)
        step = rng.uniform(0, 4) * scale
        if kind in (0, 2, 5) or (kind == 4 and i % 2):
            r = rng.uniform(0.5, 15) * scale
            obs = CircleObstacle((cx, cy), r)
            gap = r * 10 ** rng.uniform(-15, math.log10(0.3))
            sx, sy = cx + (r + gap) * nx, cy + (r + gap) * ny
            if kind == 5:
                # Straight at the disc, ending a hair either side of its boundary.
                edge = r * (1 + rng.uniform(-1, 1) * 10 ** rng.uniform(-16, -12))
                px, py = cx + edge * nx, cy + edge * ny
                sx, sy = px + step * nx, py + step * ny
                dx, dy = px - sx, py - sy
            elif kind == 2:
                # Chord tangent to the disc at its midpoint.
                sx, sy = sx + 0.5 * step * ny, sy - 0.5 * step * nx
                dx, dy = -step * ny, step * nx
            elif rng.random() < 0.5:
                # Head into the disc, give or take 30 degrees.
                b = a + math.pi + rng.uniform(-0.5, 0.5)
                dx, dy = step * math.cos(b), step * math.sin(b)
            else:
                dx, dy = step * math.cos(a + rng.uniform(-3, 3)), step * math.sin(a + rng.uniform(-3, 3))
        else:
            thin = 10 ** rng.uniform(-3, 1) * scale
            length = rng.uniform(1, 30) * scale
            w, h = (thin, length) if rng.random() < 0.5 else (length, thin)
            obs = RectObstacle((cx, cy), (cx + w, cy + h))
            if kind == 3:
                # Along a face, on it or a hair off it, almost parallel.
                offset = 0.0 if rng.random() < 0.5 else 10 ** rng.uniform(-16, -6) * scale
                tilt = 0.0 if rng.random() < 0.5 else 10 ** rng.uniform(-16, -6)
                t0 = rng.uniform(-0.2, 1.2)
                if w < h:
                    sx, sy = cx + w + offset, cy + t0 * h
                    dx, dy = tilt * step, step * (1 if rng.random() < 0.5 else -1)
                else:
                    sx, sy = cx + t0 * w, cy - offset
                    dx, dy = step * (1 if rng.random() < 0.5 else -1), -tilt * step
            else:
                sx = cx + rng.uniform(-3, 3) * scale + rng.uniform(0, 1) * w
                sy = cy + rng.uniform(-3, 3) * scale + rng.uniform(0, 1) * h
                b = rng.uniform(0, 2 * math.pi)
                dx, dy = step * math.cos(b), step * math.sin(b)
        if kind == 4:
            dx = dy = 0.0
        yield (sx, sy), (sx + dx, sy + dy), make_world(goal=goal, obstacles=(obs,), bounds=bounds)


class TestDistance:
    def test_at_goal(self):
        w = make_world(goal=(3.0, 4.0))
        assert distance_to_goal(3.0, 4.0, w) == 0.0

    def test_three_four_five(self):
        w = make_world(goal=(3.0, 4.0))
        assert distance_to_goal(0.0, 0.0, w) == 5.0

    def test_axis_aligned(self):
        w = make_world(goal=(3.0, 1.0))
        assert distance_to_goal(1.0, 1.0, w) == 2.0


class TestFeedback:
    def test_improvement_is_success(self):
        assert compute_feedback(8.0, 10.0) == 0

    def test_tie_is_failure(self):
        assert compute_feedback(10.0, 10.0) == 1

    def test_regression_is_failure(self):
        assert compute_feedback(12.0, 10.0) == 1

    def test_literal_mode_inverts(self):
        assert compute_feedback(8.0, 10.0, literal=True) == 1
        assert compute_feedback(10.0, 10.0, literal=True) == 0
        assert compute_feedback(12.0, 10.0, literal=True) == 0

    def test_rejects_negative_distances(self):
        with pytest.raises(ValueError):
            compute_feedback(-1.0, 5.0)
        with pytest.raises(ValueError):
            compute_feedback(5.0, -1.0)


class TestGoalReached:
    @pytest.mark.parametrize("x,expected", [(1.9, True), (2.0, True), (2.1, False)])
    def test_boundary_inclusive(self, x, expected):
        w = make_world(goal=(0.0, 0.0))
        assert goal_reached(x, 0.0, w) is expected


class TestRandomGoal:
    def test_deterministic_for_seed(self):
        a = build_world(WorldSpec(), np.random.Generator(np.random.PCG64(9)))
        b = build_world(WorldSpec(), np.random.Generator(np.random.PCG64(9)))
        assert a.goal == b.goal

    def test_respects_min_start_distance_and_bounds(self):
        rng = np.random.Generator(np.random.PCG64(3))
        spec = WorldSpec(bounds=Bounds(-40, -40, 40, 40), min_start_distance=20.0)
        for _ in range(500):
            x, y = build_world(spec, rng).goal
            assert math.hypot(x, y) >= 20.0
            assert spec.bounds.contains(x, y)

    def test_avoids_obstacles(self):
        rng = np.random.Generator(np.random.PCG64(4))
        blocker = CircleObstacle((30.0, 30.0), 25.0)
        spec = WorldSpec(bounds=Bounds(0, 0, 60, 60), obstacles=(blocker,), min_start_distance=0.0)
        for _ in range(500):
            assert not blocker.contains(*build_world(spec, rng).goal)

    def test_uniform_mean_near_bounds_center(self):
        rng = np.random.Generator(np.random.PCG64(5))
        spec = WorldSpec(bounds=Bounds(-10, -50, 30, 0), min_start_distance=0.0)
        pts = np.array([build_world(spec, rng).goal for _ in range(10_000)])
        mean = pts.mean(axis=0)
        # within 5% of the half-extent of each axis
        assert abs(mean[0] - 10.0) < 0.05 * 20.0
        assert abs(mean[1] + 25.0) < 0.05 * 25.0

    def test_covered_bounds_is_infeasible(self):
        # The box fills the bounds; the start lies on its edge, outside its open interior.
        rng = np.random.Generator(np.random.PCG64(6))
        blanket = RectObstacle((0.0, -1.0), (1.0, 1.0))
        spec = WorldSpec(bounds=Bounds(0, -1, 1, 1), obstacles=(blanket,), min_start_distance=0.0)
        with pytest.raises(InfeasibleWorldError):
            build_world(spec, rng)


class TestResolveMotion:
    def test_free_move_returns_proposal(self):
        assert resolve_motion(0.0, 0.0, 5.0, 5.0, make_world()) is False

    def test_endpoint_inside_obstacle_blocks(self):
        w = make_world(obstacles=(CircleObstacle((10.0, 0.0), 3.0),))
        assert resolve_motion(0.0, 0.0, 10.0, 0.0, w) is True

    def test_endpoint_a_hair_inside_blocks(self):
        # The chord's own t = 1 point, computed relative to the start, rounds
        # to just outside this disc; the endpoint's coordinates test inside.
        disc = CircleObstacle((-1.5772219124408764, -3.109440904428027), 2.9619469671176235)
        start = (2.6660303667882004, -2.3986467664749247)
        proposed = (1.1565351478764825, -1.9693960933866892)
        assert disc.contains(*proposed)
        assert resolve_motion(*start, *proposed, make_world(obstacles=(disc,))) is True

    def test_crossing_thin_obstacle_blocks(self):
        # Endpoints flank the slab; only the chord between them crosses it.
        slab = RectObstacle((4.5, -0.5), (5.5, 0.5))
        w = make_world(obstacles=(slab,))
        assert not slab.contains(0.0, 0.0)
        assert not slab.contains(10.0, 0.0)
        assert resolve_motion(0.0, 0.0, 10.0, 0.0, w) is True

    def test_leaving_bounds_blocks(self):
        w = make_world(bounds=Bounds(-20, -20, 20, 20), goal=(10.0, 10.0))
        assert resolve_motion(19.0, 0.0, 21.0, 0.0, w) is True
        assert resolve_motion(19.0, 0.0, 20.0, 0.0, w) is False

    def test_start_inside_obstacle_is_invalid(self):
        w = make_world(obstacles=(CircleObstacle((0.0, 0.0), 5.0),), goal=(50.0, 0.0))
        with pytest.raises(ValueError):
            resolve_motion(0.0, 0.0, 10.0, 0.0, w)

    def test_blocked_resolution_is_idempotent(self):
        # A blocked robot stays at the start, so retrying the move blocks again.
        w = make_world(obstacles=(CircleObstacle((10.0, 0.0), 3.0),))
        assert resolve_motion(0.0, 0.0, 10.0, 0.0, w) is True
        assert resolve_motion(0.0, 0.0, 10.0, 0.0, w) is True

    def test_never_lands_inside_obstacle_or_outside_bounds(self):
        rng = np.random.Generator(np.random.PCG64(11))
        obstacles = (
            CircleObstacle((15.0, 10.0), 8.0),
            RectObstacle((-30.0, -30.0), (-10.0, -12.0)),
        )
        w = make_world(goal=(50.0, 50.0), obstacles=obstacles, bounds=Bounds(-60, -60, 60, 60))
        x = y = 0.0
        for _ in range(2000):
            step = rng.uniform(-6, 6, size=2)
            px, py = x + float(step[0]), y + float(step[1])
            if not resolve_motion(x, y, px, py, w):
                x, y = px, py
            assert w.bounds.contains(x, y)
            assert not any(o.contains(x, y) for o in obstacles)

    def test_wall_between_samples_blocks(self):
        # 0.05 cm thick: no point k/32 of the way along this chord lies inside.
        w = make_world(obstacles=(RectObstacle((5.05, -1.0), (5.1, 1.0)),))
        assert resolve_motion(0.0, 0.0, 10.0, 0.0, w) is True

    def test_chord_through_huge_disc_blocks(self):
        # At the magnitude cap the squared distances stay finite.
        disc = CircleObstacle((0.0, 0.0), 1e149)
        bounds = Bounds(-1e150, -1e150, 1e150, 1e150)
        w = make_world(goal=(5e149, 5e149), obstacles=(disc,), bounds=bounds)
        assert disc.contains(5e148, 0.0)
        assert resolve_motion(-9e149, 0.0, 9e149, 0.0, w) is True

    @pytest.mark.parametrize(
        "obstacle,start,end",
        [
            (CircleObstacle((5.0, 3.0), 3.0), (0.0, 0.0), (10.0, 0.0)),  # tangent at (5, 0)
            (RectObstacle((2.0, 0.0), (4.0, 2.0)), (0.0, 0.0), (6.0, 0.0)),  # along the face y = 0
            (RectObstacle((2.0, 0.0), (4.0, 2.0)), (3.0, 3.0), (5.0, 1.0)),  # through the corner (4, 2)
        ],
        ids=["tangent", "face", "corner"],
    )
    def test_touching_boundary_does_not_block(self, obstacle, start, end):
        w = make_world(obstacles=(obstacle,))
        assert resolve_motion(*start, *end, w) is False

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_matches_exact_rational_oracle(self, scale):
        # Floating point may disagree with exact arithmetic only on chords
        # that pass within 1e-12 * scale of an obstacle boundary.
        rng = np.random.Generator(np.random.PCG64(int(scale)))
        outcomes = {"free": 0, "blocked": 0, "near_boundary": 0}
        for start, proposed, world in boundary_hugging_moves(rng, scale, 7000):
            (obs,) = world.obstacles
            if obs.contains(*start):
                continue  # rejected with a ValueError; see the sample-oracle test
            enters, depth = exact_chord_entry(start, proposed, obs)
            blocked = resolve_motion(*start, *proposed, world)
            if blocked != (enters or not world.bounds.contains(*proposed)):
                assert abs(depth) <= 1e-12 * scale, (depth, start, proposed, world)
                outcomes["near_boundary"] += 1
            outcomes["blocked" if blocked else "free"] += 1
        assert min(outcomes["free"], outcomes["blocked"]) >= 50, outcomes

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_blocks_what_chord_sample_oracle_blocks(self, scale):
        # One-sided: the exact test also blocks chords that pass between two
        # samples, but every sample the old rule found inside is found too,
        # unless it lies within 1e-12 * scale of the boundary.
        rng = np.random.Generator(np.random.PCG64(int(scale)))
        outcomes = {"free": 0, "blocked": 0, "start_inside": 0}
        for start, proposed, world in boundary_hugging_moves(rng, scale, 7000):
            try:
                expected = chord_sample_oracle(start, proposed, world)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    resolve_motion(*start, *proposed, world)
                assert str(err.value) == str(exc)
                outcomes["start_inside"] += 1
                continue
            blocked = resolve_motion(*start, *proposed, world)
            if expected and not blocked:
                depth = deepest_sample_depth(start, proposed, world.obstacles[0])
                assert depth <= 1e-12 * scale, (depth, start, proposed, world)
            outcomes["blocked" if blocked else "free"] += 1
        assert min(outcomes.values()) >= 50, outcomes


class TestGeometryTypes:
    def test_world_rejects_goal_outside_bounds(self):
        with pytest.raises(ValueError):
            World((200.0, 0.0), 2.0, (), Bounds())

    def test_world_rejects_goal_inside_obstacle(self):
        with pytest.raises(ValueError):
            World((10.0, 0.0), 2.0, (CircleObstacle((10.0, 0.0), 5.0),), Bounds())

    def test_world_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            World((10.0, 0.0), 0.0, (), Bounds())

    @pytest.mark.parametrize("kwargs,field,message", WRONG_WORLD_TYPES)
    def test_world_rejects_wrong_types(self, kwargs, field, message):
        with pytest.raises(ValueError) as err:
            World((1.0, 1.0), **kwargs)
        assert str(err.value) == message

    def test_nan_sizes_rejected(self):
        with pytest.raises(ValueError):
            World((10.0, 0.0), math.nan, (), Bounds())
        with pytest.raises(ValueError):
            CircleObstacle((0.0, 0.0), math.nan)
        with pytest.raises(ValueError):
            CircleObstacle((math.nan, 0.0), 5.0)
        with pytest.raises(ValueError):
            RectObstacle((0.0, 0.0), (math.inf, 1.0))
        with pytest.raises(ValueError):
            Bounds(-math.inf, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Bounds(1e308, -1e308, 1.7e308, 1e308)  # beyond the magnitude cap
        for build in (
            lambda: Bounds(-10**400, -1, 1, 1),
            lambda: RectObstacle((0, 0), (10**400, 1)),
            lambda: CircleObstacle((10**400, 0), 1.0),
            lambda: CircleObstacle((0, 0), 10**400),
            lambda: World((10**400, 0), 2.0),
            lambda: World((1, 0), 10**400),
        ):
            with pytest.raises(ValueError, match="beyond float range"):
                build()

    def test_magnitude_cap(self):
        # Squaring 1e299 overflows; the cap keeps every square finite.
        with pytest.raises(ValueError, match="at most 1e\\+150 cm"):
            CircleObstacle((0, 0), 1e299)
        with pytest.raises(ValueError):
            Bounds(-1e151, -1.0, 1.0, 1.0)
        assert CircleObstacle((0, 0), 1e150).radius == 1e150

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            CircleObstacle((0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            RectObstacle((1.0, 1.0), (1.0, 5.0))
        with pytest.raises(ValueError):
            Bounds(0, 0, 0, 10)

    def test_circle_clearance(self):
        circle = CircleObstacle((0.0, 0.0), 10.0)
        assert circle.exterior_clearance(15.0, 0.0) == pytest.approx(5.0)
        assert circle.exterior_clearance(3.0, 0.0) == 0.0

    def test_strict_interior_containment(self):
        circle = CircleObstacle((0.0, 0.0), 10.0)
        assert not circle.contains(10.0, 0.0)
        assert circle.contains(9.99, 0.0)
        rect = RectObstacle((0.0, 0.0), (10.0, 10.0))
        assert not rect.contains(0.0, 5.0)
        assert rect.contains(0.01, 5.0)

    def test_serialization_shapes(self):
        assert CircleObstacle((1.0, 2.0), 3.0).to_dict() == {
            "shape": "circle",
            "center": [1.0, 2.0],
            "radius": 3.0,
        }
        assert RectObstacle((0.0, 1.0), (2.0, 3.0)).to_dict() == {
            "shape": "rect",
            "min": [0.0, 1.0],
            "max": [2.0, 3.0],
        }
        assert Bounds(-1, -2, 3, 4).to_dict() == {"min": [-1, -2], "max": [3, 4]}
