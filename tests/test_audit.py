"""End-to-end trace audit: replay the artifacts of ``la-nav batch`` against naive oracles.

The batch's CSVs and summaries are read back as text, and every step is
replayed from a fresh ``random.Random(seed)`` with deliberately naive
stand-ins for each layer: goal sampling, cumulative-scan selection, the arc
about the centre of rotation, an exact rational chord test, the goal
distance and its feedback, and the textbook linear updates. Nothing here
calls the engine's step functions, so an engine that wires correct layers
together wrongly fails here even when every layer passes its own tests.
"""

import csv
import json
import math
import random

import pytest

from la_nav import CircleObstacle, RectObstacle
from la_nav.cli import main

from test_world import exact_chord_entry

# Small seed ranges that still take every path: preset 2 seed 1 circles in
# place until its probabilities are one-hot, seed 2 pushes into a wall.
BATCHES = {1: range(1, 6), 2: range(1, 4), 3: range(1, 4), 4: range(1, 6)}

# A config file's world with an explicit goal and one listed obstacle of each
# shape, driven by preset 1's scheme. Each of LISTED_SEEDS has moves blocked
# by the box and moves blocked by the disc: 17/1, 9/1, 6/3 and 8/4 of them.
LISTED_CONFIG = {
    "scheme": {"kind": "lrp", "a": 0.7},
    "world": {
        "goal": [40, 10],
        "obstacles": [
            {"shape": "rect", "min": [12, 0], "max": [18, 8]},
            {"shape": "circle", "center": [28, 12], "radius": 4},
        ],
    },
}
LISTED_SEEDS = range(4, 8)

# A random goal in tight bounds beside a box that touches two bounds and a
# listed disc, driven by preset 1's scheme. Seed 16 redraws its goal twice,
# seed 22's blocked moves mostly enter the disc, and seed 38's enter the box.
RANDOM_GOAL_CONFIG = {
    "scheme": {"kind": "lrp", "a": 0.7},
    "world": {
        "random_goal": {"min_start_distance": 10},
        "bounds": {"min": [-30, -30], "max": [30, 30]},
        "obstacles": [
            {"shape": "rect", "min": [18, -30], "max": [30, -12]},
            {"shape": "circle", "center": [-14, 12], "radius": 9},
        ],
    },
}
RANDOM_GOAL_SEEDS = (16, 22, 38)

# (right wheel sign, left wheel sign) of actions 1..6: Forward, RightForward,
# LeftForward, Backward, RightBackward, LeftBackward.
WHEEL_SIGNS = [(1, 1), (0, 1), (1, 0), (-1, -1), (0, -1), (-1, 0)]

# The derived layout of "obstacles": "auto": discs of radius 10 cm at one and
# two thirds of the way to the goal, 5 cm to the left and right of the line.
# A goal is rejected unless the start keeps 0.5 cm of clearance from both
# and the goal's tolerance disc lies clear of both.
PAIR_RADIUS, PAIR_OFFSET, START_CLEARANCE = 10.0, 5.0, 0.5

POSE_TOL_CM = 1e-9
PROB_TOL = 1e-12


@pytest.fixture(scope="module")
def batch_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("audit")
    for preset, seeds in BATCHES.items():
        argv = ["batch", "--preset", str(preset), "--seeds", f"{seeds[0]}..{seeds[-1]}"]
        assert main(argv + ["--out", str(root / f"preset_{preset}")]) == 0
    config = root / "listed.json"
    config.write_text(json.dumps(LISTED_CONFIG))
    argv = ["batch", "--config", str(config), "--seeds", f"{LISTED_SEEDS[0]}..{LISTED_SEEDS[-1]}"]
    assert main(argv + ["--out", str(root / "listed")]) == 0
    config = root / "random_goal.json"
    config.write_text(json.dumps(RANDOM_GOAL_CONFIG))
    for seed in RANDOM_GOAL_SEEDS:
        argv = ["batch", "--config", str(config), "--seeds", str(seed)]
        assert main(argv + ["--out", str(root / "random_goal")]) == 0
    return root


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def auto_pair(gx, gy):
    span = math.sqrt(gx * gx + gy * gy)
    nx, ny = -gy / span, gx / span
    near = (gx / 3 + PAIR_OFFSET * nx, gy / 3 + PAIR_OFFSET * ny)
    far = (2 * gx / 3 - PAIR_OFFSET * nx, 2 * gy / 3 - PAIR_OFFSET * ny)
    return [near, far]


def holds(obs, x, y):
    """Whether the listed obstacle ``obs`` (a config dict) holds (x, y) in its open interior."""
    if obs["shape"] == "circle":
        return math.dist((x, y), obs["center"]) < obs["radius"]
    (x0, y0), (x1, y1) = obs["min"], obs["max"]
    return x0 < x < x1 and y0 < y < y1


def replay_goal(rng, recipe):
    """The goal, the centres of its derived discs, and how many draws a listed obstacle held.

    An explicit goal is taken as given, with no draw and no discs; a random
    goal is the first uniformly drawn (x, y) pair that passes a naive
    feasibility check: far enough from the start, and outside every listed
    obstacle or clear of the derived pair.
    """
    if "goal" in recipe:
        return tuple(recipe["goal"]), [], 0
    (x_min, y_min), (x_max, y_max) = recipe["bounds"]["min"], recipe["bounds"]["max"]
    min_distance = recipe["random_goal"]["min_start_distance"]
    redraws = 0
    while True:
        gx = x_min + (x_max - x_min) * rng.random()
        gy = y_min + (y_max - y_min) * rng.random()
        if math.dist((gx, gy), (0, 0)) < min_distance:
            continue
        if recipe["obstacles"] != "auto":
            if any(holds(obs, gx, gy) for obs in recipe["obstacles"]):
                redraws += 1
                continue
            return (gx, gy), [], redraws
        centres = auto_pair(gx, gy)
        if all(
            math.dist(c, (0, 0)) - PAIR_RADIUS > START_CLEARANCE
            and math.dist(c, (gx, gy)) - PAIR_RADIUS > recipe["tolerance"]
            for c in centres
        ):
            return (gx, gy), centres, redraws


def scan(probs, z):
    """The first action whose running sum reaches ``z``; actions at probability 0 never win."""
    total, last = 0.0, None
    for action, p in enumerate(probs, start=1):
        total += p
        if p > 0:
            last = action
            if total >= z:
                return action
    return last


def arc(x, y, theta, action, robot):
    """The pose after one action, from the wheel ODE's centre-of-rotation solution."""
    right, left = (sign * robot["omega"] for sign in WHEEL_SIGNS[action - 1])
    speed = robot["c"] * (right + left) / 2
    spin = robot["c"] * (right - left) / robot["b"]
    t = robot["T"]
    if spin == 0:
        return x - speed * t * math.sin(theta), y + speed * t * math.cos(theta), theta
    radius = speed / spin
    cx, cy = x - radius * math.cos(theta), y - radius * math.sin(theta)
    end = theta + spin * t
    return cx + radius * math.cos(end), cy + radius * math.sin(end), end


def textbook_update(probs, action, flag, a, b):
    r = len(probs)
    if flag == 0:
        return [p + a * (1 - p) if i == action else (1 - a) * p for i, p in enumerate(probs, 1)]
    return [(1 - b) * p if i == action else b / (r - 1) + (1 - b) * p for i, p in enumerate(probs, 1)]


def obstacle_objects(world):
    out = []
    for obs in world["obstacles"]:
        if obs["shape"] == "circle":
            out.append(CircleObstacle(tuple(obs["center"]), obs["radius"]))
        else:
            out.append(RectObstacle(tuple(obs["min"]), tuple(obs["max"])))
    return out


def chord_check(start, end, world, obstacles):
    """``(blocked, margin)`` of the move from ``start`` to ``end``, by the rational chord oracle.

    ``blocked`` is exact: the endpoint leaves the bounds or the chord enters
    an open disc or box. ``margin`` is how far it goes in, negative by the
    clearance when it stays out: the larger of the endpoint's distance
    outside the bounds and the chord's depth inside each obstacle.
    """
    (x_min, y_min), (x_max, y_max) = world["bounds"]["min"], world["bounds"]["max"]
    x, y = end
    blocked = not (x_min <= x <= x_max and y_min <= y <= y_max)
    margin = max(x_min - x, x - x_max, y_min - y, y - y_max)
    for obs in obstacles:
        enters, depth = exact_chord_entry(start, end, obs)
        blocked = blocked or enters
        margin = max(margin, depth)
    return blocked, margin


def audit_seed(seed_dir, seed):
    """Replay one seed's artifacts.

    Returns how many blocked moves enter each obstacle shape or end outside
    the bounds, and how many goal draws a listed obstacle held.
    """
    summary = json.loads((seed_dir / "summary.json").read_text())
    traj = read_rows(seed_dir / "trajectory.csv")
    prob_rows = read_rows(seed_dir / "probs.csv")
    config, world = summary["config"], summary["world"]
    robot, scheme = config["robot"], config["scheme"]
    assert summary["seed"] == config["seed"] == seed
    assert summary["rng_algorithm"] == "mt19937"

    rng = random.Random(seed)
    goal, centres, redraws = replay_goal(rng, config["world"])
    assert tuple(world["goal"]) == goal
    if config["world"]["obstacles"] == "auto":
        placed = [v for obs in world["obstacles"] for v in obs["center"]]
        assert placed == pytest.approx([v for centre in centres for v in centre], abs=1e-12)
        assert all(o["radius"] == PAIR_RADIUS for o in world["obstacles"])
    else:
        assert world["obstacles"] == config["world"]["obstacles"]
    obstacles = obstacle_objects(world)
    gx, gy = goal
    tolerance = world["tolerance"]

    assert len(traj) == len(prob_rows) == summary["total_steps"]
    probs = [1 / 6] * 6
    blocked_by = {"circle": 0, "rect": 0, "bounds": 0}
    (x_min, y_min), (x_max, y_max) = world["bounds"]["min"], world["bounds"]["max"]
    x = y = theta = 0.0
    d = math.sqrt(gx * gx + gy * gy)
    for n, (row, prow) in enumerate(zip(traj, prob_rows), start=1):
        assert int(row["n"]) == int(prow["n"]) == n
        assert d > tolerance, f"step {n} follows a pose inside the goal tolerance"
        action, flag, blocked = int(row["action"]), int(row["flag"]), int(row["blocked"])
        assert action == scan(probs, rng.random()), f"step {n}"

        pose = float(row["x"]), float(row["y"]), float(row["theta"])
        ex, ey, etheta = arc(x, y, theta, action, robot)
        if blocked:
            assert [v.hex() for v in pose] == [v.hex() for v in (x, y, theta)], f"step {n}"
            # The replayed endpoint is known to POSE_TOL_CM, so a move that
            # clears everything by less than that may have been blocked.
            hit, margin = chord_check((x, y), (ex, ey), world, obstacles)
            assert hit or margin > -POSE_TOL_CM, f"step {n}"
            for spec, obs in zip(world["obstacles"], obstacles):
                blocked_by[spec["shape"]] += exact_chord_entry((x, y), (ex, ey), obs)[0]
            blocked_by["bounds"] += not (x_min <= ex <= x_max and y_min <= ey <= y_max)
        else:
            assert math.dist(pose[:2], (ex, ey)) <= POSE_TOL_CM, f"step {n}"
            assert abs(pose[2] - etheta) <= 1e-12 * max(1.0, abs(etheta)), f"step {n}"
            assert not chord_check((x, y), pose[:2], world, obstacles)[0], f"step {n}"
        x, y, theta = pose

        d_prev, d = d, float(row["d"])
        assert math.isclose(d, math.sqrt((x - gx) ** 2 + (y - gy) ** 2), rel_tol=1e-15), f"step {n}"
        improved = d < d_prev
        assert flag == (improved if config["feedback_literal_eq10"] else not improved), f"step {n}"

        expected = textbook_update(probs, action, flag, scheme["a"], scheme["b"])
        probs = [float(prow[f"p{i}"]) for i in range(1, 7)]
        assert max(abs(p - q) for p, q in zip(probs, expected)) <= PROB_TOL, f"step {n}"

    if summary["terminated"] == "goal_reached":
        assert traj and d <= tolerance
    else:
        assert summary["terminated"] == "max_steps_exceeded"
        assert len(traj) == config["max_steps"] and d > tolerance
    assert summary["final_pose"] == {"x": x, "y": y, "theta": theta}
    return blocked_by, redraws


@pytest.mark.parametrize("preset, seed", [(p, s) for p, seeds in BATCHES.items() for s in seeds])
def test_trace_replays_from_the_seed(batch_dirs, preset, seed):
    out = batch_dirs / f"preset_{preset}"
    assert json.loads((out / "batch_summary.json").read_text())["seeds"] == list(BATCHES[preset])
    audit_seed(out / f"seed_{seed}", seed)


@pytest.mark.parametrize("seed", LISTED_SEEDS)
def test_listed_obstacles_replay_and_each_shape_blocks(batch_dirs, seed):
    out = batch_dirs / "listed"
    assert json.loads((out / "batch_summary.json").read_text())["seeds"] == list(LISTED_SEEDS)
    blocked_by, _ = audit_seed(out / f"seed_{seed}", seed)
    assert blocked_by["rect"] >= 1 and blocked_by["circle"] >= 1, blocked_by


def test_random_goal_beside_listed_obstacles_replays(batch_dirs):
    total = {"circle": 0, "rect": 0, "bounds": 0, "redraws": 0}
    for seed in RANDOM_GOAL_SEEDS:
        blocked_by, redraws = audit_seed(batch_dirs / "random_goal" / f"seed_{seed}", seed)
        for kind, count in blocked_by.items():
            total[kind] += count
        total["redraws"] += redraws
    assert all(count >= 1 for count in total.values()), total
