"""Command-line surface: JSON configs, presets, artifact emission.

Verbs:

* ``run``     one episode, writing trajectory.csv, probs.csv, summary.json
              and plot.svg into the output directory
* ``batch``   one episode per seed into per-seed subdirectories plus a
              batch_summary.json
* ``presets`` list the built-in experiment presets

Identical invocations (flags + config + seed) produce byte-identical CSV
and JSON outputs; floats are written with shortest round-trip formatting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import count
from pathlib import Path

from ._value import Value, _set
from .automata import LearningScheme, SchemeKind
from .errors import ConfigError, SimulationError
from .kinematics import ACTION_COUNT, RobotParams
from .runner import (
    PRESETS,
    ROBOT_KEYS,
    ExperimentConfig,
    RunRecord,
    WorldSpec,
    preset_config,
    run_batch,
    run_episode,
)
from .world import Bounds, CircleObstacle, RectObstacle, distance_to_goal

SEED_ENV_VAR = "LA_NAV_SEED"

_TOP_KEYS = {"preset", "seed", "scheme", "robot", "world", "max_steps", "feedback_literal_eq10"}
_SCHEME_KEYS = {"kind", "a", "b"}
_WORLD_KEYS = {"goal", "random_goal", "tolerance", "bounds", "obstacles"}
_BOUNDS_KEYS = {"min", "max"}
_CIRCLE_KEYS = {"shape", "center", "radius"}
_RECT_KEYS = {"shape", "min", "max"}


class RunArtifacts(Value):
    """Paths of the four files emitted for one run."""

    __slots__ = _fields = ("trajectory_csv", "probs_csv", "summary_json", "plot_svg")

    def __init__(
        self, trajectory_csv: Path, probs_csv: Path, summary_json: Path, plot_svg: Path
    ) -> None:
        _set(self, "trajectory_csv", trajectory_csv)
        _set(self, "probs_csv", probs_csv)
        _set(self, "summary_json", summary_json)
        _set(self, "plot_svg", plot_svg)


# ---------------------------------------------------------------------------
# config parsing

def _reject_unknown(value, allowed: set, path: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    for key in value:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(where, f"unknown key (allowed: {', '.join(sorted(allowed))})")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(path, "expected a finite number, got an integer beyond float range") from None
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _as_point(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(path, f"expected [x, y], got {value!r}")
    return _as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]")


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _build_scheme(data: dict) -> LearningScheme:
    _reject_unknown(data, _SCHEME_KEYS, "scheme")
    kind_raw = data.get("kind", "general")
    try:
        kind = SchemeKind(kind_raw)
    except ValueError:
        valid = ", ".join(k.value for k in SchemeKind)
        raise ConfigError("scheme.kind", f"unknown kind {kind_raw!r} (valid: {valid})") from None

    a = _as_number(data["a"], "scheme.a") if "a" in data else None
    b = _as_number(data["b"], "scheme.b") if "b" in data else None
    if a is not None and not 0.0 <= a <= 1.0:
        raise ConfigError("scheme.a", f"must be within [0, 1], got {a}")
    if b is not None and not 0.0 <= b <= 1.0:
        raise ConfigError("scheme.b", f"must be within [0, 1], got {b}")

    if kind is SchemeKind.LRP:
        if a is None and b is None:
            raise ConfigError("scheme.a", "reward-penalty scheme needs a rate")
        a = a if a is not None else b
        b = b if b is not None else a
    elif kind is SchemeKind.LRI:
        if a is None:
            raise ConfigError("scheme.a", "reward-inaction scheme needs a reward rate")
        b = b if b is not None else 0.0
    elif kind is SchemeKind.PENALTY_ONLY:
        if b is None:
            raise ConfigError("scheme.b", "penalty-only scheme needs a penalty rate")
        a = a if a is not None else 0.0
    else:
        if a is None or b is None:
            raise ConfigError("scheme", "general scheme needs both 'a' and 'b'")
    try:
        return LearningScheme(kind, a, b)
    except ValueError as exc:
        raise ConfigError("scheme", str(exc)) from None


def _build_robot(data: dict) -> RobotParams:
    _reject_unknown(data, ROBOT_KEYS, "robot")
    params = {name: _as_number(data[key], f"robot.{key}") for key, name in ROBOT_KEYS.items() if key in data}
    try:
        return RobotParams(**params)
    except ValueError as exc:
        raise ConfigError("robot", str(exc)) from None


def _build_obstacle(data, index: int):
    path = f"world.obstacles[{index}]"
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected an object, got {data!r}")
    shape = data.get("shape")
    try:
        if shape == "circle":
            _reject_unknown(data, _CIRCLE_KEYS, path)
            return CircleObstacle(
                center=_as_point(data.get("center"), f"{path}.center"),
                radius=_as_number(data.get("radius"), f"{path}.radius"),
            )
        if shape == "rect":
            _reject_unknown(data, _RECT_KEYS, path)
            return RectObstacle(
                min_corner=_as_point(data.get("min"), f"{path}.min"),
                max_corner=_as_point(data.get("max"), f"{path}.max"),
            )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}.shape", f"expected 'circle' or 'rect', got {shape!r}")


def _build_bounds(data: dict) -> Bounds:
    _reject_unknown(data, _BOUNDS_KEYS, "world.bounds")
    if "min" not in data or "max" not in data:
        raise ConfigError("world.bounds", "needs both 'min' and 'max' corners")
    lo = _as_point(data["min"], "world.bounds.min")
    hi = _as_point(data["max"], "world.bounds.max")
    try:
        return Bounds(lo[0], lo[1], hi[0], hi[1])
    except ValueError as exc:
        raise ConfigError("world.bounds", str(exc)) from None


def _build_world_spec(data: dict) -> WorldSpec:
    _reject_unknown(data, _WORLD_KEYS, "world")
    if "goal" in data and "random_goal" in data:
        raise ConfigError("world", "give either 'goal' or 'random_goal', not both")

    # WorldSpec gets only the keys the config gives; it owns the defaults.
    spec: dict = {}
    if "goal" in data:
        spec["goal"] = _as_point(data["goal"], "world.goal")
    if "random_goal" in data:
        directive = data["random_goal"]
        if isinstance(directive, dict):
            _reject_unknown(directive, {"min_start_distance"}, "world.random_goal")
            if "min_start_distance" in directive:
                spec["min_start_distance"] = _as_number(
                    directive["min_start_distance"], "world.random_goal.min_start_distance"
                )
        elif directive is not True:
            raise ConfigError("world.random_goal", f"expected true or an object, got {directive!r}")
    if "tolerance" in data:
        spec["tolerance"] = _as_number(data["tolerance"], "world.tolerance")
    if "bounds" in data:
        spec["bounds"] = _build_bounds(data["bounds"])
    raw_obstacles = data.get("obstacles", [])
    if raw_obstacles == "auto":
        spec["auto_blocking_pair"] = True
    elif isinstance(raw_obstacles, list):
        spec["obstacles"] = tuple(_build_obstacle(o, i) for i, o in enumerate(raw_obstacles))
    else:
        raise ConfigError("world.obstacles", f"expected a list or 'auto', got {raw_obstacles!r}")

    try:
        return WorldSpec(**spec)
    except ValueError as exc:
        raise ConfigError("world", str(exc)) from None


def _resolve_seed(data: dict, env: dict):
    if "seed" in data:
        return data["seed"]
    if SEED_ENV_VAR in env:
        try:
            return int(env[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError("seed", f"{SEED_ENV_VAR} must be an integer, got {env[SEED_ENV_VAR]!r}") from None
    raise ConfigError("seed", f"required (config key, --seed flag, or {SEED_ENV_VAR})")


def parse_config(
    path: str | Path | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> ExperimentConfig:
    """Load, merge and validate a run configuration.

    ``overrides`` (typically CLI flags) win over file keys, which win over
    preset defaults. A ``None`` override, and a ``null`` preset or seed,
    count as absent, so the ``config`` echo of ``summary.json`` parses back
    to the same config. Unknown keys are rejected with their field path.
    """
    env = os.environ if env is None else env
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    str(path), f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from None
            except UnicodeDecodeError as exc:
                raise ConfigError(str(path), f"not UTF-8 text: {exc.reason}") from None
            except ValueError as exc:  # an integer literal beyond the int-to-str digit limit
                raise ConfigError(str(path), f"invalid JSON: {exc}") from None
            except RecursionError:
                raise ConfigError(str(path), "invalid JSON: nested too deeply") from None
        if not isinstance(data, dict):
            raise ConfigError(str(path), "top level must be a JSON object")
    else:
        data = {}

    if overrides:
        data = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    data = {k: v for k, v in data.items() if not (v is None and k in ("preset", "seed"))}
    _reject_unknown(data, _TOP_KEYS, "")

    preset = data.get("preset")
    if preset is not None:
        base = preset_config(preset, seed=0).to_dict()
        del base["seed"]
        # An explicit goal replaces the preset's random goal, not one the config gives too.
        if isinstance(data.get("world"), dict) and "goal" in data["world"]:
            del base["world"]["random_goal"]
        data = _deep_merge(base, data)

    if "scheme" not in data:
        raise ConfigError("scheme", "required unless a preset is given")

    scheme = _build_scheme(data["scheme"])
    robot = _build_robot(data.get("robot", {}))
    world = _build_world_spec(data.get("world", {}))
    seed = _resolve_seed(data, env)
    # ExperimentConfig owns the defaults and type rules of the scalar keys.
    scalars = {key: data[key] for key in ("max_steps", "feedback_literal_eq10") if key in data}
    return ExperimentConfig(
        scheme=scheme, seed=seed, robot=robot, world=world, preset=preset, **scalars
    )


# ---------------------------------------------------------------------------
# artifact emission

def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# The CSV writers format floats with repr: the shortest decimal string that
# round-trips to the same float. Every value they format is a Python float.
# A row whose values cannot have changed reuses the previous row's text: a
# blocked move keeps the pose (and so its goal distance) bit for bit, and an
# update at rate 0 returns the probabilities unchanged. Row 1 is always
# formatted, since the start it would repeat is not a row.
def _trajectory_csv(record: RunRecord) -> str:
    lines = ["n,x,y,theta,action,flag,d,blocked"]
    rows = zip(record.x, record.y, record.theta, record.action, record.flag, record.d, record.blocked)
    for n, (x, y, theta, action, flag, d, blocked) in enumerate(rows, start=1):
        if not blocked or n == 1:
            pose = f"{x!r},{y!r},{theta!r}"
            dist = repr(d)
        lines.append(f"{n},{pose},{action},{flag},{dist},{blocked}")
    return "\n".join(lines) + "\n"


def _probs_csv(record: RunRecord) -> str:
    r = ACTION_COUNT
    probs = record.probs
    # The rate each step's update applied, indexed by its feedback flag.
    rates = (record.config.scheme.reward_rate, record.config.scheme.penalty_rate)
    lines = ["n," + ",".join(f"p{i}" for i in range(1, r + 1))]
    prev = -r  # where the previous row starts
    for n, action, flag in zip(count(1), record.action, record.flag):
        i = prev + r
        # An update at a nonzero rate can still return the vector unchanged:
        # a reward for an action already at exactly 1.0 (absorbed L_R-I).
        # Only then are the rows compared. No probability is ever -0.0 (every
        # update multiplies and adds non-negative values), so equal rows have
        # the same repr.
        if n == 1 or rates[flag] and not (
            probs[prev + action - 1] == 1.0 and probs[i : i + r] == probs[prev:i]
        ):
            row = ",".join(map(repr, probs[i : i + r]))
        lines.append(f"{n},{row}")
        prev = i
    return "\n".join(lines) + "\n"


def _summary_dict(record: RunRecord) -> dict:
    x, y, theta = record.final_pose
    return {
        "terminated": record.terminated.value,
        "success": record.success,
        "total_steps": record.total_steps,
        "seed": record.seed,
        "final_pose": {"x": x, "y": y, "theta": theta},
        "final_distance": distance_to_goal(x, y, record.world),
        "world": record.world.to_dict(),
        "config": record.config.to_dict(),
        "config_digest": record.config_digest,
        "rng_algorithm": record.rng_algorithm,
    }


def _svg_coord(v: float) -> str:
    return format(v, ".6g")


def build_svg(record: RunRecord) -> str:
    """Static trajectory plot: polyline, start marker, goal disc, obstacles.

    World y points up; SVG y points down, so y is negated in place and the
    viewBox covers the mirrored bounds.
    """
    b = record.world.bounds
    margin = 0.05 * max(b.x_max - b.x_min, b.y_max - b.y_min)
    x0, y0 = b.x_min - margin, -(b.y_max + margin)
    width = (b.x_max - b.x_min) + 2 * margin
    height = (b.y_max - b.y_min) + 2 * margin
    px_w = 640
    px_h = int(round(px_w * height / width))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{px_w}" height="{px_h}" '
        f'viewBox="{_svg_coord(x0)} {_svg_coord(y0)} {_svg_coord(width)} {_svg_coord(height)}">',
        f'<rect class="workspace" x="{_svg_coord(b.x_min)}" y="{_svg_coord(-b.y_max)}" '
        f'width="{_svg_coord(b.x_max - b.x_min)}" height="{_svg_coord(b.y_max - b.y_min)}" '
        f'fill="white" stroke="black" stroke-width="0.4"/>',
    ]
    for obs in record.world.obstacles:
        if isinstance(obs, CircleObstacle):
            parts.append(
                f'<circle class="obstacle" cx="{_svg_coord(obs.center[0])}" '
                f'cy="{_svg_coord(-obs.center[1])}" r="{_svg_coord(obs.radius)}" '
                f'fill="#d0d0d0" stroke="#606060" stroke-width="0.4"/>'
            )
        else:
            w = obs.max_corner[0] - obs.min_corner[0]
            h = obs.max_corner[1] - obs.min_corner[1]
            parts.append(
                f'<rect class="obstacle" x="{_svg_coord(obs.min_corner[0])}" '
                f'y="{_svg_coord(-obs.max_corner[1])}" width="{_svg_coord(w)}" '
                f'height="{_svg_coord(h)}" fill="#d0d0d0" stroke="#606060" stroke-width="0.4"/>'
            )
    gx, gy = record.world.goal
    parts.append(
        f'<circle class="goal" cx="{_svg_coord(gx)}" cy="{_svg_coord(-gy)}" '
        f'r="{_svg_coord(record.world.goal_tolerance)}" fill="none" stroke="#2a7e2a" stroke-width="0.5"/>'
    )
    parts.append(
        f'<circle class="goal-center" cx="{_svg_coord(gx)}" cy="{_svg_coord(-gy)}" '
        f'r="0.6" fill="#2a7e2a"/>'
    )
    if record.total_steps:
        # A blocked move repeats the previous point's text, as in the CSVs. The
        # first point is always formatted: the start "0,0" drops the sign of -0.0.
        points = ["0,0"]
        point = None
        for x, y, blocked in zip(record.x, record.y, record.blocked):
            if not blocked or point is None:
                point = f"{_svg_coord(x)},{_svg_coord(-y)}"
            points.append(point)
        parts.append(
            f'<polyline class="trajectory" points="{" ".join(points)}" '
            f'fill="none" stroke="#1f4fa0" stroke-width="0.5"/>'
        )
    parts.append('<rect class="start" x="-1" y="-1" width="2" height="2" fill="#b03030"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_artifacts(record: RunRecord, out_dir: str | Path) -> RunArtifacts:
    """Write the four per-run files into ``out_dir`` (created if missing)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = RunArtifacts(
        trajectory_csv=out / "trajectory.csv",
        probs_csv=out / "probs.csv",
        summary_json=out / "summary.json",
        plot_svg=out / "plot.svg",
    )
    _write_text(artifacts.trajectory_csv, _trajectory_csv(record))
    _write_text(artifacts.probs_csv, _probs_csv(record))
    _write_text(
        artifacts.summary_json, json.dumps(_summary_dict(record), sort_keys=True, indent=2) + "\n"
    )
    _write_text(artifacts.plot_svg, build_svg(record))
    return artifacts


# ---------------------------------------------------------------------------
# commands

def _parse_seed_range(text: str) -> range:
    try:
        lo_s, dots, hi_s = text.partition("..")
        lo = int(lo_s)
        hi = int(hi_s) if dots else lo
    except ValueError:
        raise ConfigError("seeds", f"expected A..B or a single integer, got {text!r}") from None
    if hi < lo:
        raise ConfigError("seeds", f"range {text!r} is empty")
    if hi - lo >= sys.maxsize:  # len() of the range would overflow
        raise ConfigError("seeds", f"range {text!r} holds more than {sys.maxsize} seeds")
    return range(lo, hi + 1)


def _cli_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {
        "preset": args.preset,
        "max_steps": args.max_steps,
    }
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if args.literal_eq10:
        overrides["feedback_literal_eq10"] = True
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config, _cli_overrides(args))
    record = run_episode(config)
    out = Path(args.out)
    emit_artifacts(record, out)
    print(
        f"seed {record.seed}: {record.terminated.value} after {record.total_steps} steps"
        f" (artifacts in {out})"
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    seeds = _parse_seed_range(args.seeds)
    # --parallelism is validated but has no effect: batches run serially.
    if args.parallelism < 1:
        raise ConfigError("parallelism", f"must be >= 1, got {args.parallelism}")
    overrides = _cli_overrides(args)
    overrides.setdefault("seed", seeds[0])
    template = parse_config(args.config, overrides)
    result = run_batch(template, seeds)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for record in result.records:
        emit_artifacts(record, out / f"seed_{record.seed}")
    template_echo = template.to_dict()
    template_echo["seed"] = None
    batch_doc = {
        "seeds": list(seeds),
        "config": template_echo,
        "failures": [{"seed": f.seed, "error": f.error} for f in result.failures],
        "summary": result.summary,
    }
    _write_text(out / "batch_summary.json", json.dumps(batch_doc, sort_keys=True, indent=2) + "\n")

    s = result.summary
    print(
        f"{s['runs']} runs, {s['success_count']} reached the goal "
        f"(rate {s['success_rate']:.2f}), median steps {s['steps']['median']}"
    )
    for failure in result.failures:
        print(f"seed {failure.seed}: configuration failure: {failure.error}", file=sys.stderr)
    return 0 if not result.failures else 1


def _cmd_presets(_args: argparse.Namespace) -> int:
    print("preset  kind          a    b    obstacles  description")
    for pid, (scheme, auto_blocking_pair, description) in PRESETS.items():
        obstacles = "2 discs" if auto_blocking_pair else "none"
        print(
            f"{pid:<7} {scheme.kind.value:<13} {scheme.reward_rate:<4} "
            f"{scheme.penalty_rate:<4} {obstacles:<10} {description}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="la-nav",
        description="Learning-automaton goal seeking for a differential-drive robot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", type=int, choices=PRESETS, help="built-in experiment preset")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--max-steps", type=int, dest="max_steps", help="step budget per episode")
        p.add_argument(
            "--literal-eq10",
            action="store_true",
            dest="literal_eq10",
            help="invert the success test (reward steps that do not reduce the goal distance)",
        )

    run_p = sub.add_parser("run", help="run one episode and write its artifacts")
    add_common(run_p)
    run_p.add_argument("--seed", type=int, help=f"RNG seed (fallback: {SEED_ENV_VAR})")
    run_p.set_defaults(func=_cmd_run)

    batch_p = sub.add_parser("batch", help="run one episode per seed")
    add_common(batch_p)
    batch_p.add_argument("--seeds", required=True, help="seed range A..B (inclusive) or a single seed")
    batch_p.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="accepted for compatibility and must be >= 1; has no effect, batches run serially",
    )
    batch_p.set_defaults(func=_cmd_batch)

    presets_p = sub.add_parser("presets", help="list the built-in experiment presets")
    presets_p.set_defaults(func=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
