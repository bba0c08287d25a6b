"""Command-line surface: JSON configs, presets, artifact emission.

Verbs:

* ``run``     one episode, writing trajectory.csv, probs.csv, summary.json
              and plot.svg into the output directory
* ``batch``   one episode per seed into per-seed subdirectories plus a
              batch_summary.json
* ``presets`` list the built-in experiment presets

``emit_artifacts(record, out_dir)`` writes those four files into ``out_dir``
and returns nothing: a caller that reads one joins its name to ``out_dir``.
Identical invocations (flags + config + seed) produce byte-identical CSV
and JSON outputs; floats are written with shortest round-trip formatting.
The CSVs and the SVG are written as they are formatted, a fixed number of
rows or points per write, so a run's memory is its ``RunRecord`` plus a
constant however long the episode.
"""

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import islice

from .automata import LearningScheme, SchemeKind, _family_rates
from .errors import ConfigError, SimulationError, build
from .kinematics import ACTION_COUNT, RobotParams
from .runner import (
    PRESETS,
    ROBOT_KEYS,
    ExperimentConfig,
    RunRecord,
    SeedFailure,
    WorldSpec,
    _check_preset,
    run_batch,
    run_episode,
    summarize,
)
from .world import Bounds, CircleObstacle, RectObstacle, _point, distance_to_goal

SEED_ENV_VAR = "LA_NAV_SEED"

_TOP_KEYS = {"preset", "seed", "scheme", "robot", "world", "max_steps", "feedback_literal_eq10"}
_SCHEME_KEYS = {"kind", "a", "b"}
_WORLD_KEYS = {"goal", "random_goal", "tolerance", "bounds", "obstacles"}
_BOUNDS_KEYS = {"min", "max"}
_CIRCLE_KEYS = {"shape", "center", "radius"}
_RECT_KEYS = {"shape", "min", "max"}


# ---------------------------------------------------------------------------
# config parsing

def _reject_unknown(value, allowed: set, path: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    for key in value:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(where, f"unknown key (allowed: {', '.join(sorted(allowed))})")


def _build_scheme(data: dict, preset: LearningScheme | None) -> LearningScheme:
    """The section's scheme, kind defaulting to ``preset``'s; ``preset`` fills a rate the family leaves missing."""
    _reject_unknown(data, _SCHEME_KEYS, "scheme")
    kind = build("scheme.kind", SchemeKind, data.get("kind", "general" if preset is None else preset.kind))
    # LearningScheme reads a None rate as absent and fills it in, so a null is rejected here.
    for key in "ab":
        if key in data and data[key] is None:
            raise ConfigError(f"scheme.{key}", "expected a number, got None")
    a, b = _family_rates(kind, data.get("a"), data.get("b"))
    if preset is not None:
        a = preset.reward_rate if a is None else a
        b = preset.penalty_rate if b is None else b
    return build("scheme", LearningScheme, kind, a, b)


def _build_robot(data: dict) -> RobotParams:
    _reject_unknown(data, ROBOT_KEYS, "robot")
    params = {name: data[key] for key, name in ROBOT_KEYS.items() if key in data}
    return build("robot", RobotParams, **params)


def _build_obstacle(data, index: int):
    path = f"world.obstacles[{index}]"
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected an object, got {data!r}")
    shape = data.get("shape")
    if shape == "circle":
        _reject_unknown(data, _CIRCLE_KEYS, path)
        return build(path, CircleObstacle, data.get("center"), data.get("radius"))
    if shape == "rect":
        _reject_unknown(data, _RECT_KEYS, path)
        return build(path, RectObstacle, data.get("min"), data.get("max"))
    raise ConfigError(f"{path}.shape", f"expected 'circle' or 'rect', got {shape!r}")


def _build_bounds(data: dict) -> Bounds:
    _reject_unknown(data, _BOUNDS_KEYS, "world.bounds")
    d = Bounds()  # a corner left out is the default's
    lo = build("world.bounds", _point, data.get("min", (d.x_min, d.y_min)), "bounds min corner")
    hi = build("world.bounds", _point, data.get("max", (d.x_max, d.y_max)), "bounds max corner")
    return build("world.bounds", Bounds, *lo, *hi)


def _build_world_spec(data: dict, auto_blocking_pair: bool) -> WorldSpec:
    _reject_unknown(data, _WORLD_KEYS, "world")
    if "goal" in data and "random_goal" in data:
        raise ConfigError("world", "give either 'goal' or 'random_goal', not both")

    # WorldSpec gets only the keys the config gives; it owns the defaults.
    spec = {key: data[key] for key in ("goal", "tolerance") if key in data}
    # WorldSpec reads a None goal as a random one, so a null is rejected here.
    if "goal" in spec and spec["goal"] is None:
        raise ConfigError("world.goal", "expected [x, y], got None")
    if "random_goal" in data:
        directive = data["random_goal"]
        if isinstance(directive, dict):
            _reject_unknown(directive, {"min_start_distance"}, "world.random_goal")
            if "min_start_distance" in directive:
                spec["min_start_distance"] = directive["min_start_distance"]
        elif directive is not True:
            raise ConfigError("world.random_goal", f"expected true or an object, got {directive!r}")
    if "bounds" in data:
        spec["bounds"] = _build_bounds(data["bounds"])
    raw_obstacles = data.get("obstacles", "auto" if auto_blocking_pair else [])
    if raw_obstacles == "auto":
        spec["auto_blocking_pair"] = True
    elif isinstance(raw_obstacles, list):
        spec["obstacles"] = tuple(_build_obstacle(o, i) for i, o in enumerate(raw_obstacles))
    else:
        raise ConfigError("world.obstacles", f"expected a list or 'auto', got {raw_obstacles!r}")
    return build("world", WorldSpec, **spec)


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
    path: str | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> ExperimentConfig:
    """Load, merge and validate a run configuration from the JSON file ``path``.

    ``overrides`` (typically CLI flags) win over file keys. A preset gives
    a scheme, which a ``scheme`` section overrides (see ``_build_scheme``),
    and the derived disc pair, unless ``world.obstacles`` is given; every
    other default is its type's. A ``None`` override, and a ``null`` preset
    or seed, count as absent, so the ``config`` echo of ``summary.json``
    parses back to the same config. Unknown keys are rejected with their field path.
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
    scheme, auto_blocking_pair = None, False
    if preset is not None:
        _check_preset(preset)
        scheme, auto_blocking_pair, _ = PRESETS[preset]
    if "scheme" in data:
        scheme = _build_scheme(data["scheme"], scheme)
    elif scheme is None:
        raise ConfigError("scheme", "required unless a preset is given")
    robot = _build_robot(data.get("robot", {}))
    world = _build_world_spec(data.get("world", {}), auto_blocking_pair)
    seed = _resolve_seed(data, env)
    # ExperimentConfig owns the defaults and type rules of the scalar keys.
    scalars = {key: data[key] for key in ("max_steps", "feedback_literal_eq10") if key in data}
    return ExperimentConfig(
        scheme=scheme, seed=seed, robot=robot, world=world, preset=preset, **scalars
    )


# ---------------------------------------------------------------------------
# artifact emission

# At most this many pieces (rows, SVG elements or polyline points) go to one
# write call, so no file is ever held whole in memory.
_WRITE_CHUNK = 256


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to ``path`` as they are made, ``_WRITE_CHUNK`` per write.

    Pass a one-element tuple for a file made as one string: a bare ``str``
    would be written one character per piece.
    """
    pieces = iter(pieces)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while chunk := list(islice(pieces, _WRITE_CHUNK)):
            fh.write("".join(chunk))


# The CSV writers yield the header, then one row per step, each ending in a
# newline; _write_text writes them as they come. They format floats with
# repr: the shortest decimal string that round-trips to the same float.
# Every value they format is a Python float.
# Every per-step writer, the SVG polyline's included, formats a row only when
# its values differ from the previous row's, and otherwise yields the previous
# text. Equal floats have the same text unless one is -0.0, and no recorded
# value is -0.0 (see RunRecord). NaN never equals itself, so it is always
# formatted.
def _trajectory_csv(record: RunRecord) -> Iterator[str]:
    yield "n,x,y,theta,action,flag,d,blocked\n"
    rows = zip(zip(record.x, record.y, record.theta, record.d), record.action, record.flag, record.blocked)
    last = None
    for n, (values, action, flag, blocked) in enumerate(rows, start=1):
        if values != last:
            x, y, theta, d = last = values
            pose = f"{x!r},{y!r},{theta!r}"
            dist = repr(d)
        yield f"{n},{pose},{action},{flag},{dist},{blocked}\n"


def _probs_csv(record: RunRecord) -> Iterator[str]:
    yield "n," + ",".join(f"p{i}" for i in range(1, ACTION_COUNT + 1)) + "\n"
    last = None
    for n, values in enumerate(zip(*[iter(record.probs)] * ACTION_COUNT), start=1):
        if values != last:
            last = values
            row = ",".join(map(repr, values))
        yield f"{n},{row}\n"


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
    # + 0.0 turns -0.0 (a negated zero y) into 0.0 and leaves every other float
    # as it is, so each position has one text.
    return format(v + 0.0, ".6g")


# Element writers: they take world coordinates and negate y; a rect's (x, y) is its top-left corner.
def _rect(cls: str, x: float, y: float, w: float, h: float, paint: str) -> str:
    return (
        f'<rect class="{cls}" x="{_svg_coord(x)}" y="{_svg_coord(-y)}" '
        f'width="{_svg_coord(w)}" height="{_svg_coord(h)}" {paint}/>\n'
    )


def _circle(cls: str, cx: float, cy: float, r: float, paint: str) -> str:
    return (
        f'<circle class="{cls}" cx="{_svg_coord(cx)}" cy="{_svg_coord(-cy)}" '
        f'r="{_svg_coord(r)}" {paint}/>\n'
    )


def _svg(record: RunRecord) -> Iterator[str]:
    """Yield the text of ``plot.svg`` one element, or one polyline point, at a time.

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

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{px_w}" height="{px_h}" '
        f'viewBox="{_svg_coord(x0)} {_svg_coord(y0)} {_svg_coord(width)} {_svg_coord(height)}">\n'
    )
    paint = 'fill="white" stroke="black" stroke-width="0.4"'
    yield _rect("workspace", b.x_min, b.y_max, b.x_max - b.x_min, b.y_max - b.y_min, paint)
    paint = 'fill="#d0d0d0" stroke="#606060" stroke-width="0.4"'
    for obs in record.world.obstacles:
        if isinstance(obs, CircleObstacle):
            yield _circle("obstacle", *obs.center, obs.radius, paint)
        else:
            (x_min, y_min), (x_max, y_max) = obs.min_corner, obs.max_corner
            yield _rect("obstacle", x_min, y_max, x_max - x_min, y_max - y_min, paint)
    gx, gy = record.world.goal
    yield _circle("goal", gx, gy, record.world.goal_tolerance, 'fill="none" stroke="#2a7e2a" stroke-width="0.5"')
    yield _circle("goal-center", gx, gy, 0.6, 'fill="#2a7e2a"')
    if record.total_steps:
        yield '<polyline class="trajectory" points="0,0'
        last = None
        for values in zip(record.x, record.y):
            if values != last:
                x, y = last = values
                point = f" {_svg_coord(x)},{_svg_coord(-y)}"
            yield point
        yield '" fill="none" stroke="#1f4fa0" stroke-width="0.5"/>\n'
    yield _rect("start", -1.0, 1.0, 2.0, 2.0, 'fill="#b03030"')
    yield "</svg>\n"


def build_svg(record: RunRecord) -> str:
    """Static trajectory plot: polyline, start marker, goal disc, obstacles.

    The same text that :func:`emit_artifacts` writes to ``plot.svg``.
    """
    return "".join(_svg(record))


def emit_artifacts(record: RunRecord, out_dir: str) -> None:
    """Write trajectory.csv, probs.csv, summary.json and plot.svg into ``out_dir``.

    ``out_dir`` (a str or path-like object) is created if missing.
    """
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "trajectory.csv"), _trajectory_csv(record))
    _write_text(os.path.join(out_dir, "probs.csv"), _probs_csv(record))
    summary = json.dumps(_summary_dict(record), sort_keys=True, indent=2) + "\n"
    _write_text(os.path.join(out_dir, "summary.json"), (summary,))
    _write_text(os.path.join(out_dir, "plot.svg"), _svg(record))


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
    emit_artifacts(record, args.out)
    print(
        f"seed {record.seed}: {record.terminated.value} after {record.total_steps} steps"
        f" (artifacts in {args.out})"
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

    os.makedirs(args.out, exist_ok=True)
    # Each record is written out and dropped before the next seed runs.
    steps: list[int] = []
    successes = 0
    failures: list[SeedFailure] = []
    for outcome in run_batch(template, seeds):
        if isinstance(outcome, SeedFailure):
            failures.append(outcome)
        else:
            emit_artifacts(outcome, os.path.join(args.out, f"seed_{outcome.seed}"))
            steps.append(outcome.total_steps)
            successes += outcome.success
        # Drop the record now: the loop variable would keep it alive through
        # the next seed's episode.
        del outcome
    summary = summarize(steps, successes, len(failures))
    template_echo = template.to_dict()
    template_echo["seed"] = None
    batch_doc = {
        "seeds": list(seeds),
        "config": template_echo,
        "failures": [{"seed": f.seed, "error": f.error} for f in failures],
        "summary": summary,
    }
    batch_json = json.dumps(batch_doc, sort_keys=True, indent=2) + "\n"
    _write_text(os.path.join(args.out, "batch_summary.json"), (batch_json,))

    median = summary["steps"]["median"]
    print(
        f"{summary['runs']} runs, {successes} reached the goal "
        f"(rate {summary['success_rate']:.2f}), median steps {'n/a' if median is None else median}"
    )
    for failure in failures:
        print(f"seed {failure.seed}: configuration failure: {failure.error}", file=sys.stderr)
    return 0 if not failures else 1


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
    except MemoryError:
        # A step budget the config accepts can still be too large to record.
        print("error: out of memory; a smaller max_steps needs less", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
