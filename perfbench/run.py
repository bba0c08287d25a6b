#!/usr/bin/env python3
"""la-nav benchmark: campaign throughput, memory and per-layer cost.

Each workload is a block of episode seeds run as several ``la-nav batch``
campaigns, called in-process through ``la_nav.cli.main`` at
``--parallelism 1``. A pass runs every campaign of the block once; passes
repeat until ``--seconds`` have passed. The benchmark's ``--seed`` picks
the block, so the same seed always runs the same episodes. End-to-end
times are corrected to a fixed machine speed (see ``MachineSpeed``).

Run from the repository root:

    python3 perfbench/run.py --workload open-lrp --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see BENCHMARK.json); ``--workload all`` runs every workload in both
modes, each in its own fresh process. Human-readable ``metric`` lines come
first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy

from checks import BatchCheck, check_batch, digest_batch
from layer_trace import EPISODE_CHILDREN, GRADE, LayerTrace, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    preset: int
    seeds_per_batch: int  # seeds per `la-nav batch` call
    batches: int  # calls per pass; the block is their seeds together


# Why each workload was chosen is recorded in BENCHMARK.json. A block is
# large enough that its step statistics vary little between blocks; it is
# split into calls of about 0.1-0.5 s on a 2-CPU machine, short enough that
# the machine's speed measured just before and just after a call holds for
# the call itself (see MachineSpeed).
WORKLOADS = {
    "open-lrp": Workload(preset=1, seeds_per_batch=20, batches=30),
    "blocked-lrp": Workload(preset=4, seeds_per_batch=10, batches=30),
    "budget-lri": Workload(preset=2, seeds_per_batch=2, batches=10),
}

MIN_PASSES = 3
SETUP_INTERVAL_S = 2.0  # set-up is sampled this often during a run
REFERENCE_ITERATIONS = 1500
REFERENCE_REPEATS = 5  # the fastest of these is one speed sample
# The reference work's time on an unloaded 2-CPU x86_64 VM (Xeon, 2.1 GHz,
# Python 3.11): about the fastest it ran there. Times are reported at this speed.
REFERENCE_S = 1.3e-3
# Set-up is reported for a machine on which `import numpy` in a fresh
# interpreter takes this long.
REFERENCE_IMPORT_S = 0.1
RETAINED_STEPS = 20_000  # steps measured under tracemalloc for retained bytes

SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import la_nav.cli
with contextlib.redirect_stdout(io.StringIO()):
    la_nav.cli.main(["presets"])
la_nav.cli.parse_config(None, {{"preset": {preset}, "seed": {seed}}})
print(time.perf_counter() - t0)
"""

IMPORT_CHILD = """
import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""


def _import_la_nav():
    """Import la_nav from this checkout's ``src``, or exit without a result."""
    if not (SRC / "la_nav" / "__init__.py").is_file():
        sys.exit(f"perfbench: no la_nav sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import la_nav.cli
    import la_nav.runner

    if not Path(la_nav.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: la_nav imported from {la_nav.__file__}, not {SRC}")
    return la_nav


def header() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "la_nav").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": sources.hexdigest(),  # identifies the code where there is no git
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def _ratio(num: float, den: float) -> float:
    # A broken program can leave nothing to divide by; it is reported as
    # failed seeds, so the figure only has to be printable.
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# running campaigns


def run_cli_batch(cli, argv: list[str]) -> tuple[int, float]:
    """One ``la-nav batch`` call; returns its exit code and wall seconds."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash counts as a failed batch, not a benchmark error
            print(f"la-nav batch raised {exc!r}", file=err)
            code = -1
        wall = time.perf_counter() - t0
    if code != 0:
        print(f"la-nav batch exited {code}: {err.getvalue().strip()}")
    return code, wall


class Campaign:
    """Runs one workload's block of seeds, call by call, and checks every output."""

    def __init__(self, la_nav, preset: int, batches: list[list[int]]) -> None:
        self.cli = la_nav.cli
        self.preset = preset
        self.batches = batches
        self.references: list[BatchCheck | None] = [None] * len(batches)
        self.attempted = 0
        self.failed = 0

    @property
    def seeds(self) -> list[int]:
        return [seed for batch in self.batches for seed in batch]

    def argv(self, seeds: list[int], out: Path) -> list[str]:
        return [
            "batch", "--preset", str(self.preset),
            "--seeds", f"{seeds[0]}..{seeds[-1]}",
            "--out", str(out), "--parallelism", "1",
        ]

    def warm_up(self) -> None:
        out = OUT / "warmup"
        run_cli_batch(self.cli, self.argv(self.batches[0][:2], out))
        shutil.rmtree(out, ignore_errors=True)

    def run(self, index: int) -> float:
        """Call ``la-nav batch`` on one part of the block; check it and return its wall seconds."""
        seeds = self.batches[index]
        out = OUT / "batch"
        shutil.rmtree(out, ignore_errors=True)
        code, wall = run_cli_batch(self.cli, self.argv(seeds, out))
        reference = self.references[index]
        if reference is None:
            reference = self.references[index] = check_batch(out, seeds)
            failed = set(reference.failed)
        else:
            # Bytes equal to a reference that failed its checks fail them too.
            failed = reference.failed | digest_batch(out, seeds).mismatched(reference.digest)
        if code != 0:
            failed = set(seeds)
        self.attempted += len(seeds)
        self.failed += len(failed)
        shutil.rmtree(out, ignore_errors=True)
        return wall

    # -- what the first pass found, over the whole block ------------------

    def _refs(self) -> list[BatchCheck]:
        return [ref for ref in self.references if ref is not None]

    @property
    def steps(self) -> list[int]:
        return [n for ref in self._refs() for n in ref.steps.values()]

    def total(self, field: str) -> int:
        return sum(getattr(ref, field) for ref in self._refs())

    @property
    def bytes_written(self) -> int:
        return sum(ref.digest.bytes_written for ref in self._refs())

    @property
    def telemetry_sha256(self) -> str:
        lines = "".join(f"{ref.digest.telemetry_sha256}\n" for ref in self._refs())
        return hashlib.sha256(lines.encode()).hexdigest()


# ---------------------------------------------------------------------------
# measurements


def _reference_work() -> int:
    """Float math, small tuples and dicts, and a small numpy array, as la_nav does."""
    rows = []
    x = 0.1
    vec = numpy.zeros(3)
    for i in range(REFERENCE_ITERATIONS):
        x = math.sin(x) + 0.5 * math.cos(i * 0.01)
        rows.append((x, i, {"x": x}))
        vec = vec + x
    return len(rows)


class MachineSpeed:
    """Wall times converted to a fixed machine speed.

    On a shared host the same call can take 1.5 to 2 times as long from
    one minute to the next, and for every process alike. So a fixed piece
    of reference work, which no change to la_nav can touch, is timed right
    before and right after every timed interval, with the garbage collector
    off so that la_nav's heap cannot slow it. The interval's wall time is
    scaled by REFERENCE_S over the mean of the two reference times: roughly
    the time the interval would have taken on the machine unloaded. la_nav
    does not slow exactly as the reference does, so this removes most of
    the machine's drift between runs, not all of it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> float:
        best = float("inf")
        gc.disable()
        try:
            for _ in range(REFERENCE_REPEATS):
                t0 = time.perf_counter()
                _reference_work()
                best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        self.samples.append(best)
        return best

    def timed(self, wall: float) -> tuple[float, float]:
        """A wall time just measured, with the mean reference time around it."""
        before = self.samples[-1]
        return wall, (before + self.sample()) / 2

    @staticmethod
    def corrected(timed: tuple[float, float]) -> float:
        wall, reference = timed
        return wall * REFERENCE_S / reference

    @property
    def slowdown(self) -> float:
        """Median reference time over REFERENCE_S: how loaded the machine was."""
        return statistics.median(self.samples) / REFERENCE_S


def start_interpreter(code: str) -> float:
    """Runs ``code`` in a fresh interpreter; returns the seconds it printed."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def sample_setup(setup_code: str) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter, with those of ``import numpy`` in another.

    Starting an interpreter is import work: reading files, unmarshalling
    bytecode and loading extension modules. It slows under load more than
    the reference work of MachineSpeed does, but like importing numpy, which
    is most of it. So set-up is corrected by a fresh ``import numpy`` timed
    right before it, which no change to la_nav can touch.
    """
    reference = start_interpreter(IMPORT_CHILD)
    return start_interpreter(setup_code), reference


def block_seconds(walls: list[list[float]]) -> float:
    """Typical time for the whole block: each call's median, summed."""
    return sum(statistics.median(w) for w in walls)


def retained_bytes_per_step(la_nav, preset: int, seeds: list[int]) -> float:
    """Bytes a finished RunRecord keeps alive per step, from tracemalloc."""
    records, steps = [], 0
    gc.collect()
    tracemalloc.start()
    try:
        for seed in seeds:
            config = la_nav.cli.parse_config(None, {"preset": preset, "seed": seed})
            records.append(la_nav.runner.run_episode(config))
            steps += records[-1].total_steps
            if steps >= RETAINED_STEPS:
                break
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return _ratio(retained, steps)


def measure_end_to_end(la_nav, campaign: Campaign, seconds: float, smoke: bool) -> dict:
    speed = MachineSpeed()
    setup_code = SETUP_CHILD.format(src=str(SRC), preset=campaign.preset, seed=campaign.seeds[0])
    sample_setup(setup_code)  # the first start compiles bytecode and fills the file cache
    campaign.warm_up()
    walls: list[list[tuple]] = [[] for _ in campaign.batches]
    setups: list[tuple] = []
    min_calls = len(walls) * (1 if smoke else MIN_PASSES)
    next_setup = time.perf_counter()
    deadline = next_setup + seconds
    calls = 0
    # Call after call round the block, stopping at the deadline even within a
    # pass. Set-up is sampled between calls all through the run, so that it
    # sees the same spells of machine load as the calls.
    while calls < min_calls or time.perf_counter() < deadline:
        if time.perf_counter() >= next_setup:
            setups.append(sample_setup(setup_code))
            next_setup += SETUP_INTERVAL_S
        i = calls % len(walls)
        speed.sample()  # right before the call; the output checks take a while
        walls[i].append(speed.timed(campaign.run(i)))
        calls += 1
    corrected = [[speed.corrected(w) for w in samples] for samples in walls]
    print(f"passes {len(walls[-1])}, corrected s per call "
          f"{[[round(w, 3) for w in samples] for samples in corrected]}")
    steps = campaign.steps
    raw = [[wall for wall, _reference in samples] for samples in walls]
    print(f"metric steps_per_s_wall {_ratio(sum(steps), block_seconds(raw))!r} 1/s")
    print(f"metric machine_slowdown {speed.slowdown!r} ratio")
    print(f"metric reference_s_min {min(speed.samples)!r} s")
    print(f"metric setup_s_wall {statistics.median(wall for wall, _numpy_s in setups)!r} s "
          f"({len(setups)} starts)")
    print(f"metric import_numpy_s {statistics.median(numpy_s for _wall, numpy_s in setups)!r} s")
    return {
        "steps_per_s": (_ratio(sum(steps), block_seconds(corrected)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (
            statistics.median(wall * REFERENCE_IMPORT_S / numpy_s for wall, numpy_s in setups), "s"
        ),
        "goal_steps_p50": (float(statistics.median(steps)) if steps else 0.0, "steps"),
    }


def measure_per_layer(la_nav, campaign: Campaign, seconds: float, smoke: bool) -> dict:
    cal = calibrate()
    print(f"wrapper cost ns per call: booked {cal['recorded_ns']:.1f}, added {cal['added_ns']:.1f}")
    campaign.warm_up()
    trace = LayerTrace()
    plain: list[list[float]] = [[] for _ in campaign.batches]
    traced: list[list[float]] = [[] for _ in campaign.batches]

    def traced_run(i: int) -> float:
        with trace:
            return campaign.run(i)

    deadline = time.perf_counter() + seconds
    while len(traced[0]) < (1 if smoke else 2) or time.perf_counter() < deadline:
        # Alternate which side goes first so drift does not favour one.
        plain_first = len(traced[0]) % 2 == 0
        for i in range(len(campaign.batches)):
            if plain_first:
                plain[i].append(campaign.run(i))
                traced[i].append(traced_run(i))
            else:
                traced[i].append(traced_run(i))
                plain[i].append(campaign.run(i))
    passes = len(traced[0])
    print(f"passes {len(traced[0])}, plain s {round(block_seconds(plain), 3)}, "
          f"traced s {round(block_seconds(traced), 3)}")

    block_steps = sum(campaign.steps)
    steps = block_steps * passes
    calls = {k: v // passes for k, v in trace.calls.items()}

    def per_call(key: str) -> float:
        return _ratio(trace.net_ns(key, cal), trace.calls[key])

    episodes_ms = [ns / 1e6 for ns in trace.episode_net_ns(cal)]
    if len(episodes_ms) > 1:
        deciles = statistics.quantiles(episodes_ms, n=10, method="inclusive")
    else:
        deciles = (episodes_ms or [0.0]) * 9
    print(f"episode samples {len(episodes_ms)} ({len(campaign.seeds)} seeds x {passes} passes)")
    episode_children = sum(trace.net_ns(k, cal) for k in EPISODE_CHILDREN)
    run_batch_s = trace.net_ns("cli.run_batch", cal) / passes / 1e9
    return {
        "automata.select_action.ns_per_call": (per_call("automata.select_action"), "ns"),
        "automata.select_action.calls": (calls["automata.select_action"], "count"),
        "automata.apply_feedback.ns_per_call": (per_call("automata.apply_feedback"), "ns"),
        "automata.apply_feedback.calls": (calls["automata.apply_feedback"], "count"),
        "automata.reward_frac": (_ratio(campaign.total("rewarded_steps"), block_steps), "ratio"),
        "kinematics.integrate_action.ns_per_call": (per_call("kinematics.integrate_action"), "ns"),
        "kinematics.integrate_action.calls": (calls["kinematics.integrate_action"], "count"),
        "world.resolve_motion.ns_per_call": (per_call("world.resolve_motion"), "ns"),
        "world.resolve_motion.calls": (calls["world.resolve_motion"], "count"),
        "world.blocked_frac": (_ratio(campaign.total("blocked_steps"), block_steps), "ratio"),
        "world.grade.ns_per_step": (_ratio(sum(trace.net_ns(k, cal) for k in GRADE), steps), "ns"),
        "world.build_world.ns_per_call": (per_call("world.build_world"), "ns"),
        "runner.run_episode.ms_p50": (deciles[4], "ms"),
        "runner.run_episode.ms_p90": (deciles[8], "ms"),
        "runner.run_episode.calls": (calls["runner.run_episode"], "count"),
        "runner.self_ns_per_step": (
            _ratio(trace.net_ns("runner.run_episode", cal) - episode_children, steps), "ns"
        ),
        "runner.config_digest.ns_per_call": (per_call("runner.config_digest"), "ns"),
        "runner.retained_bytes_per_step": (
            retained_bytes_per_step(la_nav, campaign.preset, campaign.seeds), "bytes"
        ),
        "cli.run_batch.s": (run_batch_s, "s"),
        "cli.emit_artifacts.us_per_step": (_ratio(trace.net_ns("cli.emit_artifacts", cal), steps * 1e3), "us"),
        "cli.emit_artifacts.ms_per_call": (per_call("cli.emit_artifacts") / 1e6, "ms"),
        "cli.build_svg.us_per_step": (_ratio(trace.net_ns("cli.build_svg", cal), steps * 1e3), "us"),
        "cli.bytes_written_per_step": (_ratio(campaign.bytes_written, block_steps), "bytes"),
        "cli.simulate_share": (_ratio(run_batch_s, block_seconds(plain)), "ratio"),
        "trace.overhead_frac": (_ratio(block_seconds(traced), block_seconds(plain)) - 1.0, "ratio"),
    }


# ---------------------------------------------------------------------------
# entry points


def seed_block(workload: Workload, seed: int, smoke: bool) -> list[list[int]]:
    """The episode seeds of block ``seed``, one list per ``la-nav batch`` call."""
    per, count = (1, 2) if smoke else (workload.seeds_per_batch, workload.batches)
    first = seed * per * count + 1
    return [list(range(first + i * per, first + (i + 1) * per)) for i in range(count)]


def run_workload(args: argparse.Namespace) -> int:
    la_nav = _import_la_nav()
    print("# header " + json.dumps(header(), sort_keys=True))
    workload = WORKLOADS[args.workload]
    campaign = Campaign(la_nav, workload.preset, seed_block(workload, args.seed, args.smoke))
    seeds = campaign.seeds
    print(f"workload {args.workload}: preset {workload.preset}, seeds {seeds[0]}..{seeds[-1]} "
          f"in {len(campaign.batches)} calls, trace {args.trace}")
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        metrics = measure(la_nav, campaign, args.seconds, args.smoke)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    report = {
        "success_rate": (campaign.total("successes") / len(seeds), "ratio"),
        "failed_frac": (_ratio(campaign.failed, campaign.attempted), "ratio"),
    }
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"telemetry_sha256 {campaign.telemetry_sha256}")
    print(json.dumps({
        "correct": campaign.failed == 0,
        "attempted": campaign.attempted,
        "failed": campaign.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in both modes, each in a fresh process."""
    _import_la_nav()
    combined: dict = {"header": header(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines:
                print(f"[{name} trace={trace}] {line}")
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(lines[-1])
            result["telemetry_sha256"] = next(
                line.split()[1] for line in lines if line.startswith("telemetry_sha256 ")
            )
            combined["workloads"].setdefault(name, {})[f"trace{trace}"] = result
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="picks the block of episode seeds")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="two one-seed calls and one pass, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
