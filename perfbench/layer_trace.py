"""Per-layer timing of la_nav from outside the package.

``LayerTrace`` replaces the functions that ``la_nav.runner`` and
``la_nav.cli`` bound at import with timing wrappers, in the module globals
where the callers look them up, and puts the originals back on exit.
Nothing under ``src/`` is edited. Wrappers add to per-layer counters
(calls and nanoseconds) instead of keeping one span per call, so a
500 000-step batch stays bounded in memory; only one duration per episode
is kept.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# Layer key -> (module that looks the name up, attribute name).
WRAPPED = {
    "automata.select_action": ("la_nav.runner", "select_action"),
    "automata.apply_feedback": ("la_nav.runner", "apply_feedback"),
    "kinematics.integrate_action": ("la_nav.runner", "integrate_action"),
    "world.resolve_motion": ("la_nav.runner", "resolve_motion"),
    "world.distance_to_goal": ("la_nav.runner", "distance_to_goal"),
    "world.compute_feedback": ("la_nav.runner", "compute_feedback"),
    "world.goal_reached": ("la_nav.runner", "goal_reached"),
    # build_world lives in la_nav.runner but materialises the world layer.
    "world.build_world": ("la_nav.runner", "build_world"),
    "runner.config_digest": ("la_nav.runner", "config_digest"),
    "runner.run_episode": ("la_nav.runner", "run_episode"),
    "cli.run_batch": ("la_nav.cli", "run_batch"),
    "cli.emit_artifacts": ("la_nav.cli", "emit_artifacts"),
    "cli.build_svg": ("la_nav.cli", "build_svg"),
}

# Layers called from inside run_episode; the rest of an episode's time is
# the runner's own (loop, StepRecord objects, RNG draws).
EPISODE_CHILDREN = tuple(
    key for key, (module, _) in WRAPPED.items()
    if module == "la_nav.runner" and key != "runner.run_episode"
)
GRADE = ("world.distance_to_goal", "world.compute_feedback", "world.goal_reached")

# Wrapped layers that run inside another wrapped layer's interval.
NESTED = {
    "cli.run_batch": EPISODE_CHILDREN + ("runner.run_episode",),
    "runner.run_episode": EPISODE_CHILDREN,
    "cli.emit_artifacts": ("cli.build_svg",),
}


def _noop(_arg):
    return None


class LayerTrace:
    """Counters per layer; use as a context manager around the traced call."""

    def __init__(self) -> None:
        self.ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        # (duration, wrapped calls inside it) per episode
        self.episodes: list[tuple[int, int]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, key: str, fn):
        ns, calls, clock = self.ns, self.calls, time.perf_counter_ns

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            ns[key] += clock() - t0
            calls[key] += 1
            return out

        return timed

    def _wrap_episode(self, key: str, fn):
        ns, calls, clock = self.ns, self.calls, time.perf_counter_ns

        def episode(*args, **kwargs):
            before = sum(calls[k] for k in EPISODE_CHILDREN)
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            ns[key] += dt
            calls[key] += 1
            self.episodes.append((dt, sum(calls[k] for k in EPISODE_CHILDREN) - before))
            return out

        return episode

    # -- results ----------------------------------------------------------

    def net_ns(self, key: str, cal: dict[str, float]) -> float:
        """Booked time of ``key`` without the cost of wrapping it or its nested calls."""
        nested_calls = sum(self.calls[k] for k in NESTED.get(key, ()))
        per_wrap = cal["recorded_ns"] + cal["added_ns"]
        return self.ns[key] - self.calls[key] * cal["recorded_ns"] - nested_calls * per_wrap

    def episode_net_ns(self, cal: dict[str, float]) -> list[float]:
        """Each episode's duration without the cost of wrapping."""
        per_wrap = cal["recorded_ns"] + cal["added_ns"]
        return [dt - cal["recorded_ns"] - n * per_wrap for dt, n in self.episodes]

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        try:
            for key, (module_name, attr) in WRAPPED.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                wrap = self._wrap_episode if key == "runner.run_episode" else self._wrap
                setattr(module, attr, wrap(key, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def calibrate(n: int = 200_000) -> dict[str, float]:
    """Cost of the wrapper itself, measured on a function that does nothing.

    ``recorded_ns`` is what a wrapper books beyond the plain call it wraps;
    it is subtracted from every per-call figure. ``added_ns`` is what a
    wrapper costs its caller beyond the interval it books; it is subtracted
    from the runner's self time once per child call. Together they are the
    whole cost of wrapping one call.
    """
    clock = time.perf_counter_ns
    trace = LayerTrace()
    wrapped = trace._wrap("noop", _noop)
    loop = range(n)
    runs: dict[str, list[float]] = defaultdict(list)
    for _ in range(5):
        t0 = clock()
        for _ in loop:
            pass
        runs["empty"].append((clock() - t0) / n)
        t0 = clock()
        for _ in loop:
            _noop(None)
        runs["raw"].append((clock() - t0) / n)
        before = trace.ns["noop"]
        t0 = clock()
        for _ in loop:
            wrapped(None)
        runs["wrapped"].append((clock() - t0) / n)
        runs["booked"].append((trace.ns["noop"] - before) / n)
    empty, raw, wrapped_ns, booked = (
        statistics.median(runs[k]) for k in ("empty", "raw", "wrapped", "booked")
    )
    return {
        "recorded_ns": max(0.0, booked - (raw - empty)),
        "added_ns": max(0.0, wrapped_ns - empty - booked),
    }
