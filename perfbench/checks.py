"""Output checks and digests for a directory written by ``la-nav batch``.

A seed fails when its artifacts are missing or unreadable, when it is
listed as a ``SeedFailure`` in ``batch_summary.json``, when a trajectory
endpoint lies inside an obstacle, when a ``probs.csv`` row does not sum to
1 within 1e-9, or when its bytes differ from the reference batch.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

ARTIFACTS = ("trajectory.csv", "probs.csv", "summary.json", "plot.svg")
SUMMARY = "batch_summary.json"
PROB_SUM_TOLERANCE = 1e-9


@dataclass
class BatchDigest:
    """sha256 of each seed's artifacts and of the batch summary."""

    seeds: dict[int, str | None]
    summary: str | None
    bytes_written: int

    @property
    def telemetry_sha256(self) -> str:
        h = hashlib.sha256()
        for seed, digest in self.seeds.items():
            h.update(f"{seed}:{digest}\n".encode())
        h.update(f"{SUMMARY}:{self.summary}\n".encode())
        return h.hexdigest()

    def mismatched(self, reference: "BatchDigest") -> set[int]:
        """Seeds whose bytes differ from ``reference``; all of them if the summary does."""
        if self.summary is None or self.summary != reference.summary:
            return set(self.seeds)
        return {s for s, d in self.seeds.items() if d is None or d != reference.seeds.get(s)}


@dataclass
class BatchCheck:
    """Result of the full output checks on one batch."""

    digest: BatchDigest
    failed: set[int] = field(default_factory=set)
    steps: dict[int, int] = field(default_factory=dict)
    successes: int = 0
    rewarded_steps: int = 0
    blocked_steps: int = 0


def _file_digest(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


def digest_batch(out_dir: Path, seeds: list[int]) -> BatchDigest:
    per_seed: dict[int, str | None] = {}
    total = 0
    for seed in seeds:
        h = hashlib.sha256()
        try:
            for name in ARTIFACTS:
                digest, size = _file_digest(out_dir / f"seed_{seed}" / name)
                h.update(f"{name}:{digest}\n".encode())
                total += size
            per_seed[seed] = h.hexdigest()
        except OSError:
            per_seed[seed] = None
    try:
        summary, size = _file_digest(out_dir / SUMMARY)
        total += size
    except OSError:
        summary = None
    return BatchDigest(per_seed, summary, total)


def _inside(obstacle: dict, x: float, y: float) -> bool:
    # Strict interior, as la_nav.world defines it.
    if obstacle["shape"] == "circle":
        cx, cy = obstacle["center"]
        dx, dy = x - cx, y - cy
        return dx * dx + dy * dy < obstacle["radius"] ** 2
    (x0, y0), (x1, y1) = obstacle["min"], obstacle["max"]
    return x0 < x < x1 and y0 < y < y1


def _check_seed(seed_dir: Path) -> tuple[int, bool, int, int]:
    """Validate one seed's artifacts; return (steps, success, rewarded, blocked)."""
    summary = json.loads((seed_dir / "summary.json").read_text(encoding="utf-8"))
    steps = summary["total_steps"]
    obstacles = summary["world"]["obstacles"]
    rewarded = blocked = rows = 0
    with open(seed_dir / "trajectory.csv", encoding="utf-8") as fh:
        if next(fh).strip() != "n,x,y,theta,action,flag,d,blocked":
            raise ValueError("unexpected trajectory.csv header")
        for line in fh:
            _n, x, y, _theta, _action, flag, _d, was_blocked = line.split(",")
            xf, yf = float(x), float(y)
            if any(_inside(o, xf, yf) for o in obstacles):
                raise ValueError(f"endpoint ({x}, {y}) inside an obstacle")
            rewarded += flag == "0"
            blocked += was_blocked.strip() == "1"
            rows += 1
    if rows != steps:
        raise ValueError(f"trajectory.csv has {rows} rows for {steps} steps")
    rows = 0
    with open(seed_dir / "probs.csv", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            total = math.fsum(float(v) for v in line.split(",")[1:])
            if abs(total - 1.0) > PROB_SUM_TOLERANCE:
                raise ValueError(f"probs.csv row sums to {total!r}")
            rows += 1
    if rows != steps:
        raise ValueError(f"probs.csv has {rows} rows for {steps} steps")
    return steps, bool(summary["success"]), rewarded, blocked


def check_batch(out_dir: Path, seeds: list[int]) -> BatchCheck:
    """Run every output check on a batch and digest its bytes."""
    result = BatchCheck(digest=digest_batch(out_dir, seeds))
    for seed in seeds:
        try:
            steps, success, rewarded, blocked = _check_seed(out_dir / f"seed_{seed}")
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            print(f"check failed for seed {seed}: {exc!r}")
            result.failed.add(seed)
            continue
        result.steps[seed] = steps
        result.successes += success
        result.rewarded_steps += rewarded
        result.blocked_steps += blocked
    try:
        doc = json.loads((out_dir / SUMMARY).read_text(encoding="utf-8"))
        result.failed.update(f["seed"] for f in doc["failures"])
        if doc["seeds"] != seeds or doc["summary"]["runs"] != len(seeds):
            raise ValueError("batch_summary.json does not cover the requested seeds")
        median = statistics.median(result.steps.values()) if result.steps else None
        if result.steps and doc["summary"]["steps"]["median"] != median:
            raise ValueError("batch_summary.json median disagrees with the per-seed summaries")
    except (OSError, ValueError, KeyError) as exc:
        print(f"check failed for {SUMMARY}: {exc!r}")
        result.failed.update(seeds)
    return result
