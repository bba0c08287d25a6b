"""Tests of the benchmark itself, on tiny seed ranges.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))

import la_nav.cli  # noqa: E402
import la_nav.runner  # noqa: E402
from layer_trace import WRAPPED, LayerTrace  # noqa: E402


def _smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _printed(lines: list[str]) -> dict[str, str]:
    """Unit of every ``metric <name> <value> <unit>`` line."""
    return {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    printed = _printed(lines)
    assert {name: printed.get(name) for name in expected} == expected
    assert printed["success_rate"] == "ratio" and printed["failed_frac"] == "ratio"
    assert any(line.startswith("telemetry_sha256 ") for line in lines)
    assert any(line.startswith("# header ") for line in lines)


def test_traced_and_untraced_runs_write_the_same_bytes():
    digests = set()
    for trace in (0, 1):
        proc = _smoke("blocked-lrp", trace)
        assert proc.returncode == 0, proc.stderr
        digests.update(
            line.split()[1] for line in proc.stdout.splitlines() if line.startswith("telemetry_sha256 ")
        )
    assert len(digests) == 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _smoke("open-lrp", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _module_state() -> dict[str, dict]:
    return {module.__name__: dict(vars(module)) for module in (la_nav.runner, la_nav.cli)}


def _assert_same_state(before, after):
    assert before.keys() == after.keys()
    for name, old in before.items():
        new = after[name]
        assert old.keys() == new.keys()
        assert [k for k in old if old[k] is not new[k]] == []


def test_wrappers_leave_module_attributes_as_found(tmp_path):
    before = _module_state()
    with LayerTrace() as trace:
        for module_name, attr in WRAPPED.values():
            assert getattr(sys.modules[module_name], attr) is not before[module_name][attr]
        code = la_nav.cli.main([
            "batch", "--preset", "4", "--seeds", "1..2", "--max-steps", "20",
            "--out", str(tmp_path), "--parallelism", "1",
        ])
    _assert_same_state(before, _module_state())
    assert code == 0
    assert trace.calls["runner.run_episode"] == 2
    assert trace.calls["cli.emit_artifacts"] == 2
    assert trace.calls["automata.select_action"] == trace.calls["world.resolve_motion"] <= 40
    assert len(trace.episodes) == 2


def test_wrappers_are_restored_when_the_traced_call_raises():
    before = _module_state()
    with pytest.raises(RuntimeError):
        with LayerTrace():
            raise RuntimeError("boom")
    _assert_same_state(before, _module_state())


def test_machine_speed_scales_wall_time_to_the_reference_speed():
    from run import REFERENCE_S, MachineSpeed

    speed = MachineSpeed()
    assert MachineSpeed.corrected((2.0, 2 * REFERENCE_S)) == pytest.approx(1.0)
    wall, reference = speed.timed(0.5)
    assert wall == 0.5 and reference == pytest.approx(sum(speed.samples[-2:]) / 2)
    assert len(speed.samples) == 2 and min(speed.samples) > 0
