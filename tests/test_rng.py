"""The pure-Python generator and batch statistics against numpy, bit for bit."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from la_nav import summarize
from la_nav.rng import PCG64

DRAWS = 300


def _stream(rng, draws=DRAWS):
    """``random()`` and ``uniform(-100, 100)`` interleaved, as hex strings."""
    return [
        float(rng.uniform(-100.0, 100.0) if i % 3 == 2 else rng.random()).hex()
        for i in range(draws)
    ]


def _numpy(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestPCG64:
    @pytest.mark.parametrize(
        "seeds",
        [range(0, 100), range(100, 200), range(200, 300), [2**32, 2**64 + 3, 2**128 + 1]],
        ids=["0-99", "100-199", "200-299", "huge"],
    )
    def test_matches_numpy(self, seeds):
        for seed in seeds:
            assert _stream(PCG64(seed)) == _stream(_numpy(seed)), seed

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**160))
    def test_matches_numpy_any_seed(self, seed):
        assert _stream(PCG64(seed), 40) == _stream(_numpy(seed), 40)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PCG64(-1)


def _records(counts):
    return tuple(SimpleNamespace(total_steps=n, success=n < 5000) for n in counts)


class TestSummarizeMatchesNumpy:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=400))
    @example([7])
    @example([3, 9])
    @example([5000, 1, 17, 17])
    @example(list(range(1, 401)))
    def test_step_statistics(self, counts):
        steps = summarize(_records(counts))["steps"]
        values = np.array(counts, dtype=float)
        p10, p25, p75, p90 = np.percentile(values, [10, 25, 75, 90])
        expected = {
            "mean": float(values.mean()),
            "median": float(np.median(values)),
            "p10": float(p10),
            "p25": float(p25),
            "p75": float(p75),
            "p90": float(p90),
            "min": int(values.min()),
            "max": int(values.max()),
        }
        assert steps == expected
        assert [type(v) for v in steps.values()] == [type(v) for v in expected.values()]

    def test_no_records(self):
        steps = summarize(())["steps"]
        assert list(steps) == ["mean", "median", "p10", "p25", "p75", "p90", "min", "max"]
        assert set(steps.values()) == {None}
