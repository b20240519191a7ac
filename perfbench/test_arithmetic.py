"""Tests of the benchmark's own arithmetic (not of the program it measures)."""

import asyncio
import statistics

import numpy as np
import pytest

from perfbench.loadgen import open_loop
from perfbench.stats import pair_wins, percentile, quartiles, samples_beyond, self_times, spread


class TestPercentileTail:
    def test_samples_beyond_counts_the_interpolated_tail(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(92, 90) == 10
        assert samples_beyond(91, 90) == 9
        assert samples_beyond(20, 50) == 10
        assert samples_beyond(19, 50) == 9

    def test_percentile_needs_ten_samples_beyond(self):
        values = list(range(92))
        assert percentile(values, 90) == pytest.approx(np.percentile(values, 90))
        with pytest.raises(ValueError):
            percentile(list(range(91)), 90)
        with pytest.raises(ValueError):
            percentile(list(range(19)), 50)

    def test_percentile_matches_numpy_interpolation(self):
        rng = np.random.default_rng(0)
        values = list(rng.exponential(size=257))
        for q in (50, 90, 95):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))


class TestQuartiles:
    def test_quartiles_are_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        assert quartiles(values) == tuple(statistics.quantiles(values, n=4))

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 10.0, 11.0, 12.0, 9.0, 10.0, 10.0, 11.0, 9.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert spread(values) == pytest.approx((q3 - q1) / q2)


class TestPairWins:
    def test_ties_count_for_neither_side(self):
        base = [10.0, 10.0, 10.0, 10.0]
        change = [9.0, 10.0, 11.0, 8.0]
        assert pair_wins(base, change, "lower") == (2, 1, 1)
        assert pair_wins(base, change, "higher") == (1, 2, 1)

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError):
            pair_wins([1.0], [1.0, 2.0], "lower")


class FakeClock:
    """A clock that only moves when a sleep or a simulated render moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    async def sleep(self, delay):
        target = self.now + delay
        await asyncio.sleep(0)  # tasks that are ready run before time passes
        self.now = max(self.now, target)


class TestDueTimeLatency:
    def test_a_request_due_during_a_blocking_render_is_charged_the_wait(self):
        clock = FakeClock()

        async def submit(item):
            # Rendering a miss blocks the event loop; hits cost 1 ms.
            clock.now += 0.050 if item == "miss" else 0.001
            return item

        schedule = [(0.000, "miss"), (0.010, "hit"), (0.020, "hit")]
        timings, responses = asyncio.run(open_loop(schedule, submit, clock=clock, sleep=clock.sleep, spin_s=0.0))
        assert responses == ["miss", "hit", "hit"]
        assert [t.latency for t in timings] == pytest.approx([0.050, 0.041, 0.032])
        # Timed from submission the two hits would read 1 ms each; the
        # generator's own lateness is what separates the two.
        assert [t.late for t in timings] == pytest.approx([0.0, 0.040, 0.031])

    def test_a_failed_request_is_returned_not_raised(self):
        clock = FakeClock()

        async def submit(item):
            raise RuntimeError(item)

        timings, responses = asyncio.run(open_loop([(0.0, "x")], submit, clock=clock, sleep=clock.sleep, spin_s=0.0))
        assert isinstance(responses[0], RuntimeError)
        assert timings[0].latency == 0.0


class TestSelfTime:
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            ("parent", 0.0, 10.0, "a"),
            ("child", 1.0, 3.0, "a"),
            ("grandchild", 1.5, 2.0, "a"),
            ("overlapping-child", 2.0, 4.0, "a"),
            ("other-lane", 0.0, 10.0, "b"),
        ]
        selfs = {span[0]: s for span, s in self_times(spans)}
        assert selfs["parent"] == pytest.approx(10.0 - 3.0)
        assert selfs["child"] == pytest.approx(2.0 - 0.5)
        assert selfs["grandchild"] == pytest.approx(0.5)
        assert selfs["overlapping-child"] == pytest.approx(2.0)
        assert selfs["other-lane"] == pytest.approx(10.0)

    def test_sequential_siblings_do_not_nest(self):
        spans = [("a", 0.0, 1.0, 0), ("b", 1.0, 2.0, 0), ("c", 2.5, 3.0, 0)]
        assert [s for _, s in self_times(spans)] == pytest.approx([1.0, 1.0, 0.5])
