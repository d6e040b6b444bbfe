"""Tests of the benchmark's own accounting (``benchlib``).

Run with ``python -m pytest perfbench/test_benchlib.py``; the module
needs only the standard library.
"""

import statistics

import pytest

import benchlib


class TestPercentile:
    def test_matches_inclusive_quantiles(self):
        values = [0.9, 0.1, 0.5, 0.3, 0.7, 1.3, 0.2]
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        assert benchlib.percentile(values, 25) == pytest.approx(quartiles[0])
        assert benchlib.percentile(values, 75) == pytest.approx(quartiles[2])
        assert benchlib.median(values) == statistics.median(values)

    def test_interpolates_between_ranks(self):
        assert benchlib.percentile([10.0, 20.0], 95) == pytest.approx(19.5)
        assert benchlib.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0) == 1.0
        assert benchlib.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 100) == 5.0

    def test_single_value_and_order_independence(self):
        assert benchlib.percentile([4.2], 95) == 4.2
        assert benchlib.percentile([3, 1, 2], 50) == 2

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            benchlib.percentile([], 50)
        with pytest.raises(ValueError):
            benchlib.percentile([1.0], 101)


class TestFailureAccounting:
    def test_tally_counts_and_keeps_first_reasons(self):
        tally = benchlib.Tally(keep_reasons=2)
        assert tally.failed_frac == 0.0
        for index in range(6):
            tally.record(index % 3 != 0, f"op {index}")
        assert (tally.attempted, tally.failed) == (6, 2)
        assert tally.failed_frac == pytest.approx(2 / 6)
        assert tally.reasons == ["op 0", "op 3"]

    def test_refused_and_failed_requests_miss_the_limit(self):
        latencies = [0.004, 0.006, 0.030, 0.005]
        assert benchlib.miss_frac(latencies, 0.025) == pytest.approx(1 / 4)
        # two refused (429) requests: missed, and part of the base
        assert benchlib.miss_frac(latencies, 0.025, failures=2) == \
            pytest.approx(3 / 6)
        assert benchlib.miss_frac([], 0.025, failures=1) == 1.0
        with pytest.raises(ValueError):
            benchlib.miss_frac([], 0.025)

    def test_unsafe_rows(self):
        rows = [{"num_violations": 0}, {"num_violations": 3}]
        assert benchlib.unsafe_rows(rows) == [rows[1]]


class TestOpenLoop:
    def test_schedule_is_fixed_by_start_rate_and_duration(self):
        due = benchlib.schedule(100.0, 0.25, 1.0)
        assert due == [100.0, 100.25, 100.5, 100.75]
        assert benchlib.schedule(0.0, 2.0, 12.0, offset=0.5) == \
            [0.5, 2.5, 4.5, 6.5, 8.5, 10.5]
        with pytest.raises(ValueError):
            benchlib.schedule(0.0, 0.0, 1.0)

    def test_late_generator_is_measured_from_due_time(self):
        # a request sent after its due time is late by the difference;
        # one sent early (sleep overshoot cannot make it negative)
        assert benchlib.lateness(10.0, 10.003) == pytest.approx(0.003)
        assert benchlib.lateness(10.0, 9.999) == 0.0
        late = [benchlib.lateness(due, due + 0.001 * index)
                for index, due in enumerate(benchlib.schedule(0, 0.1, 2.0))]
        assert benchlib.percentile(late, 95) == pytest.approx(0.01805)


def _process(pid, ppid, wall, layers, forked_under=None):
    return {"pid": pid, "ppid": ppid, "forked_under": forked_under,
            "wall_s": wall,
            "layers": {name: {"self_s": seconds, "calls": 1}
                       for name, seconds in layers.items()}}


class TestLayerBreakdown:
    def test_single_process_adds_up(self):
        main = _process(1, 0, 1.0, {"cli.import": 0.4, "sim.vector": 0.3})
        layers, rest = benchlib.attribute(1.2, [main], [main])
        assert layers == {"cli.import": 0.4, "sim.vector": 0.3}
        assert rest == pytest.approx(0.5)
        assert benchlib.adds_up(1.2, layers, rest)

    def test_pool_wait_is_shared_out_over_worker_layers(self):
        main = _process(1, 0, 2.0, {"cli.import": 0.4,
                                    "lab.runner.shard_pool": 1.0})
        # two workers in parallel: 2.0 s busy in all for 1.0 s of wait
        workers = [
            _process(2, 1, 1.0, {"sim.vector": 0.6, "flow.evaluate": 0.2},
                     "lab.runner.shard_pool"),
            _process(3, 1, 1.0, {"sim.vector": 0.8},
                     "lab.runner.shard_pool"),
        ]
        processes = [main] + workers
        layers, rest = benchlib.attribute(2.5, [main], processes)
        assert layers["sim.vector"] == pytest.approx(0.7)
        assert layers["flow.evaluate"] == pytest.approx(0.1)
        # worker time outside any layer stays with the waiting layer
        assert layers["lab.runner.shard_pool"] == pytest.approx(0.2)
        assert rest == pytest.approx(2.5 - 0.4 - 1.0)
        assert benchlib.adds_up(2.5, layers, rest)

    def test_unrelated_children_are_ignored(self):
        main = _process(1, 0, 1.0, {"flow.characterize": 0.5})
        tracker = _process(9, 1, 5.0, {})          # not forked by a layer
        stranger = _process(4, 7, 1.0, {"sim.vector": 0.9},
                            "flow.characterize")
        layers, _ = benchlib.attribute(1.0, [main],
                                       [main, tracker, stranger])
        assert layers == {"flow.characterize": 0.5}

    def test_roots_sum_and_double_counting_is_caught(self):
        jobs = [_process(2, 1, 0.4, {"cli.import": 0.3}),
                _process(3, 1, 0.5, {"cli.import": 0.3, "flow.evaluate": 0.1})]
        layers, rest = benchlib.attribute(1.0, jobs, jobs)
        assert layers["cli.import"] == pytest.approx(0.6)
        assert rest == pytest.approx(0.3)
        assert not benchlib.adds_up(0.5, layers, 0.5 - 0.7)
        assert not benchlib.adds_up(1.0, layers, rest + 0.01)


class TestRows:
    def test_rows_from_columnar_frame(self):
        document = {"schema": [["program", "str"], ["speedup_percent",
                                                    "float"]],
                    "columns": {"program": ["fib", "crc16"],
                                "speedup_percent": [40.0, 30.0]}}
        assert benchlib.rows_from_frame(document) == [
            {"program": "fib", "speedup_percent": 40.0},
            {"program": "crc16", "speedup_percent": 30.0},
        ]

    def test_mean_speedup_by_policy_and_margin(self):
        rows = [
            {"policy": "instruction", "margin_percent": 0.0,
             "speedup_percent": 40.0},
            {"policy": "instruction", "margin_percent": 5.0,
             "speedup_percent": 30.0},
            {"policy": "genie", "margin_percent": 0.0,
             "speedup_percent": 50.0},
        ]
        assert benchlib.mean_speedup(rows, "instruction") == 35.0
        assert benchlib.mean_speedup(rows, "instruction", 0.0) == 40.0
        with pytest.raises(ValueError):
            benchlib.mean_speedup(rows, "static")
