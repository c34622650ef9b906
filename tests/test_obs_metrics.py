"""Metrics semantics plus the buffered-packet conservation property.

The registry half pins down counter/gauge/histogram behaviour (label
separation, monotonicity, reset, kind conflicts). The property half
asserts the invariant the loss-free guarantee rests on: every packet
the controller buffers during a successful move is later released, and
every packet the destination NF buffers is released when its buffer
opens — measured by the instrumentation itself, not by the mechanism
under test.
"""

import random

import pytest

from repro.harness import run_move_experiment
from repro.obs import MetricsRegistry
from repro.obs.metrics import GAMMA, OVERFLOW_LABELS, percentile_of

from tests.oracles.raw_histogram import Histogram

pytestmark = pytest.mark.obs


class TestCounter:
    def test_monotone_and_label_separated(self):
        registry = MetricsRegistry()
        counter = registry.counter("pkts")
        counter.inc(2, nf="a")
        counter.inc(3, nf="a")
        counter.inc(5, nf="b")
        assert counter.value(nf="a") == 5
        assert counter.value(nf="b") == 5
        assert counter.value(nf="c") == 0
        assert counter.total() == 10

    def test_label_order_insensitive(self):
        counter = MetricsRegistry().counter("pkts")
        counter.inc(1, nf="a", port="p1")
        counter.inc(1, port="p1", nf="a")
        assert counter.value(nf="a", port="p1") == 2

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("pkts")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.total() == 0

    def test_unlabelled_series(self):
        counter = MetricsRegistry().counter("pkts")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        assert counter.snapshot() == {"_": 5}


class TestGauge:
    def test_set_add_value(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7, queue="q")
        gauge.add(-3, queue="q")
        assert gauge.value(queue="q") == 4
        assert gauge.value(queue="other") == 0


class TestHistogram:
    def test_aggregates(self):
        hist = Histogram("rpc_ms")
        for value in (2.0, 4.0, 9.0):
            hist.observe(value, op="get")
        assert hist.count(op="get") == 3
        assert hist.sum(op="get") == 15.0
        assert hist.min(op="get") == 2.0
        assert hist.max(op="get") == 9.0
        assert hist.mean(op="get") == 5.0
        assert hist.values(op="get") == [2.0, 4.0, 9.0]

    def test_bounded_aggregates_exact(self):
        # count/sum/min/max/mean are exact on the bounded implementation;
        # only percentile is approximate.
        hist = MetricsRegistry().histogram("rpc_ms")
        for value in (2.0, 4.0, 9.0):
            hist.observe(value, op="get")
        assert hist.count(op="get") == 3
        assert hist.sum(op="get") == 15.0
        assert hist.min(op="get") == 2.0
        assert hist.max(op="get") == 9.0
        assert hist.mean(op="get") == 5.0

    def test_bounded_values_rejected(self):
        hist = MetricsRegistry().histogram("rpc_ms")
        hist.observe(1.0)
        with pytest.raises(TypeError):
            hist.values()

    def test_empty_series(self):
        hist = MetricsRegistry().histogram("rpc_ms")
        assert hist.count() == 0
        assert hist.min() is None and hist.max() is None
        assert hist.mean() is None

    def test_snapshot_shape(self):
        hist = MetricsRegistry().histogram("rpc_ms")
        hist.observe(1.0, op="put")
        hist.observe(3.0, op="put")
        assert hist.snapshot() == {
            "op=put": {
                "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
                "p50": 1.0, "p90": 3.0, "p99": 3.0,
            }
        }

    def test_percentiles_nearest_rank(self):
        hist = Histogram("rpc_ms")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(90) == 90.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(50, op="missing") is None

    def test_percentile_edge_cases(self):
        for hist in (Histogram("rpc_ms"),
                     MetricsRegistry().histogram("rpc_ms")):
            hist.observe(7.5)
            # A single sample IS every percentile.
            assert hist.percentile(0) == 7.5
            assert hist.percentile(50) == 7.5
            assert hist.percentile(100) == 7.5
            with pytest.raises(ValueError):
                hist.percentile(-1)
            with pytest.raises(ValueError):
                hist.percentile(101)

    def test_percentile_of_edges(self):
        assert percentile_of([], 50) is None
        assert percentile_of([3.0], 0) == 3.0
        assert percentile_of([3.0], 100) == 3.0
        assert percentile_of([5.0, 1.0, 3.0], 0) == 1.0
        assert percentile_of([5.0, 1.0, 3.0], 100) == 5.0
        with pytest.raises(ValueError):
            percentile_of([1.0], 120)

    def test_bounded_within_one_bucket_of_raw_oracle(self):
        """Differential test: bounded percentiles land within one
        log-bucket width of the exact nearest-rank answer."""
        rng = random.Random(20260808)
        for trial in range(20):
            exact_hist = Histogram("lat")
            approx_hist = MetricsRegistry().histogram("lat")
            n = rng.randrange(1, 400)
            for _ in range(n):
                # Mix of magnitudes: sub-ms to tens of seconds.
                value = rng.uniform(0.01, 10.0) * 10 ** rng.randrange(0, 4)
                exact_hist.observe(value)
                approx_hist.observe(value)
            for q in (0, 1, 25, 50, 90, 99, 100):
                exact = exact_hist.percentile(q)
                approx = approx_hist.percentile(q)
                assert exact <= approx <= exact * GAMMA * (1 + 1e-9), (
                    trial, q, exact, approx
                )

    def test_bounded_zero_and_negative_samples(self):
        hist = MetricsRegistry().histogram("delta")
        for value in (-4.0, -1.0, 0.0, 2.0):
            hist.observe(value)
        assert hist.min() == -4.0
        assert hist.max() == 2.0
        assert hist.percentile(0) == -4.0
        assert hist.percentile(100) == 2.0
        # p50 (rank 2 of 4) falls on the -1.0 sample's bucket.
        p50 = hist.percentile(50)
        assert -1.0 * GAMMA * (1 + 1e-9) <= p50 <= -1.0 / GAMMA * (1 - 1e-9)

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("pkts.total").inc(3, nf="a")
        registry.gauge("depth").set(2)
        hist = registry.histogram("rpc_ms")
        hist.observe(1.0, op="put")
        hist.observe(3.0, op="put")
        text = registry.render_prometheus()
        assert "# TYPE pkts_total counter" in text
        assert 'pkts_total{nf="a"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert "# TYPE rpc_ms summary" in text
        assert 'rpc_ms{op="put",quantile="0.5"} 1' in text
        assert 'rpc_ms{op="put",quantile="0.99"} 3' in text
        assert 'rpc_ms_sum{op="put"} 4' in text
        assert 'rpc_ms_count{op="put"} 2' in text


class TestCardinalityGuard:
    def test_overflow_aggregates_and_warns_once(self):
        registry = MetricsRegistry(max_label_sets=3)
        counter = registry.counter("pkts")
        for i in range(3):
            counter.inc(1, flow="f%d" % i)
        with pytest.warns(RuntimeWarning):
            counter.inc(2, flow="f3")
        # Second overflow does NOT warn again.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counter.inc(3, flow="f4")
        # Existing label sets still track exactly.
        assert counter.value(flow="f0") == 1
        # Overflowed increments aggregate into the 'other' bucket.
        assert counter.value(**OVERFLOW_LABELS) == 5
        assert counter.total() == 8
        assert counter.overflow_routed == 2

    def test_reset_reopens_capacity(self):
        registry = MetricsRegistry(max_label_sets=1)
        counter = registry.counter("pkts")
        counter.inc(1, flow="a")
        with pytest.warns(RuntimeWarning):
            counter.inc(1, flow="b")
        registry.reset()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counter.inc(4, flow="c")  # capacity is free again, no warn
        assert counter.value(flow="c") == 4

    def test_histogram_overflow(self):
        registry = MetricsRegistry(max_label_sets=1)
        hist = registry.histogram("lat")
        hist.observe(1.0, flow="a")
        with pytest.warns(RuntimeWarning):
            hist.observe(9.0, flow="b")
        assert hist.count(flow="a") == 1
        assert hist.count(**OVERFLOW_LABELS) == 1


class TestBoundHandles:
    def test_bound_counter_matches_keyword_path(self):
        registry = MetricsRegistry()
        counter = registry.counter("pkts")
        handle = counter.bind(nf="a")
        handle.inc(2)
        handle.inc()
        counter.inc(5, nf="a")
        assert counter.value(nf="a") == 8
        with pytest.raises(ValueError):
            handle.inc(-1)

    def test_bound_handles_survive_reset(self):
        registry = MetricsRegistry()
        counter = registry.counter("pkts")
        gauge = registry.gauge("depth")
        hist = registry.histogram("lat")
        bound_counter = counter.bind(nf="a")
        bound_gauge = gauge.bind(q="x")
        bound_hist = hist.bind(op="get")
        bound_counter.inc(1)
        registry.reset()
        bound_counter.inc(3)
        bound_gauge.set(2.0)
        bound_gauge.add(1.0)
        bound_hist.observe(4.0)
        assert counter.value(nf="a") == 3
        assert gauge.value(q="x") == 3.0
        assert hist.count(op="get") == 1

    def test_bound_raw_histogram(self):
        hist = Histogram("lat")
        handle = hist.bind(op="get")
        handle.observe(1.0)
        handle.observe(2.0)
        assert hist.values(op="get") == [1.0, 2.0]


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.names() == ["x"]

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_reset_clears_series_keeps_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x").inc(3)
        registry.histogram("y").observe(1.0)
        registry.reset()
        assert registry.names() == ["x", "y"]
        assert registry.counter("x").total() == 0
        assert registry.histogram("y").count() == 0


class TestPullCollectors:
    """Hot paths accumulate plain ints; readers pull them on demand."""

    def test_collector_folds_latest_total_on_every_read(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.add_collector(
            "ext", lambda reg: reg.counter("ext.pkts").load(
                state["n"], src="a")
        )
        state["n"] = 5
        assert registry.snapshot()["ext.pkts"]["series"] == {"src=a": 5}
        # load() overwrites — a later read reflects the new total, it
        # does not accumulate on top of the old one.
        state["n"] = 9
        assert 'ext_pkts{src="a"} 9' in registry.render_prometheus()
        assert registry.snapshot()["ext.pkts"]["series"] == {"src=a": 9}

    def test_collector_reregistration_replaces(self):
        registry = MetricsRegistry()
        registry.add_collector(
            "k", lambda reg: reg.counter("c").load(1)
        )
        registry.add_collector(
            "k", lambda reg: reg.counter("c").load(2)
        )
        assert registry.snapshot()["c"]["series"] == {"_": 2}

    def test_iteration_triggers_collection(self):
        registry = MetricsRegistry()
        registry.add_collector(
            "k", lambda reg: reg.counter("c").load(7)
        )
        instruments = {inst.name: inst for inst in registry}
        assert instruments["c"].value() == 7


class TestBufferConservation:
    """captured == released, measured by the obs layer itself."""

    @pytest.mark.parametrize("guarantee", ["lf", "op", "op-strong"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_controller_buffer_conserved(self, guarantee, seed):
        result = run_move_experiment(
            guarantee=guarantee, n_flows=40, seed=seed, observe=True
        )
        assert result.report.aborted is None
        metrics = result.deployment.obs.metrics
        captured = metrics.counter(
            "ctrl.move.buffered_packets_captured").total()
        released = metrics.counter(
            "ctrl.move.buffered_packets_released").total()
        assert captured > 0
        assert captured == released

    def test_dst_nf_buffer_conserved(self):
        result = run_move_experiment(guarantee="op", n_flows=40, observe=True)
        metrics = result.deployment.obs.metrics
        buffered = metrics.counter("nf.packets.buffered").value(nf="inst2")
        released = metrics.counter("nf.packets.released").value(nf="inst2")
        assert buffered > 0
        assert buffered == released

    def test_ng_move_counts_drops(self):
        result = run_move_experiment(guarantee="ng", n_flows=40, observe=True)
        metrics = result.deployment.obs.metrics
        dropped = metrics.counter("nf.packets.dropped").value(
            nf="inst1", mode="silent"
        )
        assert dropped == result.report.packets_dropped
        assert dropped > 0

    def test_chunk_accounting_matches_report(self):
        result = run_move_experiment(guarantee="lf", n_flows=25, observe=True)
        metrics = result.deployment.obs.metrics
        transferred = metrics.counter("ctrl.chunks.transferred").total()
        wire = metrics.counter("ctrl.chunks.wire_bytes").total()
        assert transferred == result.report.total_chunks
        assert wire == result.report.total_wire_bytes
