"""Tests of the benchmark's own helpers: span arithmetic, call
classification and computed convolution costs.

    python -m pytest bench/test_bench_helpers.py
"""

import time
import types

import numpy as np
import pytest

import hostspeed
import layers
import workloads
from tracing import Span, Tracer, patch, self_times, subtree


def spans_of(*rows):
    return [Span(name, parent, start, end) for name, parent, start, end in rows]


class TestSelfTimes:
    def test_parent_minus_children(self):
        spans = spans_of(("bench.train", None, 0, 100),
                         ("trainer.train", 0, 10, 90),
                         ("conv3d.forward", 1, 20, 30),
                         ("conv3d.dsigma", 1, 40, 70))
        st = self_times(spans, range(4))
        assert st == {0: 20, 1: 40, 2: 10, 3: 30}
        assert sum(st.values()) == spans[0].end - spans[0].start

    def test_only_direct_children_are_subtracted(self):
        spans = spans_of(("a.x", None, 0, 50), ("b.y", 0, 0, 40), ("c.z", 1, 0, 40))
        assert self_times(spans, range(3)) == {0: 10, 1: 0, 2: 40}

    def test_subtree_stops_at_next_root(self):
        spans = spans_of(("bench.eval", None, 0, 10), ("trainer.evaluate", 0, 1, 9),
                         ("bench.eval", None, 11, 20), ("trainer.evaluate", 2, 12, 19))
        assert subtree(spans, 0) == [0, 1]
        assert subtree(spans, 2) == [2, 3]


class TestTracer:
    def test_wrapped_calls_nest_and_patch_restores(self):
        mod = types.SimpleNamespace()

        def inner(x):
            return x + 1

        def outer(x):
            return mod.inner(x) * 2

        mod.inner, mod.outer = inner, outer
        tracer = Tracer()
        wrappers = {inner: tracer.wrap(inner, "m.inner",
                                       lambda a, k, r: {"arg": a[0], "out": r}),
                    outer: tracer.wrap(outer, lambda a, k: f"m.outer{a[0]}")}
        with patch([mod], wrappers), tracer.span("bench.unit"):
            assert mod.outer(3) == 8
        assert mod.inner is inner and mod.outer is outer
        spans = tracer.spans()
        assert [(s.name, s.parent) for s in spans] == [
            ("bench.unit", None), ("m.outer3", 0), ("m.inner", 1)]
        assert spans[2].attrs == {"arg": 3, "out": 4}
        assert all(s.start <= s.end for s in spans)
        assert spans[0].start <= spans[1].start <= spans[2].start
        assert spans[2].end <= spans[1].end <= spans[0].end


class TestConvolutionCounts:
    def test_call_classification(self):
        p = np.ones(5) / 5
        assert layers.conv_call_kind(p) == "forward"
        assert layers.conv_call_kind((p, p, p)) == "dsigma"
        assert layers.conv_call_kind([p, p, p]) == "dsigma"

    def test_forward_call_runs_three_passes(self):
        assert layers.conv_passes(np.ones(5)) == [5, 5, 5]

    def test_single_tap_axes_run_no_pass(self):
        assert layers.conv_passes(np.ones(1)) == []
        assert layers.conv_passes((np.ones(1), np.ones(3), np.ones(1))) == [3]

    def test_cost_of_one_pass(self):
        # 24^3 volume, 5 taps: one multiply-add per tap per voxel and one
        # float64 read plus one write per voxel
        assert layers.pass_cost(5, 24 ** 3) == (2 * 5 * 13824, 16 * 13824)

    def test_span_attributes_of_a_dsigma_call(self):
        x = np.zeros((24, 24, 24))
        p, dp = np.ones(5), np.ones(5)
        attrs = layers._conv_attrs((x, (dp, p, p)), {}, None)
        assert attrs == {"passes": 3, "flops": 3 * 2 * 5 * 13824,
                         "bytes": 3 * 16 * 13824}
        assert layers._conv_name((x, (dp, p, p)), {}) == "conv3d.dsigma"
        assert layers._conv_name((x, p), {}) == "conv3d.forward"


class TestPerLayerMetrics:
    def spans(self):
        # two traced train repeats and one eval repeat, times in ns
        rows = []
        for t0 in (0, 1000):
            root = len(rows)
            rows.append(Span("bench.train", None, t0, t0 + 400))
            rows.append(Span("trainer.train", root, t0 + 10, t0 + 390,
                             {"epochs": 12, "best_epoch": 2}))
            rows.append(Span("conv3d.forward", root + 1, t0 + 20, t0 + 120,
                             {"passes": 3, "flops": 30, "bytes": 48}))
            rows.append(Span("conv3d.dsigma", root + 1, t0 + 130, t0 + 330,
                             {"passes": 3, "flops": 60, "bytes": 48}))
        root = len(rows)
        rows.append(Span("bench.eval", None, 2000, 2100))
        rows.append(Span("volume_io.read_volume", root, 2010, 2030, {"bytes": 7}))
        rows.append(Span("classifier.forward", root, 2040, 2090, {"rows": 2}))
        return rows

    def test_one_repeat_per_phase_summed_over_phases(self):
        phases = layers.phase_quantities(self.spans())
        assert set(phases) == {"bench.train", "bench.eval"}
        m = layers.per_layer_metrics(phases, overhead_s=1e-8, untraced_s=4e-7)
        assert m["conv3d.forward_calls"] == 1 and m["conv3d.dsigma_calls"] == 1
        assert m["conv3d.passes"] == 6 and m["conv3d.flops_computed"] == 90
        assert m["conv3d.gflops"] == pytest.approx(90 / 300e-9 / 1e9)
        assert m["trainer.epochs"] == 12 and m["trainer.best_epoch"] == 2
        assert m["volume_io.useful_frac"] == 2.0
        assert m["trace.overhead_frac"] == pytest.approx(0.025)
        layer_self = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
        assert layer_self + m["bench.self_s"] == pytest.approx(m["trace.span_s"])
        assert m["trace.span_s"] == pytest.approx(500e-9)
        assert set(m) == {name for name, _ in layers.PER_LAYER}

    def test_each_phase_is_taken_from_its_median_repeat(self):
        # three train repeats whose medians, key by key, come from different
        # repeats; the figures of the 300-ns repeat must be taken whole
        rows = []
        for t0, conv, total in ((0, 250, 400), (1000, 50, 300), (2000, 100, 200)):
            rows.append(Span("bench.train", None, t0, t0 + total))
            rows.append(Span("conv3d.forward", len(rows) - 1, t0, t0 + conv,
                             {"passes": 3, "flops": 30, "bytes": 48}))
        m = layers.per_layer_metrics(layers.phase_quantities(rows), 0.0, 0.0)
        assert m["trace.span_s"] == pytest.approx(300e-9)
        assert m["conv3d.forward_s"] == pytest.approx(50e-9)
        assert m["bench.self_s"] + m["conv3d.self_s"] == pytest.approx(m["trace.span_s"])


class TestHostClock:
    def test_host_factor_is_median_reference_over_nominal(self):
        nominal = hostspeed.REF_NOMINAL_S
        assert hostspeed.host_factor([2 * nominal, 2 * nominal, 4 * nominal]) == pytest.approx(2.0)

    def test_clock_stops_during_reference_runs(self):
        clock = hostspeed.HostClock()
        wall, t = time.perf_counter(), clock.now()
        for _ in range(3):
            clock.reference()
        wall, t = time.perf_counter() - wall, clock.now() - t
        assert len(clock.refs) == 3
        assert wall - t == pytest.approx(sum(clock.refs), abs=1e-4)

    def test_tick_runs_the_reference_only_when_due(self, monkeypatch):
        clock = hostspeed.HostClock()
        clock.tick()  # never run before: due
        clock.tick()  # just ran: not due
        assert len(clock.refs) == 1
        monkeypatch.setattr(hostspeed, "REF_EVERY_S", 0.0)
        clock.tick()
        assert len(clock.refs) == 2

    def test_measure_ticks_at_volume_io_and_restores(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hostspeed, "REF_EVERY_S", 0.0)
        vol = workloads.volume_io.Volume(np.zeros((2, 2, 2)))
        original = workloads.volume_io.read_volume
        b = workloads.Bench(tmp_path, 0)
        with b.measure("setup"):
            workloads.volume_io.write_volume(vol, tmp_path / "v.vol")
            workloads.volume_io.read_volume(tmp_path / "v.vol")
        assert workloads.volume_io.read_volume is original
        assert len(b.clock.refs) == 4  # start, two ticks, end
        elapsed, = b.samples[("setup", False)]
        assert b.typical("setup") == pytest.approx(
            elapsed / hostspeed.host_factor(b.clock.refs))

    def test_traced_measure_spans_run_on_the_clock(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hostspeed, "REF_EVERY_S", 0.0)
        vol = workloads.volume_io.Volume(np.zeros((2, 2, 2)))
        workloads.volume_io.write_volume(vol, tmp_path / "v.vol")
        original = workloads.volume_io.read_volume
        clock = hostspeed.HostClock()
        b = workloads.Bench(tmp_path, 0, Tracer(clock.now_ns), clock)
        with b.measure("eval", traced=True):
            workloads.volume_io.read_volume(tmp_path / "v.vol")
        assert workloads.volume_io.read_volume is original
        spans = b.tracer.spans()
        assert [(s.name, s.parent) for s in spans] == [
            ("bench.eval", None), ("volume_io.read_volume", 0)]
        root = (spans[0].end - spans[0].start) / 1e9
        elapsed, = b.samples[("eval", True)]
        assert len(clock.refs) == 3
        assert root == pytest.approx(elapsed, abs=1e-4)

