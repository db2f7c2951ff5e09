"""Unit tests for metric primitives and the registry JSON export."""

import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, atomic_write_text


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("drops")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        c = Counter("drops")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_explicit_set(self):
        g = Gauge("depth")
        g.set(3.5)
        assert g.value == 3.5

    def test_callback_gauge_reads_live_state(self):
        state = {"x": 1}
        g = Gauge("depth", fn=lambda: state["x"])
        assert g.value == 1.0
        state["x"] = 7
        assert g.value == 7.0

    def test_callback_gauge_rejects_set(self):
        g = Gauge("depth", fn=lambda: 0)
        with pytest.raises(ValueError):
            g.set(1.0)


class TestHistogram:
    def test_bins_and_overflow(self):
        h = Histogram("occ", edges=[0.0, 0.5, 1.0])
        for v in (0.1, 0.2, 0.6, 1.0, 2.0):
            h.observe(v)
        assert h.counts == [2, 1]
        assert h.overflow == 2  # 1.0 lands at the last edge -> overflow
        assert h.n == 5
        assert h.mean == pytest.approx((0.1 + 0.2 + 0.6 + 1.0 + 2.0) / 5)

    def test_below_first_edge_lands_in_first_bin(self):
        h = Histogram("occ", edges=[0.0, 1.0])
        h.observe(-0.5)
        assert h.counts == [1]
        assert h.overflow == 0

    def test_empty_mean_is_nan(self):
        h = Histogram("occ", edges=[0.0, 1.0])
        assert math.isnan(h.mean)
        assert h.as_dict()["mean"] is None

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", edges=[0.0])
        with pytest.raises(ValueError):
            Histogram("bad", edges=[0.0, 1.0, 1.0])


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.gauge("b") is r.gauge("b")
        assert r.histogram("c", [0, 1]) is r.histogram("c", [0, 1])
        assert len(r) == 3

    def test_cross_kind_name_reuse_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError):
            r.gauge("x")
        with pytest.raises(ValueError):
            r.histogram("x", [0, 1])

    def test_gauge_callback_rebinds_to_fresh_component(self):
        r = MetricsRegistry()
        r.gauge("q", fn=lambda: 1)
        r.gauge("q", fn=lambda: 2)  # same name, new component
        assert r.as_dict()["gauges"]["q"] == 2.0

    def test_as_dict_materializes_everything(self):
        r = MetricsRegistry("run1")
        r.counter("c").inc(3)
        r.gauge("g").set(0.5)
        r.histogram("h", [0, 1]).observe(0.2)
        r.warn("something odd")
        r.sections["extra"] = {"k": 1}
        d = r.as_dict()
        assert d["name"] == "run1"
        assert d["counters"] == {"c": 3}
        assert d["gauges"] == {"g": 0.5}
        assert d["histograms"]["h"]["counts"] == [1]
        assert d["warnings"] == ["something odd"]
        assert d["extra"] == {"k": 1}


class TestAtomicWriteText:
    def test_creates_parents_and_returns_path(self, tmp_path):
        p = atomic_write_text(tmp_path / "a" / "b" / "out.txt", "hi")
        assert p.read_text() == "hi"

    def test_failed_write_preserves_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "old")

        def boom(fd):
            raise OSError("disk gone")

        monkeypatch.setattr("repro.obs.metrics.os.fsync", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "new")
        # Old contents intact, and the temp file was cleaned up.
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
