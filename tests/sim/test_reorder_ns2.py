"""Tests for the link's reorder lag and NS-2 trace interop."""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.sim.link import Link
from repro.sim.node import Host
from repro.sim.packet import Packet
from repro.sim.trace import DropTrace
from repro.sim.tracefile import export_ns2_drops, import_ns2_drops
from repro.tcp import NewRenoSender, SackSender, TcpSink


class TestReorderingLink:
    """``Link(rng, reorder_prob, extra_delay)``: a random subset of
    deliveries arrives ``extra_delay`` late, so later packets overtake."""

    def _run(self, prob, n=500, seed=0):
        sim = Simulator()
        host = Host(sim)
        got = []

        class Sink:
            def receive(self, pkt):
                got.append(pkt.seq)

        host.attach(1, Sink())
        link = Link(
            sim, host, 8e6, 0.001, rng=np.random.default_rng(seed),
            reorder_prob=prob, extra_delay=0.01,
        )
        for i in range(n):
            sim.schedule(i * 0.001, link.send, Packet(1, i, 1000))
        sim.run()
        return got, link

    def test_zero_probability_keeps_fifo(self):
        got, link = self._run(0.0)
        assert got == sorted(got)
        assert link.reordered == 0

    def test_positive_probability_reorders(self):
        got, link = self._run(0.05)
        assert link.reordered > 0
        out_of_order = sum(1 for a, b in zip(got, got[1:]) if a > b)
        assert out_of_order > 0
        assert sorted(got) == list(range(500))  # nothing lost

    def test_validation(self):
        sim = Simulator()
        host = Host(sim)
        with pytest.raises(ValueError):
            Link(sim, host, 1e6, 0.001, rng=np.random.default_rng(0), reorder_prob=1.5)
        with pytest.raises(ValueError):
            Link(sim, host, 1e6, 0.001, rng=np.random.default_rng(0), extra_delay=0.0)
        with pytest.raises(ValueError):  # a draw needs a generator
            Link(sim, host, 1e6, 0.001, reorder_prob=0.5)

    @pytest.mark.parametrize("cls,sack", [(NewRenoSender, False), (SackSender, True)])
    def test_tcp_survives_reordering(self, cls, sack):
        """Reordering triggers spurious dupACK runs; the transfer must
        still complete correctly (possibly with spurious retransmits)."""
        sim = Simulator()
        snd_host, rcv_host = Host(sim), Host(sim)
        fwd = Link(
            sim, rcv_host, 50e6, 0.01, rng=np.random.default_rng(1),
            reorder_prob=0.02, extra_delay=0.004,
        )
        rev = Link(sim, snd_host, 50e6, 0.01)
        snd_host.uplink = fwd
        rcv_host.uplink = rev
        done = []
        snd = cls(sim, snd_host, 1, rcv_host.node_id, total_packets=2000,
                  on_complete=done.append)
        sink = TcpSink(sim, rcv_host, 1, snd_host.node_id, sack=sack)
        snd.start()
        sim.run(until=120.0)
        assert done, f"{cls.variant} did not survive reordering"
        assert sink.stats.bytes_received >= 2000 * 1000
        # No packet was ever dropped, so any retransmission was spurious —
        # reordering masquerading as loss, exactly the failure mode.
        assert fwd.queue.dropped == 0


class TestNs2Interop:
    def _trace(self):
        tr = DropTrace("x")
        tr.record(Packet(3, 7, 1000), 0.5)
        tr.record(Packet(4, 9, 400), 0.75, marked=True)  # excluded
        tr.record(Packet(3, 8, 1000), 1.25)
        return tr

    def test_export_format(self, tmp_path):
        p = export_ns2_drops(self._trace(), tmp_path / "out.tr")
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 2  # mark excluded
        parts = lines[0].split()
        assert parts[0] == "d"
        assert float(parts[1]) == 0.5
        assert int(parts[5]) == 1000
        assert int(parts[7]) == 3
        assert int(parts[10]) == 7

    def test_roundtrip(self, tmp_path):
        p = export_ns2_drops(self._trace(), tmp_path / "out.tr")
        loaded = import_ns2_drops(p)
        np.testing.assert_allclose(loaded.times, [0.5, 1.25])
        np.testing.assert_array_equal(loaded.flow_ids, [3, 3])
        np.testing.assert_array_equal(loaded.seqs, [7, 8])
        assert len(loaded) == 2

    def test_import_skips_other_events(self, tmp_path):
        f = tmp_path / "mixed.tr"
        f.write_text(
            "+ 0.1 0 1 tcp 1000 ---- 1 0.0 1.0 0 0\n"
            "r 0.2 0 1 tcp 1000 ---- 1 0.0 1.0 0 0\n"
            "d 0.3 0 1 tcp 1000 ---- 1 0.0 1.0 5 1\n"
        )
        loaded = import_ns2_drops(f)
        assert len(loaded) == 1
        assert loaded.seqs[0] == 5

    def test_import_rejects_corrupt_drop_line(self, tmp_path):
        f = tmp_path / "bad.tr"
        f.write_text("d 0.3 0 1 tcp\n")
        with pytest.raises(ValueError):
            import_ns2_drops(f)

    def test_imported_trace_feeds_analysis(self, tmp_path):
        from repro.core import loss_intervals

        p = export_ns2_drops(self._trace(), tmp_path / "t.tr")
        loaded = import_ns2_drops(p)
        np.testing.assert_allclose(loss_intervals(loaded.drop_times()), [0.75])
