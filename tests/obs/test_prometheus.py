"""Prometheus text exposition: name sanitization and the fleet gauges."""

import re

from repro.obs.aggregate import FleetAggregator
from repro.obs.httpd import fleet_exposition
from repro.obs.metrics import prometheus_metric_name

_METRIC_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_SAMPLE_RE = re.compile(
    r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)\Z"
)


def assert_spec_valid(text: str) -> list[tuple[str, str, str]]:
    """Validate exposition text; returns (name, labels, value) samples."""
    assert text.endswith("\n")
    samples = []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert _METRIC_RE.match(name), line
            assert kind in ("counter", "gauge", "histogram"), line
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        for pair in filter(None, (m.group(3) or "").split(",")):
            label = pair.split("=", 1)[0]
            assert _LABEL_RE.match(label), line
        samples.append((m.group(1), m.group(2) or "", m.group(4)))
    return samples


class TestNameSanitization:
    def test_dots_and_dashes_become_underscores(self):
        assert (
            prometheus_metric_name("link.bottleneck-fwd.drops")
            == "link_bottleneck_fwd_drops"
        )

    def test_prefix_joined_with_single_underscore(self):
        assert prometheus_metric_name("drops", prefix="repro") == "repro_drops"

    def test_leading_digit_guarded(self):
        assert prometheus_metric_name("9lives") == "_9lives"


class TestFleetGauges:
    def test_snapshot_gauges(self, tmp_path):
        d = tmp_path / "state"
        d.mkdir()
        (d / "shards.jsonl").write_text(
            '{"kind":"sharded-campaign","seed":1,"n_sites":2,'
            '"n_paths":4,"n_shards":2,"duration":10.0,"version":1}\n'
            '{"i":0,"record":{"status":"done","attempts":1}}\n'
        )
        snap = FleetAggregator(d).poll(now=None)
        text = fleet_exposition(snap)
        assert_spec_valid(text)
        assert "__" not in text.replace("\\_", "")  # no double-underscore names
        assert 'repro_fleet_units{status="done",unit="shard"} 1' in text
        assert 'repro_fleet_units{status="pending",unit="shard"} 1' in text
        assert "repro_fleet_paths_total 4" in text
        assert "repro_fleet_paths_done 2" in text
        assert "repro_fleet_status 1" in text  # RUNNING

    def test_rate_and_eta_emitted_when_known(self, tmp_path):
        d = tmp_path / "state"
        d.mkdir()
        (d / "shards.jsonl").write_text(
            '{"kind":"sharded-campaign","seed":1,"n_sites":2,'
            '"n_paths":4,"n_shards":2,"duration":10.0,"version":1}\n'
        )
        (d / "events.jsonl").write_text(
            '{"kind":"campaign.start","wall":0.0}\n'
            '{"kind":"shard.done","shard":0,"paths":2,"wall":4.0}\n'
        )
        snap = FleetAggregator(d).poll(now=None)
        text = fleet_exposition(snap)
        assert "repro_fleet_paths_per_second 0.5" in text
        assert "repro_fleet_eta_seconds 4.0" in text
