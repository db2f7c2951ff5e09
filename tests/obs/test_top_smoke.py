"""Fleet-observability smoke over the CLI, the way an operator drives it.

A seeded mini-campaign runs as a real ``python -m repro campaign`` child
with ``--metrics-port 0``.  While it runs, the test discovers the bound
port from the state directory and scrapes ``/metrics`` and
``/snapshot.json``; then the child must exit 0 and withdraw its port
file, and ``repro top --once`` must read the finished state directory as
COMPLETE with zero torn records.
"""

import io
import json
import subprocess
import sys
import time
import urllib.request

from repro.obs.aggregate import FleetAggregator
from repro.obs.console import run_top
from repro.obs.httpd import PORT_FILE
from tests.conftest import cli_env

SITES, SHARDS, PATHS = 30, 8, 400

#: Generous: the whole campaign takes ~2.5 s on a laptop core.
DEADLINE_S = 120.0


def _get(port: int, path: str) -> bytes:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        assert resp.status == 200, f"GET {path}: HTTP {resp.status}"
        return resp.read()


def test_campaign_serves_metrics_and_top_reads_it_back(tmp_path):
    state = tmp_path / "campaign"
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "--sites", str(SITES),
         "--shards", str(SHARDS), "--paths", str(PATHS), "--seed", "2006",
         "--state-dir", str(state), "--metrics-port", "0"],
        env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + DEADLINE_S
    try:
        # Live scrape: the port is advertised before the first shard runs.
        port_file = state / PORT_FILE
        while not port_file.exists() and child.poll() is None:
            assert time.monotonic() < deadline, "no metrics port advertised"
            time.sleep(0.01)
        assert port_file.exists(), child.communicate()[1]
        port = int(port_file.read_text())
        metrics = _get(port, "/metrics").decode()
        samples = [ln for ln in metrics.splitlines() if not ln.startswith("#")]
        assert samples and all(ln.startswith("repro_fleet_") for ln in samples), metrics
        assert 'unit="shard"' in metrics, metrics
        # A fresh campaign reads "unknown" until the ledger meta line lands.
        snap = json.loads(_get(port, "/snapshot.json"))
        while snap["kind"] != "campaign" and child.poll() is None:
            assert time.monotonic() < deadline, snap
            time.sleep(0.01)
            snap = json.loads(_get(port, "/snapshot.json"))
        assert snap["kind"] == "campaign", snap
        assert snap["status"] in ("RUNNING", "COMPLETE"), snap
        assert snap["paths_total"] == PATHS, snap

        # Clean finish: exit 0, port withdrawn, the bus feed complete.
        _, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert child.returncode == 0, err
    assert "[campaign:" in err, err
    assert not port_file.exists()
    kinds = {json.loads(ln)["kind"]
             for ln in (state / "events.jsonl").read_text().splitlines()}
    assert {"campaign.start", "shard.done", "campaign.reduced"} <= kinds, kinds

    # Post-mortem console over the finished state directory.
    out = io.StringIO()
    assert run_top(str(state), once=True, stream=out) == 0, out.getvalue()
    assert "COMPLETE" in out.getvalue()
    assert f"paths {PATHS}/{PATHS} (100.0%)" in out.getvalue()
    snap = FleetAggregator(state).poll(now=None)
    assert snap.status == "COMPLETE"
    assert snap.torn_records == 0
    assert snap.counts["done"] == SHARDS
