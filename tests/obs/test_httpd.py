"""ObsServer: live /metrics + /snapshot.json over a state directory."""

import json
import urllib.error
import urllib.request

import pytest

from repro.config import RunConfig
from repro.obs.httpd import PORT_FILE, ObsServer, maybe_obs_server

ENV_METRICS_PORT = "REPRO_METRICS_PORT"


def _state_dir(tmp_path):
    d = tmp_path / "state"
    d.mkdir()
    (d / "shards.jsonl").write_text(
        '{"kind":"sharded-campaign","seed":1,"n_sites":2,"n_paths":4,'
        '"n_shards":2,"duration":10.0,"version":1}\n'
        '{"i":0,"record":{"status":"done","attempts":1}}\n'
    )
    return d


def _get(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5
    ) as resp:
        return resp.status, resp.headers, resp.read()


class TestObsServer:
    def test_port_file_lifecycle(self, tmp_path):
        d = _state_dir(tmp_path)
        with ObsServer(d, port=0) as server:
            port_file = d / PORT_FILE
            assert port_file.read_text() == f"{server.port}\n"
            assert server.port > 0
        assert not port_file.exists()

    def test_metrics_scrape(self, tmp_path):
        d = _state_dir(tmp_path)
        with ObsServer(d, port=0) as server:
            status, headers, body = _get(server.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        samples = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert all(ln.startswith("repro_fleet_") for ln in samples), text
        assert 'repro_fleet_units{status="done",unit="shard"} 1' in text
        assert "repro_fleet_paths_total 4" in text

    def test_metrics_without_registry_has_fleet_gauges_only(self, tmp_path):
        with ObsServer(_state_dir(tmp_path), port=0) as server:
            _, _, body = _get(server.port, "/metrics")
        text = body.decode()
        assert "repro_fleet_paths_done 2" in text
        assert "repro_warnings" not in text

    def test_snapshot_json(self, tmp_path):
        with ObsServer(_state_dir(tmp_path), port=0) as server:
            status, headers, body = _get(server.port, "/snapshot.json")
            _, _, alias = _get(server.port, "/snapshot")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        snap = json.loads(body)
        assert snap["status"] == "RUNNING"
        assert snap["paths_done"] == 2
        assert json.loads(alias)["status"] == "RUNNING"

    def test_scrape_sees_appended_records(self, tmp_path):
        d = _state_dir(tmp_path)
        with ObsServer(d, port=0) as server:
            _, _, before = _get(server.port, "/snapshot.json")
            with (d / "shards.jsonl").open("a") as fh:
                fh.write('{"i":1,"record":{"status":"done","attempts":1}}\n')
            _, _, after = _get(server.port, "/snapshot.json")
        assert json.loads(before)["status"] == "RUNNING"
        assert json.loads(after)["status"] == "COMPLETE"

    def test_unknown_path_is_404(self, tmp_path):
        with ObsServer(_state_dir(tmp_path), port=0) as server:
            try:
                _get(server.port, "/nope")
                raise AssertionError("expected HTTP 404")
            except urllib.error.HTTPError as err:
                assert err.code == 404


class TestEnvGate:
    def test_port_parsing(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_METRICS_PORT, raising=False)
        assert RunConfig.from_env().metrics_port is None
        monkeypatch.setenv(ENV_METRICS_PORT, "")
        assert RunConfig.from_env().metrics_port is None
        monkeypatch.setenv(ENV_METRICS_PORT, " 9100 ")
        assert RunConfig.from_env().metrics_port == 9100
        # A typo fails loudly instead of silently serving nothing.
        monkeypatch.setenv(ENV_METRICS_PORT, "not-a-port")
        with pytest.raises(ValueError, match=ENV_METRICS_PORT):
            maybe_obs_server(tmp_path)

    def test_maybe_obs_server_unset(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_METRICS_PORT, raising=False)
        assert maybe_obs_server(tmp_path) is None

    def test_maybe_obs_server_no_state_dir(self, monkeypatch):
        monkeypatch.setenv(ENV_METRICS_PORT, "0")
        assert maybe_obs_server(None) is None

    def test_maybe_obs_server_starts_and_serves(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_METRICS_PORT, "0")
        d = _state_dir(tmp_path)
        server = maybe_obs_server(d)
        assert server is not None
        try:
            port = int((d / PORT_FILE).read_text())
            assert port == server.port
            status, _, _ = _get(port, "/metrics")
            assert status == 200
        finally:
            server.close()
