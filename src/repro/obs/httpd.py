"""Opt-in metrics endpoint: ``/metrics`` + ``/snapshot.json`` over stdlib HTTP.

``--metrics-port N`` on the campaign/zoo commands starts one
:class:`ObsServer` in a daemon thread for the duration of the run.  It
serves:

* ``GET /metrics`` — Prometheus text exposition 0.0.4: the
  ``repro_fleet_*`` gauges derived from the live
  :class:`~repro.obs.aggregate.FleetSnapshot`
  (:func:`fleet_exposition`);
* ``GET /snapshot.json`` — the full snapshot as JSON (what ``repro
  top`` renders), for the results service and ad-hoc curl debugging.

Port ``0`` asks the kernel for a free port; whatever port is bound is
written to ``metrics-port`` inside the state directory so an outside
observer (a scraper, a dashboard) can discover the endpoint
without racing the bind.  Everything is stdlib ``http.server`` — no new
dependencies — and the server thread never blocks or fails the run:
scrape-side errors are answered with 500s, not raised into the
campaign.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Optional, Union

from repro.config import RunConfig
from repro.obs.aggregate import FleetAggregator, FleetSnapshot
from repro.obs.metrics import prometheus_metric_name

__all__ = [
    "ObsServer",
    "PORT_FILE",
    "fleet_exposition",
    "maybe_obs_server",
]

#: File inside the state directory naming the bound metrics port.
PORT_FILE = "metrics-port"

_STATUS_CODES = {"EMPTY": 0, "RUNNING": 1, "COMPLETE": 2, "DEGRADED": 3}


def fleet_exposition(snap: FleetSnapshot) -> str:
    """The ``repro_fleet_*`` gauges for one snapshot, Prometheus text format."""
    lines: list[str] = []

    def gauge(name: str, value) -> None:
        full = prometheus_metric_name(name, prefix="repro_fleet")
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {value}")

    counts = snap.counts
    unit = snap.unit_name
    units_metric = prometheus_metric_name("units", prefix="repro_fleet")
    lines.append(f"# TYPE {units_metric} gauge")
    for status in sorted(counts):
        lines.append(
            f'{units_metric}{{status="{status}",unit="{unit}"}} '
            f"{counts[status]}"
        )
    gauge("paths_total", snap.paths_total)
    gauge("paths_done", snap.paths_done)
    gauge("retries", snap.retries)
    gauge("torn_records", snap.torn_records)
    gauge("status", _STATUS_CODES.get(snap.status, 0))
    if snap.rate is not None:
        gauge("paths_per_second", repr(float(snap.rate)))
    if snap.eta_s is not None:
        gauge("eta_seconds", repr(float(snap.eta_s)))
    return "\n".join(lines) + "\n"


class ObsServer:
    """Background HTTP exposition for one run's state directory.

    The handler re-polls a private :class:`FleetAggregator` per request
    (incremental, O(new bytes)), so scrapes always see the latest
    appended records without the run pushing anything.
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        # http.server drags in http.client, email and socketserver; only a
        # process that serves pays for them.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self.state_dir = Path(state_dir)
        self._agg = FleetAggregator(self.state_dir)
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # quiet: no stderr spam
                pass

            def _send(self, code: int, body: bytes, ctype: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    path = self.path.split("?", 1)[0]
                    if path == "/metrics":
                        body = fleet_exposition(
                            server.snapshot()).encode("utf-8")
                        self._send(
                            200, body,
                            "text/plain; version=0.0.4; charset=utf-8",
                        )
                    elif path in ("/snapshot.json", "/snapshot"):
                        body = json.dumps(
                            server.snapshot().to_dict(), sort_keys=True
                        ).encode("utf-8")
                        self._send(200, body, "application/json")
                    else:
                        self._send(404, b"not found\n", "text/plain")
                except BrokenPipeError:  # scraper went away mid-reply
                    pass
                except Exception as exc:  # noqa: BLE001 - never kill the run
                    try:
                        self._send(
                            500, f"error: {exc}\n".encode(), "text/plain"
                        )
                    except OSError:
                        pass

        self._httpd = ThreadingHTTPServer((host, int(port)), Handler)
        self._httpd.daemon_threads = True
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-httpd",
            daemon=True,
        )

    # -- payloads --------------------------------------------------------
    def snapshot(self) -> FleetSnapshot:
        """The current fleet snapshot (incremental poll, thread-safe)."""
        with self._lock:
            return self._agg.poll(now=time.time())

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ObsServer":
        """Bind announced: write the port file, start serving."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        (self.state_dir / PORT_FILE).write_text(f"{self.port}\n")
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and remove the port-file advertisement."""
        self._httpd.shutdown()
        self._httpd.server_close()
        try:
            (self.state_dir / PORT_FILE).unlink()
        except OSError:
            pass

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def maybe_obs_server(state_dir: Optional[Union[str, Path]]) -> Optional[ObsServer]:
    """Start an :class:`ObsServer` when ``REPRO_METRICS_PORT`` asks for one
    (:class:`repro.config.RunConfig`'s ``metrics_port``; ``0`` =
    auto-assign, read the bound port back from the ``metrics-port`` file).

    Returns the started server (caller closes it), or ``None`` when the
    knob is unset or there is no state directory to aggregate.
    """
    port = RunConfig.from_env().metrics_port
    if port is None or state_dir is None:
        return None
    return ObsServer(state_dir, port=port).start()
