"""Run-report generator: a self-contained Markdown/HTML flight report.

``python -m repro report <run-dir>`` (or :func:`write_report`) turns the
artifacts a telemetry-armed run leaves behind — ``manifest.json``,
``telemetry.json``, ``metrics.json``, ``spans.jsonl`` — into one
human-readable document: the run manifest (seed, scale, knobs, fault
plan), ASCII sparklines of every recorded time series (cwnd, queue
depth, link state, ...), the loss-burst raster, the per-flow throughput
table, deterministic metrics, and a span/fault summary.

**Determinism contract.**  The report is a function of the run's
*seed-determined* outputs only: every number in it derives from sim
time, packet counts, or the manifest.  Wall-clock values (span
``wall_ms``, profiler durations, events/sec) exist in the raw artifacts
but are deliberately excluded, and span/event summaries aggregate by
name rather than completion order, so two runs of the same seed emit
byte-identical reports — the property the integration tests and the
``make report`` lane assert.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.obs.bus import parse_record, read_json_tolerant
from repro.obs.metrics import atomic_write_text

__all__ = [
    "sparkline",
    "svg_sparkline",
    "generate_report",
    "generate_html_report",
    "write_report",
    "validate_report",
    "ReportError",
]

#: Unicode block elements, shortest to tallest.
_BLOCKS = "▁▂▃▄▅▆▇█"

#: Sparkline width (samples are re-binned down to this many columns).
SPARK_WIDTH = 60


class ReportError(ValueError):
    """A run directory is missing or malformed for report generation."""


def _rebin(values: Sequence[float], width: int) -> list[float]:
    """Reduce ``values`` to at most ``width`` columns by bucket-averaging."""
    vals = [float(v) for v in values]
    n = len(vals)
    if n <= width:
        return vals
    out = []
    for i in range(width):
        lo = i * n // width
        hi = max(lo + 1, (i + 1) * n // width)
        chunk = vals[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out


def sparkline(values: Sequence[float], width: int = SPARK_WIDTH) -> str:
    """Render values as a Unicode block-element sparkline.

    Flat series render as all-minimum blocks; empty input renders empty.
    """
    vals = _rebin(values, width)
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[0] * len(vals)
    top = len(_BLOCKS) - 1
    return "".join(_BLOCKS[int((v - lo) / span * top + 0.5)] for v in vals)


def svg_sparkline(
    values: Sequence[float], width: int = 240, height: int = 32
) -> str:
    """Render values as an inline SVG polyline (for the HTML report)."""
    vals = _rebin(values, SPARK_WIDTH)
    if not vals:
        return f'<svg width="{width}" height="{height}"></svg>'
    lo, hi = min(vals), max(vals)
    span = hi - lo
    n = len(vals)
    pts = []
    for i, v in enumerate(vals):
        x = 0.0 if n == 1 else i * width / (n - 1)
        y = height / 2 if span <= 0 else height - (v - lo) / span * height
        pts.append(f"{x:.1f},{y:.1f}")
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#336" stroke-width="1.5" '
        f'points="{" ".join(pts)}"/></svg>'
    )


# -- run-dir loading ----------------------------------------------------

def _load(path: Path, required: bool = False) -> Optional[dict]:
    """A run-dir JSON file as a dict; ``None`` when an optional one is
    absent.  Damage is named, never raised as a traceback."""
    obj, torn = read_json_tolerant(path)
    if torn:
        raise ReportError(f"malformed {path}: not a UTF-8 JSON object")
    if obj is None and required:
        raise ReportError(f"missing {path.name} in run dir {path.parent}")
    return obj


def _load_spans(path: Path) -> list[dict]:
    if not path.exists():
        return []
    records = []
    for i, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        rec = parse_record(line)
        if rec is None:
            raise ReportError(f"malformed {path}:{i}: not a UTF-8 JSON object")
        records.append(rec)
    return records


def _fmt(v: object) -> str:
    """Deterministic scalar formatting for table cells."""
    if isinstance(v, float):
        if v != v:  # NaN
            return "nan"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.6g}"
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


# -- section renderers --------------------------------------------------

def _render_manifest(manifest: dict, out: list[str]) -> None:
    out.append("## Run manifest")
    out.append("")
    out.append("| key | value |")
    out.append("| --- | --- |")
    for key in sorted(manifest):
        out.append(f"| {key} | `{_fmt(manifest[key])}` |")
    out.append("")


def _render_telemetry(telemetry: Optional[dict], out: list[str]) -> None:
    out.append("## Telemetry timelines")
    out.append("")
    if not telemetry or not telemetry.get("series"):
        out.append("_No time series recorded._")
        out.append("")
        return
    out.append(
        f"Sampled every {_fmt(telemetry.get('stride', 0.0))} s of sim time, "
        f"≤ {telemetry.get('max_samples', 0)} samples/series "
        "(stride-doubling decimation)."
    )
    out.append("")
    out.append("| series | n | min | mean | max | timeline |")
    out.append("| --- | --- | --- | --- | --- | --- |")
    for name in sorted(telemetry["series"]):
        s = telemetry["series"][name]
        vals = s.get("v", [])
        if vals:
            lo, hi = min(vals), max(vals)
            mean = sum(vals) / len(vals)
            spark = sparkline(vals)
        else:
            lo = hi = mean = 0.0
            spark = ""
        out.append(
            f"| `{name}` | {len(vals)} | {_fmt(lo)} | {_fmt(round(mean, 6))} "
            f"| {_fmt(hi)} | `{spark}` |"
        )
    out.append("")


def _render_raster(telemetry: Optional[dict], out: list[str]) -> None:
    out.append("## Loss-event raster")
    out.append("")
    raster = (telemetry or {}).get("raster")
    if not raster:
        out.append("_No drop trace recorded._")
        out.append("")
        return
    counts = raster.get("counts", [])
    out.append(
        f"{raster.get('total', 0)} drops in {raster.get('bins', 0)} bins of "
        f"{_fmt(raster.get('bin_width', 0.0))} s "
        f"(peak {max(counts) if counts else 0} drops/bin):"
    )
    out.append("")
    out.append(f"    {sparkline(counts, width=len(counts) or 1)}")
    out.append("")


def _render_flows(telemetry: Optional[dict], out: list[str]) -> None:
    out.append("## Per-flow throughput")
    out.append("")
    flows = (telemetry or {}).get("flows") or []
    if not flows:
        out.append("_No per-flow summaries recorded._")
        out.append("")
        return
    cols = ["flow_id", "variant", "packets_sent", "acked",
            "retransmissions", "timeouts", "goodput_mbps"]
    out.append("| " + " | ".join(cols) + " |")
    out.append("|" + " --- |" * len(cols))
    for row in sorted(flows, key=lambda r: r.get("flow_id", 0)):
        out.append(
            "| " + " | ".join(_fmt(row.get(c, "")) for c in cols) + " |"
        )
    out.append("")


def _render_metrics(metrics: Optional[dict], out: list[str]) -> None:
    out.append("## Metrics")
    out.append("")
    if not metrics:
        out.append("_No metrics recorded._")
        out.append("")
        return
    # Counters and gauges are seed-deterministic (packet/check counts,
    # occupancies); profiler sections and histograms can carry wall-clock
    # durations, so the report never includes them.
    for kind in ("counters", "gauges"):
        table = metrics.get(kind) or {}
        if not table:
            continue
        out.append(f"### {kind.capitalize()}")
        out.append("")
        out.append("| metric | value |")
        out.append("| --- | --- |")
        for name in sorted(table):
            out.append(f"| `{name}` | {_fmt(table[name])} |")
        out.append("")
    warnings = metrics.get("warnings") or []
    if warnings:
        out.append("### Warnings")
        out.append("")
        for w in warnings:
            out.append(f"- {w}")
        out.append("")
    invariants = metrics.get("invariants")
    if isinstance(invariants, dict):
        out.append("### Invariants")
        out.append("")
        out.append("| key | value |")
        out.append("| --- | --- |")
        for name in sorted(invariants):
            out.append(f"| `{name}` | {_fmt(invariants[name])} |")
        out.append("")


def _render_spans(spans: list[dict], out: list[str]) -> None:
    out.append("## Phase spans")
    out.append("")
    if not spans:
        out.append("_No span trace recorded._")
        out.append("")
        return
    # Aggregate by name so worker completion order (nondeterministic under
    # a process pool) cannot leak into the report bytes.
    span_agg: dict[str, dict] = {}
    event_agg: dict[str, int] = {}
    fault_agg: dict[str, int] = {}
    shard_fates: dict[int, dict] = {}
    for rec in spans:
        name = rec.get("name", "?")
        if rec.get("kind") == "span":
            agg = span_agg.setdefault(name, {"count": 0, "sim_time": 0.0})
            agg["count"] += 1
            t0, t1 = rec.get("sim_start"), rec.get("sim_end")
            if t0 is not None and t1 is not None:
                agg["sim_time"] += t1 - t0
        elif rec.get("kind") == "event":
            event_agg[name] = event_agg.get(name, 0) + 1
            if name.startswith("fault."):
                attrs = rec.get("attrs") or {}
                amount = attrs.get("count", 1)
                kind = name[len("fault."):]
                fault_agg[kind] = fault_agg.get(kind, 0) + int(amount)
            elif name in ("shard.done", "shard.retry", "shard.quarantined"):
                # Supervisor shard-fate events (repro.internet.supervisor):
                # the latest done/quarantined event per shard wins; retry
                # events accumulate into the retries column.
                attrs = rec.get("attrs") or {}
                sid = int(attrs.get("shard", -1))
                fate = shard_fates.setdefault(sid, {"retries": 0})
                if name == "shard.retry":
                    fate["retries"] += 1
                else:
                    fate["fate"] = name.split(".", 1)[1]
                    fate["attempts"] = int(attrs.get("attempts", 1))
    out.append("| span | count | sim time (s) |")
    out.append("| --- | --- | --- |")
    for name in sorted(span_agg):
        agg = span_agg[name]
        out.append(
            f"| `{name}` | {agg['count']} | {_fmt(round(agg['sim_time'], 6))} |"
        )
    out.append("")
    if event_agg:
        out.append("### Events")
        out.append("")
        out.append("| event | count |")
        out.append("| --- | --- |")
        for name in sorted(event_agg):
            out.append(f"| `{name}` | {event_agg[name]} |")
        out.append("")
    if fault_agg:
        out.append("### Fault injections")
        out.append("")
        out.append("| fault | injections |")
        out.append("| --- | --- |")
        for kind in sorted(fault_agg):
            out.append(f"| `{kind}` | {fault_agg[kind]} |")
        out.append("")
    if shard_fates:
        done = sum(
            1 for f in shard_fates.values() if f.get("fate") == "done"
        )
        quarantined = sum(
            1 for f in shard_fates.values() if f.get("fate") == "quarantined"
        )
        retried = sum(1 for f in shard_fates.values() if f["retries"] > 0)
        out.append("### Shard fates")
        out.append("")
        out.append(
            f"{done} done / {retried} retried / {quarantined} quarantined"
        )
        out.append("")
        out.append("| shard | fate | attempts | retries |")
        out.append("| --- | --- | --- | --- |")
        for sid in sorted(shard_fates):
            fate = shard_fates[sid]
            out.append(
                f"| {sid} | {fate.get('fate', 'pending')} "
                f"| {fate.get('attempts', 1)} | {fate['retries']} |"
            )
        out.append("")


# -- public API ---------------------------------------------------------

def generate_report(run_dir: Union[str, Path]) -> str:
    """Render the Markdown flight report for ``run_dir``.

    Requires ``manifest.json``; every other artifact degrades to an
    explicit "not recorded" section so partial runs still report.
    """
    d = Path(run_dir)
    if not d.is_dir():
        raise ReportError(f"run dir does not exist: {d}")
    manifest = _load(d / "manifest.json", required=True)
    telemetry = _load(d / "telemetry.json")
    metrics = _load(d / "metrics.json")
    spans = _load_spans(d / "spans.jsonl")

    name = manifest.get("name", d.name)
    out: list[str] = [f"# Flight report: {name}", ""]
    for render, data, path in (
        (_render_manifest, manifest, "manifest.json"),
        (_render_telemetry, telemetry, "telemetry.json"),
        (_render_raster, telemetry, "telemetry.json"),
        (_render_flows, telemetry, "telemetry.json"),
        (_render_metrics, metrics, "metrics.json"),
        (_render_spans, spans, "spans.jsonl"),
    ):
        try:
            render(data, out)
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:  # wrong-schema content in a JSON object
            raise ReportError(
                f"malformed {d / path}: {type(exc).__name__}: {exc}"
            ) from None
    return "\n".join(out).rstrip("\n") + "\n"


def generate_html_report(run_dir: Union[str, Path]) -> str:
    """Render a self-contained HTML report (inline SVG sparklines)."""
    d = Path(run_dir)
    md = generate_report(d)  # validates the dir and gives us the body
    telemetry = _load(d / "telemetry.json")
    manifest = _load(d / "manifest.json", required=True)
    rows = []
    for name in sorted((telemetry or {}).get("series") or {}):
        vals = telemetry["series"][name].get("v", [])
        rows.append(
            f"<tr><td><code>{_html.escape(name)}</code></td>"
            f"<td>{svg_sparkline(vals)}</td></tr>"
        )
    title = _html.escape(str(manifest.get("name", d.name)))
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>Flight report: {title}</title>"
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse}td,th{border:1px solid #ccc;"
        "padding:2px 8px}</style></head><body>"
        f"<h1>Flight report: {title}</h1>"
        "<h2>Timelines</h2><table>" + "".join(rows) + "</table>"
        "<h2>Full report</h2><pre>" + _html.escape(md) + "</pre>"
        "</body></html>\n"
    )


def write_report(
    run_dir: Union[str, Path], html: bool = False
) -> Path:
    """Generate and atomically write ``report.md`` (and optionally
    ``report.html``) into ``run_dir``; returns the Markdown path."""
    d = Path(run_dir)
    md_path = atomic_write_text(d / "report.md", generate_report(d))
    if html:
        atomic_write_text(d / "report.html", generate_html_report(d))
    return md_path


#: Section headers every well-formed report must contain, in order.
_REQUIRED_SECTIONS = (
    "# Flight report:",
    "## Run manifest",
    "## Telemetry timelines",
    "## Loss-event raster",
    "## Per-flow throughput",
    "## Metrics",
    "## Phase spans",
)


def validate_report(text: str) -> None:
    """Raise :class:`ReportError` unless ``text`` is a well-formed report
    containing every required section in order."""
    pos = 0
    for section in _REQUIRED_SECTIONS:
        found = text.find(section, pos)
        if found < 0:
            raise ReportError(f"report missing section {section!r}")
        pos = found + len(section)
