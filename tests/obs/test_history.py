"""``repro history``: cross-run health timeline folding."""

import html
import json
import shutil
from pathlib import Path

from repro.obs.aggregate import FleetAggregator
from repro.obs.history import (
    collect_history,
    generate_history,
    main,
)

#: Trimmed `python3 benchmarks/e2e/run.py --smoke --out ...` record.
FIXTURE = Path(__file__).parent / "fixtures" / "ledger_smoke.json"
WORKLOADS = list(json.loads(FIXTURE.read_text())["workloads"])


def _ledger_file(root, name, drop=()):
    """Copy the fixture to ``root/ledger/name`` minus the ``drop`` workloads."""
    doc = json.loads(FIXTURE.read_text())
    for workload in drop:
        del doc["workloads"][workload]
    (root / "ledger").mkdir(exist_ok=True)
    (root / "ledger" / name).write_text(json.dumps(doc))


def _run_dir(root, name, warnings=(), report=True):
    d = root / "runs" / name
    d.mkdir(parents=True)
    (d / "manifest.json").write_text(json.dumps(
        {"name": "table1", "seed": 42, "duration": 1.5, "env": {}}
    ))
    if warnings:
        (d / "metrics.json").write_text(json.dumps(
            {"warnings": list(warnings)}
        ))
    if report:
        (d / "report.md").write_text("# r\n")


def _fleet_dir(root, name, quarantine=False):
    d = root / name
    d.mkdir(parents=True)
    lines = [
        '{"kind":"sharded-campaign","seed":1,"n_sites":2,"n_paths":4,'
        '"n_shards":2,"duration":10.0,"version":1}',
        '{"i":0,"record":{"status":"done","attempts":1}}',
    ]
    fate = (
        '{"i":1,"record":{"status":"quarantined","attempts":3,'
        '"error":"WorkerDied: signal SIGKILL"}}'
        if quarantine
        else '{"i":1,"record":{"status":"done","attempts":1}}'
    )
    lines.append(fate)
    (d / "shards.jsonl").write_text("\n".join(lines) + "\n")


class TestCollect:
    def test_empty_root(self, tmp_path):
        model = collect_history(tmp_path)
        assert model["ledger"] == []
        assert model["runs"] == []
        assert model["fleets"] == []
        assert model["torn_records"] == 0

    def test_ledger_records_in_filename_order(self, tmp_path):
        for name in ("pr20.json", "pr14.json", "pr16.json"):
            _ledger_file(tmp_path, name)
        model = collect_history(tmp_path)
        assert [r["file"] for r in model["ledger"]] == [
            "pr14.json", "pr16.json", "pr20.json"
        ]
        first = model["ledger"][0]
        assert (first["size"], first["seed"]) == ("smoke", 1)
        assert list(first["wall_s"]) == WORKLOADS
        assert all(v > 0 for v in first["wall_s"].values())

    def test_torn_and_foreign_ledger_files_skipped_and_counted(self, tmp_path):
        _ledger_file(tmp_path, "a.json")
        (tmp_path / "ledger" / "b.json").write_text(
            FIXTURE.read_text()[:200]  # killed mid-write
        )
        (tmp_path / "ledger" / "c.json").write_text(
            '{"schema": "repro-bench/1"}'
        )
        (tmp_path / "ledger" / "d.json").write_text("[1, 2]")
        model = collect_history(tmp_path)
        assert [r["file"] for r in model["ledger"]] == ["a.json"]
        assert model["torn_records"] == 3

    def test_bench_files_in_root_are_not_read(self, tmp_path):
        repo = Path(__file__).parents[2]
        shutil.copy(repo / "BENCH_4.json", tmp_path)
        (tmp_path / "BENCH_5.json").write_text('{"mode": "fu')
        model = collect_history(tmp_path)
        assert model["ledger"] == []
        assert model["torn_records"] == 0

    def test_runs_fold_manifest_and_warnings(self, tmp_path):
        _run_dir(tmp_path, "smoke", warnings=["drop PDF truncated"])
        _run_dir(tmp_path, "noreport", report=False)
        model = collect_history(tmp_path)
        by_run = {r["run"]: r for r in model["runs"]}
        assert by_run["smoke"]["warnings"] == ["drop PDF truncated"]
        assert by_run["smoke"]["report"] and not by_run["smoke"]["html"]
        assert not by_run["noreport"]["report"]
        assert by_run["smoke"]["seed"] == 42

    def test_fleet_dirs_found_recursively(self, tmp_path):
        _fleet_dir(tmp_path, "deep/campaign-a", quarantine=True)
        _fleet_dir(tmp_path, "campaign-b")
        model = collect_history(tmp_path)
        by_dir = {f["state_dir"]: f for f in model["fleets"]}
        assert by_dir["deep/campaign-a"]["status"] == "DEGRADED"
        assert by_dir["campaign-b"]["status"] == "COMPLETE"
        q = by_dir["deep/campaign-a"]["quarantined"]
        assert len(q) == 1 and q[0]["id"] == 1


class TestRender:
    def test_markdown_sections(self, tmp_path):
        _ledger_file(tmp_path, "a.json")
        _ledger_file(tmp_path, "b.json")
        _run_dir(tmp_path, "smoke")
        _fleet_dir(tmp_path, "camp", quarantine=True)
        md = generate_history(tmp_path)
        assert "## Performance ledger (2 records)" in md
        assert "| file | size | seed | " + " | ".join(WORKLOADS) + " |" in md
        assert "| a.json | smoke | 1 | 0.052 | " in md
        assert "run.py --compare A B" in md
        assert "## Recorded runs (1)" in md
        assert "## Fleet runs (1)" in md
        assert "### DEGRADED-run log" in md
        assert "campaign unit 1 quarantined after 3 attempts" in md
        assert "WorkerDied: signal SIGKILL" in md
        assert md.rstrip().endswith("skipped while reading: 0_")

    def test_workload_missing_from_one_file_renders_dash(self, tmp_path):
        _ledger_file(tmp_path, "a.json", drop=WORKLOADS[1:])
        _ledger_file(tmp_path, "b.json")
        rows = [ln for ln in generate_history(tmp_path).splitlines()
                if ln.startswith(("| a.json", "| b.json"))]
        assert rows[0].endswith("| 0.052 |" + " - |" * (len(WORKLOADS) - 1))
        assert " - |" not in rows[1]

    def test_empty_root_renders_placeholders(self, tmp_path):
        md = generate_history(tmp_path)
        assert "_no ledger records under ledger/_" in md
        assert "_no run directories under runs/_" in md
        assert "_no campaign/zoo state directories under the root_" in md

    def test_html_escapes_markdown(self, tmp_path):
        _fleet_dir(tmp_path, "camp", quarantine=True)
        out = tmp_path / "timeline.md"
        assert main([str(tmp_path), "--out", str(out), "--html"]) == 0
        page = out.with_suffix(".html").read_text()
        assert page.startswith("<!doctype html>")
        assert "<pre>" in page
        assert "**DEGRADED**" in page  # markdown body survives, escaped
        assert "<script" not in page


class TestMain:
    def test_out_and_html(self, tmp_path, capsys):
        _ledger_file(tmp_path, "a.json")
        out = tmp_path / "timeline.md"
        assert main([str(tmp_path), "--out", str(out), "--html"]) == 0
        assert out.read_text() == generate_history(tmp_path)
        assert out.with_suffix(".html").exists()
        captured = capsys.readouterr()
        assert captured.out.startswith("# repro health timeline")
        assert "[history written to" in captured.err

    def test_out_and_html_describe_one_scan(self, tmp_path, monkeypatch):
        """Over a live campaign the two files must show the same moment."""
        _fleet_dir(tmp_path, "camp")
        ledger = tmp_path / "camp" / "shards.jsonl"
        lines = ledger.read_text().splitlines(keepends=True)
        ledger.write_text("".join(lines[:-1]))  # shard 1 still running
        polls = []
        real_poll = FleetAggregator.poll

        def poll_then_campaign_moves_on(self, now=None):
            snap = real_poll(self, now=now)
            polls.append(self)
            with ledger.open("a") as f:
                f.write(lines[-1])
            return snap

        monkeypatch.setattr(FleetAggregator, "poll",
                            poll_then_campaign_moves_on)
        out = tmp_path / "timeline.md"
        assert main([str(tmp_path), "--out", str(out), "--html"]) == 0
        assert len(polls) == 1
        (row,) = [ln for ln in out.read_text().splitlines()
                  if ln.startswith("| camp |")]
        assert "| 2/4 |" in row
        assert html.escape(row) in out.with_suffix(".html").read_text()

    def test_default_root_prints(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([]) == 0
        assert "# repro health timeline" in capsys.readouterr().out
