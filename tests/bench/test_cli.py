"""CLI surface: every command runs and prints sane output."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _test_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "test")
    # Keep CLI tests hermetic: don't touch the user's result cache.
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))


class TestInfo:
    def test_info_prints_tables_2_and_4(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "512 MB, 150 cycles" in out
        assert "156 kB" in out
        assert "4 x 8 B/cycle" in out
        assert "queue 16" in out


class TestRun:
    def test_run_prefetch_default(self, capsys):
        assert main(["run", "mmul", "--spes", "2"]) == 0
        out = capsys.readouterr().out
        assert "with prefetching" in out
        assert "cycles" in out

    def test_run_no_prefetch(self, capsys):
        assert main(["run", "mmul", "--spes", "2", "--no-prefetch"]) == 0
        out = capsys.readouterr().out
        assert "original DTA" in out

    def test_run_compare_reports_speedup(self, capsys):
        assert main(["run", "zoom", "--spes", "2", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "decoupled: 100%" in out

    def test_run_latency_override(self, capsys):
        assert main(
            ["run", "mmul", "--spes", "2", "--latency", "1", "--compare"]
        ) == 0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fibonacci"])


class TestSweep:
    def test_sweep_prints_both_tables(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Execution time" in out
        assert "Scalability" in out

    def test_sweep_parallel_jobs_matches_serial(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1", "2", "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["sweep", "mmul", "--spes", "1", "2", "--jobs", "2",
                     "--no-cache"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_sweep_second_run_served_from_cache(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        first = capsys.readouterr()
        assert "(ran)" in first.err
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        second = capsys.readouterr()
        assert "(cached)" in second.err and "(ran)" not in second.err
        assert second.out == first.out

    def test_sweep_prints_cache_summary(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        assert "cache:" in capsys.readouterr().err

    def test_sweep_resilience_flags_accepted(self, capsys):
        # A generous timeout forces the parent-enforced pool path without
        # ever firing; the sweep must behave exactly as a plain run.
        assert main([
            "sweep", "mmul", "--spes", "1", "--no-cache",
            "--task-timeout", "300", "--retries", "1", "--keep-going",
        ]) == 0
        out = capsys.readouterr().out
        assert "Execution time" in out

    def test_resume_rejects_no_cache(self):
        with pytest.raises(SystemExit, match="resume"):
            main(["sweep", "mmul", "--spes", "1", "--resume", "--no-cache"])


class TestTables:
    def test_tables_prints_all_artifacts(self, capsys):
        assert main(["tables", "--spes", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "Figure 5 (no prefetching)" in out
        assert "Figure 5 (with prefetching)" in out
        assert "Figure 9" in out


class TestDisasm:
    def test_disasm_baseline(self, capsys):
        assert main(["disasm", "mmul", "--template", "mmul_worker"]) == 0
        out = capsys.readouterr().out
        assert "READ" in out and ".EX:" in out

    def test_disasm_prefetch_shows_pf_block(self, capsys):
        assert main(
            ["disasm", "mmul", "--template", "mmul_worker", "--prefetch"]
        ) == 0
        out = capsys.readouterr().out
        assert ".PF:" in out and "DMAGET" in out and "LLOAD" in out

    def test_disasm_all_templates(self, capsys):
        assert main(["disasm", "bitcnt"]) == 0
        out = capsys.readouterr().out
        for name in ("bitcnt_root", "k_ntbl", "bitcnt_join"):
            assert name in out


class TestReproduce:
    def test_reproduce_writes_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        csv_path = tmp_path / "results.csv"
        assert main([
            "reproduce", "--spes", "1", "2",
            "-o", str(out), "--csv", str(csv_path),
        ]) == 0
        import json

        data = json.loads(out.read_text())
        assert set(data["experiments"]) == {
            "scaling", "table5", "fig5", "fig9", "latency1"
        }
        text = csv_path.read_text()
        assert "workload,spes,variant" in text
        assert "prefetch" in text

    def test_reproduce_stdout_mode(self, capsys):
        assert main(["reproduce", "--spes", "1"]) == 0
        out = capsys.readouterr().out
        import json

        json.loads(out)

    def test_reproduce_resume_after_completed_run(self, capsys):
        assert main(["reproduce", "--spes", "1"]) == 0
        capsys.readouterr()
        assert main(["reproduce", "--spes", "1", "--resume"]) == 0
        err = capsys.readouterr().err
        # Every task was settled by the first run's journal + cache.
        assert "resume:" in err
        assert "(ran)" not in err


class TestTimeline:
    def test_timeline_renders_gantt(self, capsys):
        assert main(["timeline", "mmul", "--spes", "2", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "legend" in out
        assert "busy" in out

    def test_timeline_no_prefetch_has_no_pf_segments(self, capsys):
        assert main(
            ["timeline", "mmul", "--spes", "2", "--no-prefetch"]
        ) == 0
        out = capsys.readouterr().out
        bars = [
            line.split("|")[1]
            for line in out.splitlines()
            if line.count("|") >= 2
        ]
        assert bars and all("p" not in bar for bar in bars)


class TestProfile:
    def test_profile_writes_all_artifacts(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        trace = tmp_path / "t.trace.json"
        csv_path = tmp_path / "m.csv"
        events = tmp_path / "e.jsonl"
        assert main([
            "profile", "bitcnt", "--spes", "2",
            "--profile", str(profile), "--perfetto", str(trace),
            "--metrics-csv", str(csv_path), "--trace-jsonl", str(events),
        ]) == 0
        out = capsys.readouterr().out
        assert "pipeline usage" in out
        assert "DMA intervals overlapped" in out
        import json

        from repro.obs import validate_trace_events

        data = json.loads(profile.read_text())
        assert data["version"] == 1
        doc = json.loads(trace.read_text())
        assert validate_trace_events(doc) == []
        assert csv_path.read_text().startswith("instrument,")
        assert events.read_text().splitlines()

    def test_profile_no_prefetch(self, capsys):
        assert main(["profile", "bitcnt", "--spes", "1",
                     "--no-prefetch"]) == 0
        assert "original DTA" in capsys.readouterr().out


class TestDiff:
    def test_self_diff_passes_at_zero_threshold(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        assert main(["profile", "bitcnt", "--spes", "1",
                     "--profile", str(profile)]) == 0
        capsys.readouterr()
        assert main(["diff", str(profile), str(profile),
                     "--max-delta", "0"]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        import json

        profile = tmp_path / "p.json"
        assert main(["profile", "bitcnt", "--spes", "1",
                     "--profile", str(profile)]) == 0
        capsys.readouterr()
        data = json.loads(profile.read_text())
        data["cycles"] = int(data["cycles"] * 2)
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(data))
        assert main(["diff", str(profile), str(worse),
                     "--max-delta", "2"]) == 1
        assert "regression" in capsys.readouterr().out

    def test_missing_file_rejected(self):
        with pytest.raises(SystemExit, match="diff:"):
            main(["diff", "/nonexistent/a.json", "/nonexistent/b.json"])


class TestCacheCommand:
    # ``repro sweep`` goes through the caching runner: one SPE point
    # stores two entries (base + prefetch).

    def test_summary_of_a_populated_cache(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        capsys.readouterr()
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "cache root:" in out
        assert "entries:    2" in out
        assert "journal:" in out

    def test_clear_empties_the_cache(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "cleared 2 cached result(s)" in out
        assert main(["cache"]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_trim_to_budget_evicts(self, capsys):
        assert main(["sweep", "mmul", "--spes", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "--max-bytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "evicted 2" in out
        assert "entries:    0" in out

    def test_bad_size_spec_raises(self):
        with pytest.raises(ValueError, match="byte size"):
            main(["cache", "--max-bytes", "plenty"])


class TestServeParser:
    def test_serve_and_submit_commands_are_wired(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--workers", "3"])
        assert args.func.__name__ == "cmd_serve"
        assert args.workers == 3
        args = parser.parse_args(
            ["submit", "sweep", "bitcnt", "--spes", "1", "2"]
        )
        assert args.func.__name__ == "cmd_submit"
        assert args.spes == [1, 2]

    def test_submit_against_dead_server_fails_cleanly(self, capsys):
        assert main(
            ["submit", "run", "bitcnt", "--port", "1", "--spes", "1"]
        ) == 1
        assert "no server" in capsys.readouterr().err

    def test_submit_rejects_bad_faults_before_connecting(self):
        with pytest.raises(SystemExit, match="--faults:"):
            main(["submit", "run", "bitcnt", "--faults", "bogus=1",
                  "--port", "1"])
