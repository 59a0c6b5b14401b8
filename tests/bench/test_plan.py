"""One experiment plan for every front end.

``repro run``/``sweep``/``tables``/``reproduce`` and the serving gateway
all configure their runs through :class:`repro.bench.runner.Knobs` and
regroup them through :func:`repro.bench.runner.assemble_pairs`, so a
flag means the same thing on every command, and equal requests share
result-cache keys.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import parallel
from repro.cli import main

GOLDEN_TEST = json.loads(
    (Path(__file__).resolve().parents[1] / "golden" / "reproduce-test.json")
    .read_text()
)["experiments"]


@pytest.fixture(autouse=True)
def _test_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "test")
    monkeypatch.setenv("REPRO_BENCH_JOBS", "1")
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))


@pytest.fixture
def planned(monkeypatch):
    """Records the task list of every batch the front ends submit."""
    batches: "list[list]" = []
    real = parallel.run_many_detailed

    def spy(tasks, *args, **kwargs):
        batches.append(list(tasks))
        return real(tasks, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_many_detailed", spy)
    return batches


def _prefetch_cycles(table: str, spes: int) -> int:
    """The prefetch column of an execution-time table row."""
    for line in table.splitlines():
        cells = line.split()
        if cells and cells[0] == str(spes):
            return int(cells[2])
    raise AssertionError(f"no {spes}-SPE row in:\n{table}")


class TestFlagsMeanTheSameEverywhere:
    def test_sweep_honours_threshold_like_run(self, capsys):
        flags = ["bitcnt", "--scale", "test", "--spes", "2",
                 "--threshold", "0"]
        assert main(["run", *flags]) == 0
        run_out = capsys.readouterr().out
        assert run_out.startswith("with prefetching: 9120 cycles")
        assert main(["sweep", *flags, "--no-cache"]) == 0
        assert _prefetch_cycles(capsys.readouterr().out, 2) == 9120

    def test_tables_honours_threshold(self, capsys):
        assert main(["tables", "--spes", "2"]) == 0
        default = capsys.readouterr().out
        assert main(["tables", "--spes", "2", "--threshold", "0"]) == 0
        assert capsys.readouterr().out != default

    def test_reproduce_honours_threshold(self, capsys):
        assert main(["reproduce", "--spes", "1", "--threshold", "0.99"]) == 0
        data = json.loads(capsys.readouterr().out)
        cycles = data["experiments"]["scaling"]["bitcnt"]["points"]["1"][
            "prefetch"]["cycles"]
        default = GOLDEN_TEST["scaling"]["bitcnt"]["points"]["1"][
            "prefetch"]["cycles"]
        assert cycles != default

    def test_reproduce_sanitize_reaches_every_task(self, planned, capsys):
        assert main(["reproduce", "--spes", "1", "--sanitize"]) == 0
        (tasks,) = planned
        assert len(tasks) == 12  # 3 workloads x (1 SPE count + L1) x 2
        assert all(task.config.sanitize for task in tasks)


class TestParsersOfferOnlyHonouredFlags:
    @pytest.mark.parametrize("argv", [
        ["reproduce", "--latency", "1"],
        ["disasm", "mmul", "--spes", "2"],
        ["disasm", "mmul", "--latency", "1"],
        ["disasm", "mmul", "--faults", "seed=1"],
        ["disasm", "mmul", "--sanitize"],
        ["info", "--scale", "test"],
        ["info", "--threshold", "0"],
    ])
    def test_unhonoured_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReproduceCsv:
    def test_csv_simulates_each_task_once(self, tmp_path, monkeypatch):
        simulated = []
        real = parallel.run_workload

        def counting(workload, config, **kwargs):
            simulated.append(workload.name)
            return real(workload, config, **kwargs)

        monkeypatch.setattr(parallel, "run_workload", counting)
        csv_path = tmp_path / "out.csv"
        assert main(["reproduce", "--spes", "1", "--no-cache",
                     "--csv", str(csv_path), "-o", str(tmp_path / "o.json")]
                    ) == 0
        assert len(simulated) == 12
        rows = csv_path.read_text().splitlines()
        assert len(rows) == 3 * (1 + 2)  # per workload: header + 2 variants


class TestServedAndCliShareKeys:
    def test_served_sweep_keys_equal_cli_sweep_keys(self, planned, capsys):
        from repro.serve.protocol import build_tasks, parse_request

        assert main(["sweep", "bitcnt", "--spes", "2", "--no-cache"]) == 0
        (cli_tasks,) = planned
        spec = parse_request({
            "v": 1, "kind": "sweep",
            "params": {"benchmark": "bitcnt", "scale": "test", "spes": [2]},
        }).spec
        served = [task.key() for task in build_tasks(spec)]
        assert served == [task.key() for task in cli_tasks]
