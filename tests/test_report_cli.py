"""Markdown reports and the command-line interface."""

import re

import pytest

from repro.analysis.report import (
    comparison_summary,
    restart_report_table,
    run_result_table,
)
from repro.cli import build_parser, main
from repro.recovery.restart import RestartReport
from repro.sim.runner import RunResult


def result(name: str, tpmc: float) -> RunResult:
    return RunResult(
        name=name,
        transactions=100,
        wall_seconds=10.0,
        tpmc=tpmc,
        dram_hit_rate=0.5,
        flash_hit_rate=0.7,
        write_reduction=0.6,
        utilization={"cpu": 0.1, "disk": 1.0, "flash": 0.3, "log": 0.0},
    )


class TestReports:
    def test_run_result_table_is_markdown(self):
        text = run_result_table([result("FaCE+GSC", 4000)], title="T")
        assert text.startswith("### T")
        assert "| FaCE+GSC | 4,000 |" in text
        assert "| disk |" in text  # bottleneck column

    def test_restart_report_table(self):
        report = RestartReport(
            total_time=1.5, metadata_restore_time=0.01, log_records_scanned=1000,
            fpw_installed=50, redo_applied=200, pages_from_flash=90,
            pages_from_disk=10, losers=1,
        )
        text = restart_report_table([("FaCE", report)])
        assert "| FaCE | 1.500 |" in text
        assert "90.0%" in text

    def test_comparison_summary(self):
        text = comparison_summary(result("HDD-only", 1000), result("FaCE", 3000))
        assert "3.00x" in text


class TestCli:
    def test_parser_covers_all_commands(self):
        parser = build_parser()
        for argv in (
            ["run", "face"],
            ["recover", "hdd-only"],
            ["devices"],
            ["sweep", "face+gsc"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "no-such-policy"])

    def test_devices_command_runs(self, capsys):
        assert main(["devices", "--ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "mlc_samsung_470" in out
        assert "raid0_8_disks" in out

    def test_run_command_tiny(self, capsys):
        code = main(
            ["--scale", "tiny", "--cache-fraction", "0.3",
             "run", "face", "--transactions", "150"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| FaCE |" in out

    def test_recover_command_tiny(self, capsys):
        code = main(
            ["--scale", "tiny", "--cache-fraction", "0.3",
             "recover", "face+gsc", "--interval", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Crash + restart" in out

    def test_sweep_command_tiny(self, capsys):
        code = main(
            ["--scale", "tiny", "sweep", "face",
             "--fractions", "0.2", "0.4", "--transactions", "100"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tpmC" in out

    def test_fast_run_prints_replay_summary(self, capsys, monkeypatch):
        from repro.sim.kernel import reset_kernel_totals
        from repro.sim.replay import clear_recorders
        from repro.sim.warmstate import clear_snapshots

        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        clear_recorders()
        clear_snapshots()
        reset_kernel_totals()
        try:
            # Two policies share one trace, so both cells are replayed.
            code = main(
                ["--scale", "tiny", "--cache-fraction", "0.3",
                 "run", "face", "lc", "--transactions", "150", "--fast"]
            )
        finally:
            clear_recorders()
            clear_snapshots()
            reset_kernel_totals()
        assert code == 0
        err = capsys.readouterr().err
        summary = [line for line in err.splitlines() if line.startswith("# replay")]
        assert len(summary) == 1
        assert re.fullmatch(
            r"# replay: [\d,]+ tx / [\d,]+ events across 2 cells", summary[0]
        )

    def test_bad_scale_exits(self):
        with pytest.raises(SystemExit):
            main(["--scale", "galactic", "run", "face", "--transactions", "10"])
