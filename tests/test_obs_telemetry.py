"""Tests for the run-telemetry journal (repro.obs.telemetry)."""

from repro.algorithms import ghz_ladder, ghz_with_bug
from repro.core import Configuration, EquivalenceCheckingManager
from repro.obs.telemetry import SCHEMA_VERSION, TelemetryJournal, summarize_records


def _manager(tmp_path, **overrides):
    configuration = Configuration(
        telemetry_path=str(tmp_path / "runs.telemetry.jsonl"), **overrides
    )
    return EquivalenceCheckingManager(configuration)


class TestRunRecording:
    def test_every_settled_run_appends_a_record(self, tmp_path):
        manager = _manager(tmp_path)
        manager.run(ghz_ladder(3), ghz_ladder(3))
        manager.run(ghz_ladder(3), ghz_with_bug(3))
        records = manager.telemetry.replay()
        assert len(records) == 2
        assert all(record["v"] == SCHEMA_VERSION for record in records)
        assert all(record["kind"] == "run" for record in records)
        assert records[0]["verdict"] != records[1]["verdict"]

    def test_record_shape(self, tmp_path):
        manager = _manager(tmp_path)
        manager.run(ghz_ladder(3), ghz_ladder(3))
        (record,) = manager.telemetry.replay()
        assert "scheduler" not in record
        assert record["schedule"]
        assert record["decided_by"] in record["schedule"]
        assert record["total_time"] >= 0.0
        assert record["attempts"]
        for attempt in record["attempts"]:
            assert set(attempt) >= {"checker", "status", "time"}
        assert "breakers" in record

    def test_alternating_dd_attempts_carry_their_settled_pairs(self, tmp_path):
        manager = _manager(tmp_path, portfolio=("alternating", "simulation"))
        manager.run(ghz_ladder(3), ghz_ladder(3))
        mutant = ghz_ladder(3).copy_empty()
        mutant.rz(1.0, 0)
        manager.run(mutant.compose(ghz_ladder(3)), ghz_ladder(3))
        proved, refuted = manager.telemetry.replay()
        for record, settled in ((proved, 0), (refuted, 3)):
            alternating, simulation = record["attempts"]
            assert alternating["checker"] == "alternating"
            assert alternating["settled_pairs"] == settled
            assert "settled_pairs" not in simulation

    def test_cache_hits_are_recorded_with_provenance(self, tmp_path):
        manager = _manager(tmp_path, verdict_cache=True, seed=11)
        first, second = ghz_ladder(3), ghz_ladder(3)
        manager.run(first, second)
        manager.run(first, second)
        records = manager.telemetry.replay()
        assert len(records) == 2
        assert records[0]["cached"] is False
        assert records[1]["cached"] is True
        assert records[1]["cached_via"] is not None

    def test_batch_runs_are_recorded_once_per_pair(self, tmp_path):
        manager = _manager(tmp_path)
        pairs = [(ghz_ladder(3), ghz_ladder(3)), (ghz_ladder(3), ghz_with_bug(3))]
        manager.verify_batch(pairs)
        assert len(manager.telemetry.replay()) == 2

    def test_process_batch_records_in_parent(self, tmp_path):
        manager = _manager(tmp_path, executor="process", max_workers=2)
        pairs = [(ghz_ladder(3), ghz_ladder(3)), (ghz_ladder(3), ghz_with_bug(3))]
        manager.verify_batch(pairs)
        records = manager.telemetry.replay()
        assert len(records) == 2

    def test_write_failure_degrades_without_raising(self, tmp_path):
        journal = TelemetryJournal(
            tmp_path / "t.jsonl",
            write_hook=lambda: (_ for _ in ()).throw(OSError("disk full")),
        )
        assert journal.record_run({"kind": "run"}) is False
        assert journal.statistics()["append_errors"] == 1


class TestSummaries:
    def test_summarize_records(self):
        # Records written before the one lineup still carry "scheduler".
        records = [
            {
                "kind": "run",
                "verdict": "equivalent",
                "scheduler": "static",
                "total_time": 0.5,
                "cached": False,
                "attempts": [
                    {"checker": "simulation", "status": "completed", "time": 0.2},
                    {"checker": "alternating", "status": "completed", "time": 0.3},
                ],
                "decided_by": "alternating",
            },
            {
                "kind": "run",
                "verdict": "equivalent",
                "scheduler": "static",
                "total_time": 0.0,
                "cached": True,
                "cached_via": "fingerprint",
                "attempts": [],
            },
        ]
        summary = summarize_records(records)
        assert "schedulers" not in summary
        assert summary["runs"] == 2
        assert summary["verdicts"] == {"equivalent": 2}
        assert summary["cache"]["fresh"] == 1
        assert summary["cache"]["fingerprint"] == 1
        checkers = summary["checkers"]
        assert checkers["alternating"]["decisions"] == 1
        assert checkers["simulation"]["attempts"] == 1

    def test_journal_summarize_round_trip(self, tmp_path):
        manager = _manager(tmp_path)
        manager.run(ghz_ladder(3), ghz_ladder(3))
        summary = manager.telemetry.summarize()
        assert summary["runs"] == 1
        assert sum(summary["verdicts"].values()) == 1

    def test_journal_survives_restart(self, tmp_path):
        path = tmp_path / "restart.jsonl"
        journal = TelemetryJournal(path)
        journal.record_run({"kind": "run", "verdict": "equivalent", "attempts": []})
        reopened = TelemetryJournal(path)
        assert len(reopened.replay()) == 1


class TestCliVerifyRouting:
    def test_plain_verify_with_telemetry_records_a_run(self, tmp_path, capsys):
        """--telemetry routes through the manager even with no portfolio,
        timeout or cache flag — a record always lands."""
        from repro.cli import main

        qasm = ghz_ladder(3).to_qasm()
        first = tmp_path / "a.qasm"
        second = tmp_path / "b.qasm"
        first.write_text(qasm, encoding="utf-8")
        second.write_text(qasm, encoding="utf-8")
        path = tmp_path / "runs.jsonl"
        assert (
            main(["verify", str(first), str(second), "--telemetry", str(path)])
            == 0
        )
        capsys.readouterr()
        assert len(TelemetryJournal(path).replay()) == 1


class TestCliSummarize:
    def test_telemetry_summarize_command(self, tmp_path, capsys):
        from repro.cli import main

        manager = _manager(tmp_path)
        manager.run(ghz_ladder(3), ghz_ladder(3))
        path = str(tmp_path / "runs.telemetry.jsonl")
        assert main(["telemetry", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "runs: 1" in out

    def test_telemetry_summarize_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        manager = _manager(tmp_path)
        manager.run(ghz_ladder(3), ghz_ladder(3))
        path = str(tmp_path / "runs.telemetry.jsonl")
        assert main(["telemetry", "summarize", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 1

    def test_missing_journal_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["telemetry", "summarize", str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
