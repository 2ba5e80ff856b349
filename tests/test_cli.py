"""Tests for the command-line interface."""

import json

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    iterative_qpe,
    qpe_static,
)
from repro.cli import build_parser, main


@pytest.fixture()
def qasm_files(tmp_path):
    """Write a static/dynamic BV pair and a QPE pair to QASM files."""
    paths = {}
    circuits = {
        "bv_static": bernstein_vazirani_static("101"),
        "bv_dynamic": bernstein_vazirani_dynamic("101"),
        "bv_wrong": bernstein_vazirani_dynamic("111"),
        "qpe_static": qpe_static(3),
        "iqpe": iterative_qpe(3),
    }
    for name, circuit in circuits.items():
        path = tmp_path / f"{name}.qasm"
        path.write_text(circuit.to_qasm(), encoding="utf-8")
        paths[name] = str(path)
    return paths


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify", "a.qasm", "b.qasm"])
        assert args.method == "alternating"
        assert args.backend == "dd"

    def test_strategy_option_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "a", "b", "--strategy", "naive"])

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "a", "b", "--method", "magic"])

    def test_method_choices_come_from_checker_registry(self):
        args = build_parser().parse_args(
            ["verify", "a.qasm", "b.qasm", "--method", "distribution"]
        )
        assert args.method == "distribution"


class TestVerifyCommand:
    def test_equivalent_pair_returns_zero(self, qasm_files, capsys):
        code = main(["verify", qasm_files["bv_static"], qasm_files["bv_dynamic"]])
        assert code == 0
        assert "equivalent" in capsys.readouterr().out

    def test_non_equivalent_pair_returns_one(self, qasm_files, capsys):
        code = main(["verify", qasm_files["bv_static"], qasm_files["bv_wrong"]])
        assert code == 1
        assert "not_equivalent" in capsys.readouterr().out

    def test_json_output(self, qasm_files, capsys):
        code = main(["verify", qasm_files["qpe_static"], qasm_files["iqpe"], "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equivalent"] is True
        assert payload["method"] == "alternating"
        assert "strategy" not in payload

    def test_method_distribution_runs_scheme_two(self, qasm_files, capsys):
        code = main(
            [
                "verify",
                qasm_files["bv_static"],
                qasm_files["bv_dynamic"],
                "--method",
                "distribution",
            ]
        )
        assert code == 0
        assert "probably_equivalent" in capsys.readouterr().out

    def test_backend_option(self, qasm_files):
        assert (
            main(
                [
                    "verify",
                    qasm_files["qpe_static"],
                    qasm_files["iqpe"],
                    "--backend",
                    "dense",
                ]
            )
            == 0
        )

    def test_missing_file_returns_two(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "missing.qasm"), str(tmp_path / "missing2.qasm")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestPortfolioAndBatch:
    def test_verify_portfolio_flag(self, qasm_files, capsys):
        code = main(
            [
                "verify",
                qasm_files["bv_static"],
                qasm_files["bv_dynamic"],
                "--portfolio",
                "simulation,alternating",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "decided_by=alternating" in output

    def test_verify_portfolio_falsifier_short_circuits(self, qasm_files, capsys):
        code = main(
            [
                "verify",
                qasm_files["bv_static"],
                qasm_files["bv_wrong"],
                "--portfolio",
                "simulation,alternating",
                "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["decided_by"] == "simulation"
        assert payload["attempts"][1]["status"] == "skipped"

    def test_verify_timeout_without_portfolio_uses_manager(self, qasm_files, capsys):
        code = main(
            ["verify", qasm_files["bv_static"], qasm_files["bv_dynamic"], "--timeout", "30"]
        )
        assert code == 0
        assert "schedule=alternating" in capsys.readouterr().out

    def test_verify_json_emits_schedule_and_timings(self, qasm_files, capsys):
        code = main(
            [
                "verify",
                qasm_files["bv_static"],
                qasm_files["bv_dynamic"],
                "--portfolio",
                "simulation,alternating",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "static"
        assert payload["schedule"] == ["simulation", "alternating"]
        completed = [a for a in payload["attempts"] if a["status"] == "completed"]
        assert completed and all(a["time"] > 0.0 for a in completed)

    def test_verify_explicit_method_respected_under_scheduler(self, qasm_files, capsys):
        # Regression: --method construction --scheduler adaptive used to
        # silently run the default simulation,alternating lineup instead.
        code = main(
            [
                "verify",
                qasm_files["bv_static"],
                qasm_files["bv_dynamic"],
                "--method",
                "construction",
                "--scheduler",
                "adaptive",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedule"] == ["construction"]
        assert payload["decided_by"] == "construction"

    def test_verify_adaptive_scheduler_runs_portfolio(self, qasm_files, capsys):
        code = main(
            [
                "verify",
                qasm_files["bv_static"],
                qasm_files["bv_dynamic"],
                "--scheduler",
                "adaptive",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "adaptive"
        assert set(payload["schedule"]) == {"simulation", "alternating"}
        assert payload["equivalent"] is True

    def test_invalid_portfolio_checker_errors(self, qasm_files, capsys):
        code = main(
            ["verify", qasm_files["bv_static"], qasm_files["bv_dynamic"], "--portfolio", "magic"]
        )
        assert code == 2
        assert "unknown portfolio checker" in capsys.readouterr().err

    def test_batch_manifest(self, qasm_files, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"# demo pairs\n{qasm_files['bv_static']} {qasm_files['bv_dynamic']}\n"
            f"{qasm_files['bv_static']} {qasm_files['bv_wrong']}\n",
            encoding="utf-8",
        )
        code = main(["batch", str(manifest), "--json"])
        assert code == 1  # one pair is not equivalent
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_pairs"] == 2
        assert payload["num_equivalent"] == 1
        assert [entry["index"] for entry in payload["entries"]] == [0, 1]
        # Regression: batch --json used to drop all checker-level detail.
        for entry in payload["entries"]:
            assert entry["decided_by"] is not None
            assert entry["schedule"] == ["simulation", "alternating"]
            assert entry["scheduler"] == "static"
            statuses = {a["method"]: a["status"] for a in entry["checkers"]}
            assert statuses[entry["decided_by"]] == "completed"
            decided = next(
                a for a in entry["checkers"] if a["method"] == entry["decided_by"]
            )
            assert decided["time"] > 0.0

    def test_batch_isolates_missing_files(self, qasm_files, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"{qasm_files['bv_static']} {qasm_files['bv_dynamic']}\n"
            f"{qasm_files['bv_static']} {tmp_path / 'missing.qasm'}\n",
            encoding="utf-8",
        )
        code = main(["batch", str(manifest), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_failed"] == 1
        assert payload["entries"][0]["equivalent"] is True
        assert "missing" in payload["entries"][1]["second"]

    def test_batch_with_no_verdict_returns_two(self, qasm_files, tmp_path, capsys):
        # Regression: a batch where *no* pair could be checked used to return
        # 1 ("not equivalent") instead of 2 ("could not check").
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"{qasm_files['bv_static']} {tmp_path / 'missing.qasm'}\n"
            f"{tmp_path / 'also_missing.qasm'} {qasm_files['bv_dynamic']}\n",
            encoding="utf-8",
        )
        code = main(["batch", str(manifest)])
        assert code == 2
        assert "no pair produced a verdict" in capsys.readouterr().err

    def test_batch_undecidable_pair_returns_two(self, qasm_files, tmp_path, capsys):
        # A qubit-count mismatch makes every checker error out: undecided.
        two_qubits = tmp_path / "two.qasm"
        two_qubits.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\n',
            encoding="utf-8",
        )
        three_qubits = tmp_path / "three.qasm"
        three_qubits.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\n',
            encoding="utf-8",
        )
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{two_qubits} {three_qubits}\n", encoding="utf-8")
        code = main(["batch", str(manifest), "--json"])
        assert code == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["num_failed"] == 1
        assert "no pair produced a verdict" in captured.err

    def test_batch_process_executor(self, qasm_files, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"{qasm_files['bv_static']} {qasm_files['bv_dynamic']}\n"
            f"{qasm_files['bv_static']} {qasm_files['bv_wrong']}\n",
            encoding="utf-8",
        )
        code = main(
            [
                "batch",
                str(manifest),
                "--executor",
                "process",
                "--chunk-size",
                "2",
                "--max-workers",
                "2",
                "--gate-cache-size",
                "64",
                "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["executor"] == "process"
        assert payload["num_pairs"] == 2
        assert payload["num_equivalent"] == 1
        assert payload["entries"][0]["equivalent"] is True
        assert payload["entries"][1]["equivalent"] is False

    def test_empty_manifests_error(self, tmp_path, capsys):
        empty_json = tmp_path / "empty.json"
        empty_json.write_text("[]", encoding="utf-8")
        assert main(["batch", str(empty_json)]) == 2
        empty_text = tmp_path / "empty.txt"
        empty_text.write_text("# nothing\n", encoding="utf-8")
        assert main(["batch", str(empty_text)]) == 2
        assert "names no circuit pairs" in capsys.readouterr().err


class TestBehaviourAndExtract:
    def test_verify_behaviour(self, qasm_files, capsys):
        code = main(["verify-behaviour", qasm_files["bv_static"], qasm_files["bv_dynamic"]])
        assert code == 0
        assert "probably_equivalent" in capsys.readouterr().out

    def test_verify_behaviour_json(self, qasm_files, capsys):
        main(["verify-behaviour", qasm_files["qpe_static"], qasm_files["iqpe"], "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_variation_distance"] < 1e-9

    def test_extract(self, qasm_files, capsys):
        code = main(["extract", qasm_files["bv_dynamic"]])
        assert code == 0
        assert "|101>" in capsys.readouterr().out

    def test_extract_json(self, qasm_files, capsys):
        main(["extract", qasm_files["iqpe"], "--backend", "dd", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert abs(sum(payload["distribution"].values()) - 1.0) < 1e-9

    def test_extract_without_classical_bits_reports_error(self, tmp_path, capsys):
        from repro.circuit import QuantumCircuit

        path = tmp_path / "no_meas.qasm"
        circuit = QuantumCircuit(1)
        circuit.h(0)
        path.write_text(circuit.to_qasm(), encoding="utf-8")
        assert main(["extract", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_show(self, qasm_files, capsys):
        assert main(["show", qasm_files["iqpe"]]) == 0
        output = capsys.readouterr().out
        assert "qubits" in output
        assert "q0:" in output
