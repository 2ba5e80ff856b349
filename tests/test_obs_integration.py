"""Integration tests for end-to-end tracing (PR 10).

Covers the two acceptance criteria of the observability PR:

* a seeded ``verify_batch`` produces *structurally identical* span trees —
  same span names, parentage and checker attempts — on the thread and the
  process executor (hypothesis property over random seeded batches);
* a client-supplied W3C ``traceparent`` travels through the HTTP server
  into job execution and comes back from ``GET /jobs/<id>/trace``.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ghz_ladder, ghz_with_bug
from repro.circuit import QuantumCircuit
from repro.core import Configuration, EquivalenceCheckingManager
from repro.obs import trace


def _random_pair(rng: random.Random):
    """A small random circuit and an equally-built twin (equivalent pair)."""
    qubits = rng.randint(1, 3)
    first = QuantumCircuit(qubits)
    second = QuantumCircuit(qubits)
    for _ in range(rng.randint(1, 4)):
        gate = rng.choice(["h", "x", "z", "cx"])
        if gate == "cx" and qubits >= 2:
            control = rng.randrange(qubits - 1)
            for circuit in (first, second):
                circuit.cx(control, control + 1)
        else:
            target = rng.randrange(qubits)
            for circuit in (first, second):
                getattr(circuit, gate if gate != "cx" else "x")(target)
    return first, second


def _shape(node: dict):
    """(name, checker, children-shapes) — structure without ids or timings."""
    children = sorted(_shape(child) for child in node["children"])
    return (node["name"], (node.get("attrs") or {}).get("checker"), children)


def _traced_batch(executor: str, pairs):
    configuration = Configuration(
        executor=executor, max_workers=2, seed=99, verdict_cache=False
    )
    manager = EquivalenceCheckingManager(configuration)
    tracer = trace.Tracer()
    with trace.activate(tracer):
        batch = manager.verify_batch(pairs)
    tree = trace.span_tree(tracer.export())
    verdicts = [entry.result.criterion.value for entry in batch.entries]
    return sorted(_shape(node) for node in tree), verdicts


class TestSpanTreeParity:
    @settings(max_examples=3, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_thread_and_process_span_trees_match(self, seed):
        rng = random.Random(seed)
        pairs = [_random_pair(rng) for _ in range(rng.randint(2, 4))]
        thread_shape, thread_verdicts = _traced_batch("thread", pairs)
        process_shape, process_verdicts = _traced_batch("process", pairs)
        assert thread_verdicts == process_verdicts
        assert thread_shape == process_shape

    def test_batch_span_structure(self):
        pairs = [(ghz_ladder(3), ghz_ladder(3)), (ghz_ladder(3), ghz_with_bug(3))]
        shapes, _ = _traced_batch("thread", pairs)
        ((root_name, _, children),) = shapes
        assert root_name == "manager.verify_batch"
        names = [name for name, _, _ in children]
        assert names.count("manager.run") == 2
        assert names.count("scheduler.decide") == 2

    def test_worker_spans_carry_worker_pid(self):
        pairs = [(ghz_ladder(3), ghz_ladder(3))]
        configuration = Configuration(
            executor="process", max_workers=1, verdict_cache=False
        )
        manager = EquivalenceCheckingManager(configuration)
        tracer = trace.Tracer()
        with trace.activate(tracer):
            manager.verify_batch(pairs)
        import os

        pids = {span["pid"] for span in tracer.export()}
        assert os.getpid() in pids  # parent spans (verify_batch, scheduling)
        assert len(pids) > 1  # plus at least one worker process


class TestWorkerDDStatistics:
    @staticmethod
    def _padded(circuit: QuantumCircuit) -> QuantumCircuit:
        """``circuit`` after an ``x x`` on qubit 0: equivalent, but the
        alternating check must build gates (nothing pairs at the start)."""
        padded = circuit.copy_empty()
        padded.x(0)
        padded.x(0)
        return padded.compose(circuit)

    def test_process_batch_harvests_worker_dd_statistics(self):
        pairs = [(ghz_ladder(n), self._padded(ghz_ladder(n))) for n in (3, 4)]
        configuration = Configuration(
            executor="process", max_workers=2, verdict_cache=False
        )
        manager = EquivalenceCheckingManager(configuration)
        manager.verify_batch(pairs)
        statistics = manager.dd_statistics()
        assert statistics, "worker DD statistics were not harvested"
        total = sum(
            stats.get("gate_cache_hits", 0) + stats.get("gate_cache_misses", 0)
            for stats in statistics.values()
        )
        assert total > 0


class TestTraceparentEndToEnd:
    def test_client_traceparent_reaches_job_trace(self):
        from repro.service import VerificationClient, VerificationServer

        server = VerificationServer(port=0)
        server.start_background()
        try:
            client = VerificationClient(server.url)
            qasm = ghz_ladder(3).to_qasm()
            tracer = trace.Tracer()
            with trace.activate(tracer):
                with trace.span("client.verify"):
                    submission = client.submit(qasm, qasm)
                    client.wait(submission["job_id"], timeout=30.0)
            payload = client.trace(submission["job_id"])
            assert payload["trace_id"] == tracer.trace_id
            assert payload["spans"] > 0
            names = set()

            def walk(nodes):
                for node in nodes:
                    names.add(node["name"])
                    walk(node["children"])

            walk(payload["tree"])
            assert "job.execute" in names
            assert "manager.run" in names
        finally:
            server.close()

    def test_untraced_submission_roots_a_fresh_trace(self):
        from repro.service import VerificationClient, VerificationServer

        server = VerificationServer(port=0)
        server.start_background()
        try:
            client = VerificationClient(server.url)
            qasm = ghz_ladder(3).to_qasm()
            submission = client.submit(qasm, qasm)
            client.wait(submission["job_id"], timeout=30.0)
            payload = client.trace(submission["job_id"])
            assert payload["trace_id"]
            assert payload["traceparent"] is None
            assert payload["tree"]
        finally:
            server.close()


class TestServerTraceEndpointErrors:
    def test_unknown_job_is_404(self):
        from repro.exceptions import ServiceError
        from repro.service.server import VerificationService

        service = VerificationService()
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.job_trace("job-999999")
            assert excinfo.value.status == 404
        finally:
            service.shutdown(wait=False)

    def test_malformed_traceparent_is_ignored(self):
        from repro.service.server import VerificationService

        service = VerificationService()
        try:
            qasm = ghz_ladder(3).to_qasm()
            submission = service.submit_qasm(qasm, qasm, traceparent="garbage")
            assert service.wait_settled(submission["job_id"], 30.0)
            payload = service.job_trace(submission["job_id"])
            assert payload["traceparent"] is None
            assert payload["trace_id"]
        finally:
            service.shutdown(wait=False)

    def test_trace_spans_metric_counts(self):
        from repro.service.server import VerificationService

        service = VerificationService()
        try:
            qasm = ghz_ladder(3).to_qasm()
            submission = service.submit_qasm(qasm, qasm)
            assert service.wait_settled(submission["job_id"], 30.0)
            rendered = service.metrics.render()
            (line,) = [
                l
                for l in rendered.splitlines()
                if l.startswith("repro_trace_spans_total")
            ]
            assert float(line.split()[-1]) > 0
            stats = service.stats()
            assert stats["telemetry"] is None  # no journal configured
        finally:
            service.shutdown(wait=False)


class TestCliTraceExport:
    def test_verify_json_embeds_trace_and_exports_chrome(self, tmp_path, capsys):
        from repro.cli import main

        qasm = ghz_ladder(3).to_qasm()
        first = tmp_path / "a.qasm"
        second = tmp_path / "b.qasm"
        first.write_text(qasm, encoding="utf-8")
        second.write_text(qasm, encoding="utf-8")
        assert (
            main(
                [
                    "verify",
                    str(first),
                    str(second),
                    "--portfolio",
                    "simulation,alternating",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["tree"][0]["name"] == "manager.run"

        out_file = tmp_path / "verify.json"
        out_file.write_text(json.dumps(payload), encoding="utf-8")
        chrome_file = tmp_path / "chrome.json"
        assert main(["trace", str(out_file), "-o", str(chrome_file)]) == 0
        chrome = json.loads(chrome_file.read_text(encoding="utf-8"))
        names = {event["name"] for event in chrome["traceEvents"]}
        assert "manager.run" in names
        assert "checker.run" in names
        assert all(event["ph"] == "X" for event in chrome["traceEvents"])

    def test_trace_command_rejects_spanless_input(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        assert main(["trace", str(empty)]) == 2
        assert "no spans" in capsys.readouterr().err
