"""End-to-end tests of the verification job-queue server and client."""

import threading
import time

import pytest

from repro.algorithms import ghz_ladder, ghz_with_bug, qft_dynamic, qft_static_benchmark
from repro.circuit.qasm import circuit_from_qasm
from repro.cli import build_parser, main
from repro.core import Configuration, EquivalenceCheckingManager
from repro.exceptions import ServiceError
from repro.resilience import FaultPlan, FaultRule
from repro.service import VerificationClient, VerificationServer, VerificationService
from repro.service.server import ParseMemo

SEED = 5


@pytest.fixture()
def server():
    """A live server on an ephemeral port, torn down after the test."""
    instance = VerificationServer(
        port=0, configuration=Configuration(seed=SEED, max_workers=2)
    )
    instance.start_background()
    try:
        yield instance
    finally:
        instance.close()


@pytest.fixture()
def client(server):
    return VerificationClient(server.url, timeout=10.0)


class TestServerRoundTrip:
    def test_health_reports_version(self, client):
        import repro

        payload = client.health()
        assert payload["ok"] is True
        assert payload["version"] == repro.__version__

    def test_submit_poll_result(self, client):
        first, second = ghz_ladder(3), ghz_ladder(3)
        submission = client.submit(first, second)
        assert submission["coalesced"] is False
        assert submission["fingerprint"]
        payload = client.wait(submission["job_id"], timeout=30.0)
        assert payload["criterion"] == "equivalent"
        assert payload["equivalent"] is True
        assert payload["decided_by"] is not None
        status = client.status(submission["job_id"])
        assert status["status"] == "done"

    def test_non_equivalent_verdict(self, client):
        payload = client.verify(ghz_ladder(3), ghz_with_bug(3), timeout=30.0)
        assert payload["criterion"] == "not_equivalent"
        assert payload["equivalent"] is False

    def test_repeat_submission_is_served_from_the_cache(self, client):
        first, second = ghz_ladder(4), ghz_ladder(4)
        cold = client.verify(first, second, timeout=30.0)
        warm = client.verify(first, second, timeout=30.0)
        assert warm["criterion"] == cold["criterion"]
        assert cold["cached"] is False
        assert warm["cached"] is True

    def test_qasm_string_submission(self, client):
        payload = client.verify(
            ghz_ladder(3).to_qasm(), ghz_ladder(3).to_qasm(), timeout=30.0
        )
        assert payload["criterion"] == "equivalent"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_malformed_submission_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.verify("OPENQASM 2.0; nonsense", ghz_ladder(2).to_qasm())
        assert excinfo.value.status == 400
        for body in ({"first": 1, "second": 2}, {"first": 3, "second": None}):
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/jobs", body)
            assert excinfo.value.status == 400


    @pytest.mark.parametrize(
        "pair",
        [
            lambda: (ghz_ladder(3), ghz_ladder(3)),
            lambda: (ghz_ladder(3), ghz_with_bug(3)),
            lambda: (qft_static_benchmark(4), qft_dynamic(4)),
        ],
        ids=["ghz-equivalent", "ghz-bug", "qft-dynamic"],
    )
    def test_http_verdict_matches_an_in_process_manager(self, client, pair):
        first, second = pair()
        expected = EquivalenceCheckingManager(seed=SEED).run(first, second)
        payload = client.verify(first, second, timeout=60.0)
        assert payload["criterion"] == expected.criterion.value
        assert payload["equivalent"] == expected.equivalent


class TestRequestDeduplication:
    def test_concurrent_identical_submissions_coalesce(self):
        # One worker, kept busy by the warmup job (its first checker sleeps),
        # so the two identical submissions that follow are both still queued
        # — the second MUST coalesce onto the first instead of queueing a
        # second run.
        hold = FaultPlan(rules=(FaultRule(site="checker", action="sleep", delay=1.0),))
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1, fault_plan=hold),
        )
        server.start_background()
        client = VerificationClient(server.url, timeout=10.0)
        try:
            warmup = client.submit(qft_static_benchmark(6), qft_dynamic(6))
            first, second = ghz_ladder(4), ghz_ladder(4)
            submission_one = client.submit(first, second)
            submission_two = client.submit(first, second)

            assert submission_one["coalesced"] is False
            assert submission_two["coalesced"] is True
            assert submission_two["job_id"] == submission_one["job_id"]

            verdict_one = client.wait(submission_one["job_id"], timeout=60.0)
            verdict_two = client.wait(submission_two["job_id"], timeout=60.0)
            assert verdict_one == verdict_two
            assert verdict_one["criterion"] == "equivalent"
            client.wait(warmup["job_id"], timeout=60.0)

            stats = client.stats()
            assert stats["coalesced"] == 1
            assert stats["submitted"] == 3
            assert stats["executed"] == 2  # warmup + one run for the pair
        finally:
            server.close()

    def test_resubmission_after_completion_queues_a_fresh_job(self, client):
        first, second = ghz_ladder(3), ghz_ladder(3)
        submission = client.submit(first, second)
        client.wait(submission["job_id"], timeout=30.0)
        again = client.submit(first, second)
        assert again["coalesced"] is False
        assert again["job_id"] != submission["job_id"]
        # ... but the fresh job is a verdict-cache hit, not a re-verification.
        assert client.wait(again["job_id"], timeout=30.0)["cached"] is True

    def test_stats_expose_cache_statistics(self, client):
        first, second = ghz_ladder(3), ghz_ladder(3)
        client.verify(first, second, timeout=30.0)
        client.verify(first, second, timeout=30.0)
        stats = client.stats()
        assert stats["cache"] is not None
        assert stats["cache"]["hits"] >= 1
        assert stats["jobs"].get("done", 0) >= 2


class TestCrossLevelCacheHit:
    def test_other_translation_level_is_a_verdict_cache_hit(self, client):
        from repro.compilation import rewrite_single_qubit_to_u

        first = ghz_ladder(3)
        cold = client.verify(first, first.copy(), timeout=30.0)
        assert cold["cached"] is False
        # The same pair at another translation level: raw fingerprints
        # differ, the canonical (translation-level-invariant) key hits.
        translated = rewrite_single_qubit_to_u(first)
        warm = client.verify(translated, translated.copy(), timeout=30.0)
        assert warm["cached"] is True
        assert warm["cached_via"] == "canonical_fingerprint"
        assert warm["criterion"] == cold["criterion"]
        stats = client.stats()
        assert stats["canonicalization"]["cache_hits"] >= 1


class TestServiceInProcess:
    def test_finished_jobs_are_pruned_beyond_the_retention_bound(self):
        service = VerificationService(
            Configuration(seed=SEED, max_workers=1), max_finished_jobs=2
        )
        try:
            job_ids = []
            for size in (2, 3, 4):  # three distinct pairs, run sequentially
                submission = service.submit(ghz_ladder(size), ghz_ladder(size))
                job_ids.append(submission["job_id"])
                deadline = 30.0
                while service.job_status(submission["job_id"])["status"] != "done":
                    time.sleep(0.01)
                    deadline -= 0.01
                    assert deadline > 0, "job did not finish"
            # Oldest settled job fell off the retention window: its status is
            # gone, but distinguishably so (410 "pruned", not a bare 404 as
            # for a job id this server never issued) ...
            with pytest.raises(ServiceError) as excinfo:
                service.job_status(job_ids[0])
            assert excinfo.value.status == 410
            with pytest.raises(ServiceError) as excinfo:
                service.job_status("job-999999")
            assert excinfo.value.status == 404
            # ... and its verdict is still served from the cache.
            pruned_result = service.job_result(job_ids[0])
            assert pruned_result["served_from"] == "verdict_cache"
            # ... the newest two are still pollable, and the verdict cache
            # still remembers the pruned pair.
            assert service.job_status(job_ids[2])["status"] == "done"
            resubmit = service.submit(ghz_ladder(2), ghz_ladder(2))
            while service.job_status(resubmit["job_id"])["status"] != "done":
                time.sleep(0.01)
            assert service.job_result(resubmit["job_id"])["cached"] is True
        finally:
            service.shutdown()

    def test_bogus_content_length_is_rejected(self, server):
        import http.client

        for value, expected in (("abc", 400), ("-5", 400), (str(10**9), 413)):
            connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
            try:
                connection.putrequest("POST", "/jobs", skip_accept_encoding=True)
                connection.putheader("Content-Length", value)
                connection.endheaders()
                response = connection.getresponse()
                assert response.status == expected, (value, response.status)
                response.read()
            finally:
                connection.close()

    def test_stalled_body_is_answered_408(self, monkeypatch):
        # A client that claims a large Content-Length and then stalls gets a
        # 408 once the body read times out, and its connection is closed.
        import socket

        from repro.service import aserver

        monkeypatch.setattr(aserver, "_BODY_READ_TIMEOUT", 0.5)
        stalled_server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=1)
        )
        stalled_server.start_background()
        try:
            with socket.create_connection(
                ("127.0.0.1", stalled_server.port), timeout=5
            ) as raw:
                raw.sendall(
                    b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 1000\r\n\r\npartial"
                )
                raw.settimeout(5)
                received = b""
                while chunk := raw.recv(4096):
                    received += chunk
                assert received.split(b"\r\n", 1)[0] == b"HTTP/1.1 408 Request Timeout"
            # The server keeps serving: a well-formed request succeeds.
            client = VerificationClient(stalled_server.url, timeout=10.0)
            assert client.health()["ok"] is True
        finally:
            stalled_server.close()

    def test_service_enables_the_verdict_cache_by_default(self):
        service = VerificationService(Configuration(seed=SEED))
        try:
            assert service.manager.verdict_cache is not None
        finally:
            service.shutdown(wait=False)

    def test_cache_false_opts_out(self):
        service = VerificationService(Configuration(seed=SEED), cache=False)
        try:
            assert service.manager.verdict_cache is None
        finally:
            service.shutdown(wait=False)

    def test_ultra_tight_tolerance_disables_coalescing(self):
        service = VerificationService(
            Configuration(seed=SEED, tolerance=1e-13, max_workers=1)
        )
        try:
            # Keep the single worker busy so both submissions stay queued —
            # they must still get distinct jobs at this tolerance.
            service.submit(qft_static_benchmark(6), qft_dynamic(6))
            first, second = ghz_ladder(4), ghz_ladder(4)
            one = service.submit(first, second)
            two = service.submit(first, second)
            assert one["coalesced"] is False and two["coalesced"] is False
            assert one["job_id"] != two["job_id"]
        finally:
            service.shutdown()

    def test_submit_after_shutdown_fails_cleanly(self):
        service = VerificationService(Configuration(seed=SEED))
        service.shutdown()
        first, second = ghz_ladder(3), ghz_ladder(3)
        with pytest.raises(ServiceError) as excinfo:
            service.submit(first, second)
        assert excinfo.value.status == 503
        # The dead submission left nothing behind: no husk job to coalesce
        # onto, no stuck in-flight fingerprint.
        assert service.stats()["in_flight"] == 0
        assert service.stats()["jobs"] == {}

    def test_status_reads_are_never_torn_while_job_settles(self):
        # Regression: _execute used to mutate job fields outside the service
        # lock, so a concurrent job_status could observe status == "done" with
        # finished_at/result still unset.  Hammer status from several threads
        # while jobs settle and assert every snapshot is internally consistent.
        service = VerificationService(Configuration(seed=SEED, max_workers=2))
        try:
            submissions = [
                service.submit(ghz_ladder(size), ghz_ladder(size))
                for size in (2, 3, 4)
            ]
            job_ids = [submission["job_id"] for submission in submissions]
            torn: list[dict] = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    for job_id in job_ids:
                        snapshot = service.job_status(job_id)
                        if snapshot["status"] == "done" and (
                            snapshot["finished_at"] is None
                            or service.job_result(job_id) is None
                        ):
                            torn.append(snapshot)
                        if snapshot["status"] == "running" and (
                            snapshot["started_at"] is None
                        ):
                            torn.append(snapshot)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for job_id in job_ids:
                    assert service.wait_settled(job_id, timeout=30.0)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)
            assert torn == []
        finally:
            service.shutdown()

    def test_wait_settled_and_listeners(self):
        service = VerificationService(Configuration(seed=SEED, max_workers=1))
        try:
            submission = service.submit(ghz_ladder(3), ghz_ladder(3))
            job_id = submission["job_id"]
            woken = threading.Event()
            registered = service.add_settled_listener(job_id, woken.set)
            assert service.wait_settled(job_id, timeout=30.0)
            if registered:
                assert woken.wait(timeout=5.0)
            # Once settled, a new listener is refused instead of queued.
            assert service.add_settled_listener(job_id, woken.set) is False
            # Unknown ids report settled immediately (nothing to wait for).
            assert service.wait_settled("job-999999", timeout=0.1)
        finally:
            service.shutdown()

    def test_service_queue_limit_backpressure(self):
        service = VerificationService(
            Configuration(seed=SEED, max_workers=1), queue_limit=1
        )
        try:
            gate = threading.Event()
            original = service.manager.run

            def held(first, second, **kwargs):
                assert gate.wait(30.0)
                return original(first, second, **kwargs)

            service.manager.run = held
            accepted = service.submit(ghz_ladder(3), ghz_ladder(3))
            with pytest.raises(ServiceError) as excinfo:
                service.submit(ghz_ladder(4), ghz_ladder(4))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            gate.set()
            assert service.wait_settled(accepted["job_id"], timeout=30.0)
            assert service.submit(ghz_ladder(4), ghz_ladder(4))["job_id"]
            assert service.stats()["rejected"] == 1
        finally:
            gate.set()
            service.shutdown()

    def test_server_forwards_cache_and_retention_knobs(self):
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            cache=False,
            max_finished_jobs=7,
            queue_limit=3,
        )
        try:
            assert server.service.manager.verdict_cache is None
            assert server.service.max_finished_jobs == 7
            assert server.service.queue_limit == 3
        finally:
            server.close()

    def test_many_concurrent_submissions_one_execution(self):
        # The leader's first checker sleeps, so the job is still in flight
        # when the other three submissions arrive (a fast verdict would let
        # them race the leader's completion and hit the verdict cache).
        hold = FaultPlan(rules=(FaultRule(site="checker", action="sleep", delay=0.5),))
        service = VerificationService(
            Configuration(seed=SEED, max_workers=2, fault_plan=hold)
        )
        try:
            first, second = qft_static_benchmark(5), qft_dynamic(5)
            outcomes = []
            barrier = threading.Barrier(4)

            def submit():
                barrier.wait()
                outcomes.append(service.submit(first, second))

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            job_ids = {outcome["job_id"] for outcome in outcomes}
            assert len(job_ids) == 1
            assert sum(outcome["coalesced"] for outcome in outcomes) == 3
        finally:
            service.shutdown()


class TestParseMemo:
    """The service parses each distinct QASM text once while it holds it."""

    @staticmethod
    def _count_parses(monkeypatch) -> list[str]:
        from repro.service import server as server_module

        parsed: list[str] = []
        original = server_module.circuit_from_qasm

        def counting(text):
            parsed.append(text)
            return original(text)

        monkeypatch.setattr(server_module, "circuit_from_qasm", counting)
        return parsed

    def test_a_resent_text_is_parsed_once(self, monkeypatch):
        parsed = self._count_parses(monkeypatch)
        first, second = ghz_ladder(3).to_qasm(), ghz_with_bug(3).to_qasm()
        service = VerificationService(Configuration(seed=SEED, max_workers=1))
        try:
            for _ in range(3):
                job = service.submit_qasm(first, second)["job_id"]
                assert service.wait_settled(job, 30.0)
                assert service.job_result(job)["criterion"] == "not_equivalent"
            assert parsed == [first, second]
            assert service.stats()["parse_memo"] == {
                "hits": 4,
                "misses": 2,
                "entries": 2,
                "chars": sum(
                    ParseMemo.charge(circuit_from_qasm(text), len(text))
                    for text in (first, second)
                ),
            }
            rendered = service.metrics.render()
            assert 'repro_qasm_parse_memo_total{result="hit"} 4' in rendered
            assert 'repro_qasm_parse_memo_total{result="miss"} 2' in rendered
        finally:
            service.shutdown()

    def test_the_memo_never_holds_more_than_its_bound(self):
        memo = ParseMemo(max_chars=700, max_entry=350)
        texts = [ghz_ladder(size).to_qasm() for size in range(2, 12)]
        charges = {text: ParseMemo.charge(circuit_from_qasm(text), len(text)) for text in texts}
        assert all(charges[text] <= 350 for text in texts)
        for text in texts * 2:
            key, circuit = memo.lookup(text)
            if circuit is None:
                memo.store(key, circuit_from_qasm(text), len(text))
            assert memo.chars <= 700
            assert memo.lookup(text)[1] is not None  # the newest is kept
        held = [text for text in texts if memo.lookup(text)[1] is not None]
        assert memo.chars == sum(charges[text] for text in held)
        assert len(memo) == len(held) < len(texts)

    def test_concurrent_lookups_and_stores_keep_the_bound(self):
        import sys

        memo = ParseMemo(max_chars=800, max_entry=350)
        texts = [ghz_ladder(size).to_qasm() for size in range(2, 12)]
        circuits = {text: circuit_from_qasm(text) for text in texts}
        charges = {text: ParseMemo.charge(circuits[text], len(text)) for text in texts}
        wrong: list[str] = []

        def hammer(offset):
            for step in range(300):
                text = texts[(offset + step) % len(texts)]
                key, held = memo.lookup(text)
                if held is None:
                    memo.store(key, circuits[text], len(text))
                elif held is not circuits[text]:
                    wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(offset,)) for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        held = [text for text in texts if memo.lookup(text)[1] is not None]
        assert memo.chars == sum(charges[text] for text in held) <= 800
        assert len(memo) == len(held)

    def test_an_oversized_text_is_parsed_every_time(self, monkeypatch):
        parsed = self._count_parses(monkeypatch)
        small, large = ghz_ladder(2).to_qasm(), ghz_ladder(12).to_qasm()
        service = VerificationService(Configuration(seed=SEED, max_workers=1))
        service.parse_memo = ParseMemo(max_chars=4 * len(large), max_entry=len(large))
        try:
            for _ in range(3):
                job = service.submit_qasm(large, large)["job_id"]
                assert service.wait_settled(job, 30.0)
                service.submit_qasm(small, small)
            assert parsed.count(large) == 6
            assert parsed.count(small) == 1
            assert len(service.parse_memo) == 1
        finally:
            service.shutdown()

    def test_a_malformed_text_is_400_every_time_and_never_held(self, monkeypatch):
        parsed = self._count_parses(monkeypatch)
        bad, good = "OPENQASM 2.0; nonsense", ghz_ladder(2).to_qasm()
        service = VerificationService(Configuration(seed=SEED, max_workers=1))
        try:
            for _ in range(3):
                with pytest.raises(ServiceError) as excinfo:
                    service.submit_qasm(good, bad)
                assert excinfo.value.status == 400
            assert parsed.count(bad) == 3
            assert parsed.count(good) == 1
            assert len(service.parse_memo) == 1
            assert service.stats()["parse_memo"]["misses"] == 4
        finally:
            service.shutdown()

    def test_stats_endpoint_reports_the_memo(self, client):
        first, second = ghz_ladder(3), ghz_ladder(3)
        client.verify(first, second, timeout=30.0)
        client.verify(first, second, timeout=30.0)
        memo = client.stats()["parse_memo"]
        assert memo["misses"] == 1  # both sides send the same text
        assert memo["hits"] == 3
        assert memo["entries"] == 1
        text = first.to_qasm()
        assert memo["chars"] == ParseMemo.charge(circuit_from_qasm(text), len(text))

    def test_a_short_text_is_charged_for_the_circuit_it_builds(self, monkeypatch):
        # A 30-character text builds 100,000 qubits: the
        # memo charges it for those, so it is parsed every time and never
        # held, however many such texts arrive under distinct names.
        from repro.service.server import PARSE_MEMO_CHARS

        parsed = self._count_parses(monkeypatch)
        service = VerificationService(Configuration(seed=SEED, max_workers=1))
        texts = [f"OPENQASM 2.0;\nqreg {name}[100000];\n" for name in ("a", "b", "c")]
        small = ghz_ladder(2).to_qasm()
        try:
            for _ in range(2):
                for text in texts:
                    circuit = service._parse(text)
                    assert circuit.num_qubits == 100000
                    assert ParseMemo.charge(circuit, len(text)) > PARSE_MEMO_CHARS
                    assert service.parse_memo.lookup(text)[1] is None
            service._parse(small)
            assert parsed.count(small) == 1
            assert parsed == texts * 2 + [small]
            assert len(service.parse_memo) == 1
            assert service.parse_memo.chars <= PARSE_MEMO_CHARS
        finally:
            service.shutdown()


class TestServeCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8111
        assert not hasattr(args, "scheduler")
        assert args.cache_path is None
        assert args.gate_cache_size == 256

    @pytest.mark.parametrize("value", ["thread", "async"])
    def test_serve_has_no_backend_option(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--backend", value])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "a.qasm", "b.qasm", "--dense-cutoff", "4"],
            ["batch", "manifest.txt", "--dense-cutoff", "4"],
            ["serve", "--gate-cache-ttl", "60"],
        ],
        ids=["verify-dense-cutoff", "batch-dense-cutoff", "serve-gate-cache-ttl"],
    )
    def test_removed_dd_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro-qcec {repro.__version__}" in capsys.readouterr().out


class TestBatchCacheCli:
    def test_batch_verdict_cache_dedupes_and_reports(self, tmp_path, capsys):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text(ghz_ladder(3).to_qasm(), encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "# duplicate-heavy manifest\n\nghz.qasm ghz.qasm\n" * 3, encoding="utf-8"
        )
        code = main(["batch", str(manifest), "--verdict-cache", "--json"])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["hits"] >= 2
        assert payload["entries"][0]["cached"] is False
        assert payload["entries"][1]["cached"] is True

    def test_batch_cache_path_warm_rerun(self, tmp_path, capsys):
        qasm_a = tmp_path / "a.qasm"
        qasm_a.write_text(ghz_ladder(3).to_qasm(), encoding="utf-8")
        qasm_b = tmp_path / "b.qasm"
        qasm_b.write_text(ghz_ladder(3).to_qasm(), encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.qasm b.qasm\n", encoding="utf-8")
        cache_path = tmp_path / "verdicts.jsonl"

        assert main(["batch", str(manifest), "--cache-path", str(cache_path)]) == 0
        capsys.readouterr()
        assert main(["batch", str(manifest), "--cache-path", str(cache_path)]) == 0
        import json

        assert cache_path.exists()
        capsys.readouterr()
        assert (
            main(["batch", str(manifest), "--cache-path", str(cache_path), "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"][0]["cached"] is True

    def test_manifest_comment_and_blank_lines_skipped_with_line_numbers(
        self, tmp_path, capsys
    ):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text(ghz_ladder(3).to_qasm(), encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "# header comment\n"
            "\n"
            "ghz.qasm ghz.qasm  # trailing comment\n"
            "\n"
            "ghz.qasm\n",  # line 5: malformed
            encoding="utf-8",
        )
        code = main(["batch", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 5" in err

    def test_json_manifest_error_names_the_entry(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[["a.qasm", "b.qasm"], ["only-one.qasm"]]', encoding="utf-8")
        code = main(["batch", str(manifest)])
        assert code == 2
        assert "entry 1" in capsys.readouterr().err
