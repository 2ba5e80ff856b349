"""Graceful drain and degraded health reporting, end to end over HTTP."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.algorithms import ghz_ladder
from repro.core import Configuration
from repro.exceptions import ServiceError
from repro.service import VerificationClient, VerificationServer

SEED = 17


def _start(**config_overrides):
    options = dict(seed=SEED, max_workers=2)
    options.update(config_overrides)
    server = VerificationServer(port=0, configuration=Configuration(**options))
    server.start_background()
    return server


def _hold_manager(service):
    """Make manager runs block on the returned event (to pin jobs in flight)."""
    release = threading.Event()
    original = service.manager.run

    def held(first, second, **kwargs):
        assert release.wait(30.0), "test forgot to release the worker"
        return original(first, second, **kwargs)

    service.manager.run = held
    return release


class TestHealthz:
    def test_healthy_by_default(self):
        server = _start()
        try:
            payload = VerificationClient(server.url, timeout=10.0).health()
            assert payload["ok"] is True
            assert payload["status"] == "healthy"
            assert payload["reasons"] == []
            assert payload["draining"] is False
        finally:
            server.close()

    def test_open_breaker_reports_degraded_but_still_200(self):
        server = _start(breaker_threshold=2, breaker_cooldown=1000.0)
        try:
            breakers = server.service.manager.breakers
            breakers.record("simulation", False)
            breakers.record("simulation", False)
            payload = VerificationClient(server.url, timeout=10.0).health()
            assert payload["ok"] is True  # still HTTP 200: alive and serving
            assert payload["status"] == "degraded"
            assert any("simulation" in reason for reason in payload["reasons"])
        finally:
            server.close()

    def test_journal_degradation_is_reported(self, tmp_path):
        server = _start(cache_path=tmp_path / "verdicts.journal")
        try:
            cache = server.service.manager.verdict_cache
            cache._journal_errors += 1  # simulate a write error having happened
            cache.path = None
            cache._journal = None
            payload = VerificationClient(server.url, timeout=10.0).health()
            assert payload["status"] == "degraded"
            assert any("journal" in reason for reason in payload["reasons"])
        finally:
            server.close()

    def test_draining_is_reported(self):
        server = _start()
        try:
            server.service.begin_drain()
            payload = VerificationClient(server.url, timeout=10.0).health()
            assert payload["status"] == "degraded"
            assert payload["draining"] is True
            assert any("draining" in reason for reason in payload["reasons"])
        finally:
            server.close()


class TestDrain:
    def test_drain_rejects_new_submissions_with_503(self):
        server = _start()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            server.service.begin_drain()
            with pytest.raises(ServiceError) as excinfo:
                client.submit(ghz_ladder(2), ghz_ladder(2))
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
        finally:
            server.close()

    def test_drain_finishes_in_flight_jobs(self):
        server = _start()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            release = _hold_manager(server.service)
            submission = client.submit(ghz_ladder(3), ghz_ladder(3))
            server.service.begin_drain()

            drained = {}

            def drain():
                drained["ok"] = server.drain(timeout=30.0)

            thread = threading.Thread(target=drain)
            thread.start()
            time.sleep(0.05)
            assert thread.is_alive()  # still waiting on the held job
            release.set()
            thread.join(timeout=30.0)
            assert drained["ok"] is True
            # The in-flight job settled with its verdict intact.
            payload = client.result(submission["job_id"])
            assert payload["criterion"] == "equivalent"
        finally:
            server.close()

    def test_drain_times_out_on_stuck_jobs(self):
        server = _start()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            release = _hold_manager(server.service)
            client.submit(ghz_ladder(3), ghz_ladder(3))
            assert server.drain(timeout=0.2) is False
            release.set()
        finally:
            server.close()

    def test_close_with_drain_timeout_flushes_journal(self, tmp_path):
        path = tmp_path / "verdicts.journal"
        server = _start(cache_path=path)
        client = VerificationClient(server.url, timeout=10.0)
        payload = client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
        assert payload["criterion"] == "equivalent"
        server.close(drain_timeout=10.0)
        # The journal survived shutdown and replays into a fresh cache.
        from repro.service.cache import VerdictCache

        cache = VerdictCache(path=path)
        assert cache.statistics()["persistent_entries"] >= 1
        assert cache.statistics()["journal"]["dropped"] == 0


class TestSigtermCli:
    """The `repro-qcec serve` process drains and exits cleanly on SIGTERM."""

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--drain-timeout",
                "5",
                "--cache-path",
                str(tmp_path / "verdicts.journal"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving on" in banner
            url = next(
                token for token in banner.split() if token.startswith("http://")
            )
            client = VerificationClient(url, timeout=10.0)
            payload = client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
            assert payload["criterion"] == "equivalent"
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30.0)
            assert process.returncode == 0
            assert "draining" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
