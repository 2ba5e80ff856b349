"""The three workloads: set-up, measured closed loop, and the traced variant.

Each workload returns a :class:`Run`: one :class:`Sample` per measured
verdict, the measured time, the set-up time and the peak memory of the
process that runs the program.  Times are measured next to reference calls
(:mod:`perfbench.speed`) that scale them to the unit machine.  A traced run
also fills ``per_layer``.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.circuit.qasm import circuit_from_qasm
from repro.core import Configuration, EquivalenceCheckingManager, check_equivalence
from repro.core import transformation
from repro.exceptions import ServiceError
from repro.obs import trace as repro_trace
from repro.service.client import VerificationClient
from repro.service.fingerprint import pair_fingerprint

from perfbench import inputs, spans, speed

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Reference calls before and after each set-up (a few calls read fast
#: outliers, so the set-up scale needs more than one).
SETUP_REFERENCE_CALLS = 5

#: Verdicts a run needs at least, so that ten lie beyond its p90.
MIN_VERDICTS = 100

#: Pairs (or requests) re-run with and without a repro Tracer for obs.tracer_overhead.
OVERHEAD_PAIRS = {"table1-scheme1": 20, "portfolio-default": 20, "service-repeat": 400}

EQUIVALENT_VERDICTS = frozenset({"equivalent", "equivalent_up_to_global_phase"})
EXPECTED_PROVENANCE = {"hit": "fingerprint", "canonical": "canonical_fingerprint", "miss": None}


@dataclass
class Sample:
    """One measured verdict; ``scale`` converts its time to the unit machine."""

    latency_s: float
    cls: str
    equivalent: bool
    verdict: str | None
    error: str | None = None
    provenance_ok: bool = True
    index: int = 0
    scale: float = 1.0
    peak_mb: float = 0.0

    @property
    def definitive(self) -> bool:
        return self.verdict in EQUIVALENT_VERDICTS or self.verdict == "not_equivalent"

    @property
    def wrong(self) -> bool:
        return self.definitive and (self.verdict in EQUIVALENT_VERDICTS) != self.equivalent


@dataclass
class Run:
    samples: list[Sample]
    measured_s: float
    block_rates: list[float]
    setup_s: float
    setup_samples: list[float]
    setup_scale: float
    peak_rss_mb: float
    peak_note: str
    peak_count: int
    references_ms: list[float]
    setup_wrong: int = 0
    per_layer: dict[str, float] = field(default_factory=dict)
    layer_table: dict[str, float] = field(default_factory=dict)
    traced_ms: float = 0.0
    notes: list[str] = field(default_factory=list)
    chrome: list[dict] = field(default_factory=list)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a process: its peak resident memory since the last reset."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart a process's VmHWM from its current resident memory."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as clear_refs:
        clear_refs.write("5")


def p90(values: list[float]) -> float:
    """90th percentile, exclusive method (the highest value for short lists)."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def import_program() -> None:
    """Start a fresh interpreter that imports the benchmark and the program."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    subprocess.run(
        [sys.executable, "-c", "import perfbench.workloads"], cwd=ROOT, env=env, check=True
    )


def repeated_setup(setup, discard=None, by_steal=False):
    """Run the set-up :data:`SETUP_REPEATS` times: a fresh interpreter's
    imports, then ``setup``.

    ``discard`` releases every result but the last, outside the timing.
    Returns the last result, the set-up times and the factor that scales
    their median: from reference calls between the set-ups, or with
    ``by_steal`` from the unstolen CPU share over all of them.
    """
    references = [speed.reference_ms() for _ in range(SETUP_REFERENCE_CALLS)]
    ticks = speed.cpu_ticks()
    times = []
    for repeat in range(SETUP_REPEATS):
        began = time.perf_counter()
        import_program()
        result = setup()
        times.append(time.perf_counter() - began)
        if by_steal:
            factor = speed.unstolen_share(ticks, speed.cpu_ticks())
        else:
            references.extend(speed.reference_ms() for _ in range(SETUP_REFERENCE_CALLS))
            factor = speed.scale(references)
        if discard is not None and repeat < SETUP_REPEATS - 1:
            discard(result)
    return result, times, factor


def guarded(call):
    """Run one verdict; an exception becomes a failed sample, not a crash."""
    try:
        return call(), None
    except Exception as error:  # noqa: BLE001 - counted in failed_ratio
        return None, f"{type(error).__name__}: {error}"


def tracer_overhead(pairs, run_pair) -> float:
    """Wall time under an active repro Tracer over wall time without.

    Each pair runs once in each arm, the arm order alternating per pair; the
    result is the median of the per-pair ratios.
    """
    ratios = []
    for index, pair in enumerate(pairs):
        timings = {}
        for with_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            began = time.perf_counter()
            if with_tracer:
                with repro_trace.activate(repro_trace.Tracer()):
                    run_pair(pair)
            else:
                run_pair(pair)
            timings[with_tracer] = time.perf_counter() - began
        ratios.append(timings[True] / timings[False])
    return statistics.median(ratios)


def trace_validity(groups, other_groups=()) -> dict[str, float]:
    """``trace.unattributed_ratio`` and ``trace.wrapper_overhead`` of the verdict
    roots; ``other_groups`` (the server's jobs) add their wrapped calls."""
    root_ns = sum(group["root_ns"] for group in groups)
    unattributed_ns = sum(group["layers"]["verdict"][0] for group in groups)
    calls = spans.wrapped_calls(groups) + spans.wrapped_calls(other_groups)
    return {
        "trace.unattributed_ratio": unattributed_ns / root_ns,
        "trace.wrapper_overhead": spans.calibrate_wrapper_ns() * calls / root_ns,
    }


# ----------------------------------------------------------------------
# table1-scheme1 and portfolio-default
# ----------------------------------------------------------------------


def table1_verdict(pair) -> str:
    transformed = transformation.to_unitary_circuit(pair.second)
    return check_equivalence(pair.first, transformed.circuit).criterion.value


def timed_loop(blocks, run_pair, seconds: float, recorder=None):
    """Closed loop over whole blocks, one caller, for at least ``seconds``.

    A block is started while the measured time is below ``seconds`` or the
    run holds fewer than :data:`MIN_VERDICTS` verdicts.  Each verdict's
    peak memory is measured from a VmHWM reset just before it.  After every
    verdict the caller collects garbage (DD packages sit in reference
    cycles, so without it memory would follow the interpreter's collection
    schedule rather than the verdict) and makes one reference call, outside
    the measured time.

    Returns the samples, the measured seconds, each block's verdicts per
    scaled second and the reference times.
    """
    samples: list[Sample] = []
    cycles: list[float] = []
    block_sizes: list[int] = []
    gc.collect()
    gc.freeze()
    references = [speed.reference_ms()]
    for block in blocks:
        for pair in block:
            reset_peak_rss()
            began = time.perf_counter()
            if recorder is None:
                verdict, error = run_pair(pair)
            else:
                with recorder.verdict(len(samples)):
                    verdict, error = run_pair(pair)
            latency = time.perf_counter() - began
            peak = peak_rss_mb()
            gc.collect()
            cycles.append(time.perf_counter() - began)
            references.append(speed.reference_ms())
            samples.append(
                Sample(latency, pair.cls, pair.equivalent, verdict, error, peak_mb=peak)
            )
        block_sizes.append(len(block))
        if sum(cycles) >= seconds and len(samples) >= MIN_VERDICTS:
            break
    scales = speed.local_scales(references, len(samples))
    for sample, factor in zip(samples, scales):
        sample.scale = factor
    scaled_cycles = iter([cycle * factor for cycle, factor in zip(cycles, scales)])
    rates = [size / sum(itertools.islice(scaled_cycles, size)) for size in block_sizes]
    return samples, sum(cycles), rates, references


def run_algorithm_workload(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    """``table1-scheme1`` or ``portfolio-default``: one caller, whole blocks."""

    def setup():
        blocks = inputs.algorithm_blocks(workload, seed)
        first_block = next(blocks)
        if workload == "portfolio-default":
            manager = EquivalenceCheckingManager(seed=seed)

            def verdict(pair):
                return manager.run(pair.first, pair.second).criterion.value
        else:
            verdict = table1_verdict
        rng = inputs.rng_for(f"{workload}/warm-up", seed)
        wrong = 0
        for equivalent in (True, False):
            pair = inputs.make_pair("qft", 4, equivalent, rng)
            result, _ = guarded(lambda: verdict(pair))
            wrong += Sample(0.0, pair.cls, pair.equivalent, result).wrong
        return first_block, blocks, verdict, wrong

    (first_block, blocks, verdict, setup_wrong), setup_times, setup_scale = repeated_setup(setup)

    def run_pair(pair):
        return guarded(lambda: verdict(pair))

    recorder = None
    if traced:
        recorder = spans.Recorder()
        for target, layer, options in spans.ENGINE:
            recorder.wrap(target, layer, **options)
    try:
        samples, measured, rates, references = timed_loop(
            itertools.chain([first_block], blocks), run_pair, seconds, recorder
        )
    finally:
        if recorder is not None:
            recorder.restore()
    run = Run(
        samples=samples,
        measured_s=measured,
        block_rates=rates,
        setup_s=statistics.median(setup_times),
        setup_samples=setup_times,
        setup_scale=setup_scale,
        peak_rss_mb=p90([sample.peak_mb for sample in samples]),
        peak_note="p90 over verdicts of this process's VmHWM, reset before each verdict",
        peak_count=len(samples),
        references_ms=references,
        setup_wrong=setup_wrong,
    )
    if recorder is not None:
        groups = recorder.verdict_groups()
        run.per_layer = spans.reduce_groups(groups)
        run.per_layer.update(trace_validity(groups))
        run.per_layer["obs.tracer_overhead"] = tracer_overhead(
            first_block[: OVERHEAD_PAIRS[workload]], run_pair
        )
        run.layer_table, run.traced_ms = spans.layer_table(groups)
        run.chrome = recorder.chrome_events(os.getpid(), f"perfbench {workload}")
    return run


# ----------------------------------------------------------------------
# service-repeat
# ----------------------------------------------------------------------

#: Client threads of service-repeat (nproc = 2).
CLIENTS = 2

SERVE_READY_TIMEOUT = 60.0


class ServerProcess:
    """The default ``repro-qcec serve --port 0`` (or its traced launcher)."""

    def __init__(self, spans_path: Path | None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "serve.py"), str(spans_path)]
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            self.url = self._read_url()
        except BaseException:
            self.stop()
            raise

    def _read_url(self) -> str:
        deadline = time.monotonic() + SERVE_READY_TIMEOUT
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                if "serving on " in line:
                    return line.split("serving on ", 1)[1].split()[0]
        raise RuntimeError("the verification server did not start")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def reset_peak_rss(self) -> None:
        reset_peak_rss(self.process.pid)

    def stop(self) -> None:
        """SIGINT (immediate shutdown), then wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def service_verdict(client: VerificationClient, request) -> tuple[str | None, str | None, object]:
    try:
        payload = client.verify(request.first, request.second, timeout=60.0)
    except ServiceError as error:
        return None, f"ServiceError {error.status}: {error}", None
    return payload["criterion"], None, payload.get("cached_via")


def service_setup(seed: int, spans_path: Path | None):
    """Generate the first block, start the server, prime its cache, warm up."""
    service_inputs = inputs.ServiceInputs(seed)
    first_block = service_inputs.block()
    server = ServerProcess(spans_path)
    try:
        client = VerificationClient(server.url, timeout=60.0)
        wrong = 0
        for request in service_inputs.priming_requests() * 2:
            verdict, error, _ = service_verdict(client, request)
            wrong += Sample(0.0, request.cls, request.equivalent, verdict, error).wrong
            if error is not None:
                raise RuntimeError(f"priming failed: {error}")
    except BaseException:
        server.stop()
        raise
    return service_inputs, first_block, server, wrong


def service_block(url: str, requests: list, first_index: int, recorder) -> list[Sample]:
    """:data:`CLIENTS` closed-loop threads share one block of requests until it is done."""
    samples: list[Sample] = []
    lock = threading.Lock()
    pending = iter(enumerate(requests, first_index))

    def client_thread():
        client = VerificationClient(url, timeout=60.0)
        while True:
            with lock:
                taken = next(pending, None)
            if taken is None:
                return
            index, request = taken
            began = time.perf_counter()
            if recorder is None:
                verdict, error, provenance = service_verdict(client, request)
            else:
                with recorder.verdict(index):
                    verdict, error, provenance = service_verdict(client, request)
            sample = Sample(
                time.perf_counter() - began, request.cls, request.equivalent, verdict, error,
                provenance_ok=error is not None or provenance == EXPECTED_PROVENANCE[request.tier],
                index=index,
            )
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=client_thread) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def service_loop(server: ServerProcess, first_block: list, service_inputs, seconds: float, recorder=None):
    """Whole blocks for at least ``seconds`` of scaled time.

    Between blocks, outside the measured time, the clients pause while the
    next block is generated.  Each block's time is scaled by its unstolen
    CPU share (:func:`perfbench.speed.unstolen_share`), and the server's
    VmHWM is reset before every block and read after it.  Counting scaled
    time keeps the number of requests, and with it the server's memory,
    independent of how much the hypervisor steals; measured time is capped
    at twice ``seconds``.

    Returns the samples in request order, the measured seconds, each
    block's requests per scaled second, the server's peak memory per block
    and every request sent.
    """
    samples: list[Sample] = []
    walls: list[float] = []
    scales: list[float] = []
    rates: list[float] = []
    peaks: list[float] = []
    sent: list = []
    block = first_block
    while True:
        server.reset_peak_rss()
        ticks = speed.cpu_ticks()
        start = time.perf_counter()
        block_samples = service_block(server.url, block, len(sent), recorder)
        walls.append(time.perf_counter() - start)
        scales.append(speed.unstolen_share(ticks, speed.cpu_ticks()))
        rates.append(len(block) / (walls[-1] * scales[-1]))
        peaks.append(server.peak_rss_mb())
        for sample in block_samples:
            sample.scale = scales[-1]
        samples.extend(block_samples)
        sent.extend(block)
        scaled = sum(wall * factor for wall, factor in zip(walls, scales))
        if len(sent) >= MIN_VERDICTS and (scaled >= seconds or sum(walls) >= 2 * seconds):
            break
        block = service_inputs.block()
    samples.sort(key=lambda sample: sample.index)
    return samples, sum(walls), rates, peaks, sent


def serve_configuration() -> Configuration:
    """The Configuration the default ``repro-qcec serve`` builds."""
    return Configuration(
        scheduler="adaptive",
        max_workers=4,
        seed=0,
        verdict_cache=True,
        cache_size=4096,
        gate_cache_size=256,
    )


class Replay:
    """The server's per-request work, in process: parse, fingerprint, manager.run."""

    def __init__(self, priming):
        self.configuration = serve_configuration()
        self.manager = EquivalenceCheckingManager(self.configuration)
        for request in priming:
            self(request)

    def __call__(self, request) -> str:
        first = circuit_from_qasm(request.first)
        second = circuit_from_qasm(request.second)
        fingerprint = pair_fingerprint(first, second, self.configuration)
        return self.manager.run(first, second, fingerprint=fingerprint).criterion.value


def replay_overheads(service_inputs, requests, client_samples) -> dict[str, float]:
    """``http.overhead_ms`` and ``obs.tracer_overhead`` from two in-process replays.

    Both replays see the same requests in the same order against caches
    primed the same way, so they hit the same tiers; one runs every request
    under an active repro Tracer, as the server's job execution does.
    """
    priming = service_inputs.priming_requests()
    plain, traced = Replay(priming), Replay(priming)
    plain_s: list[float] = []
    traced_total = 0.0
    for index, request in enumerate(requests):
        for with_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            began = time.perf_counter()
            if with_tracer:
                with repro_trace.activate(repro_trace.Tracer()):
                    traced(request)
                traced_total += time.perf_counter() - began
            else:
                plain(request)
                plain_s.append(time.perf_counter() - began)
    client_ms = statistics.median(sample.latency_s for sample in client_samples) * 1e3
    return {
        "http.overhead_ms": client_ms - statistics.median(plain_s) * 1e3,
        "obs.tracer_overhead": traced_total / sum(plain_s),
    }


def run_service_workload(seed: int, seconds: float, traced: bool, out_dir: Path) -> Run:
    """``service-repeat``: the default server in its own process, two clients."""
    spans_path = out_dir / f"server-spans-{os.getpid()}.json" if traced else None
    servers: list[ServerProcess] = []

    def setup():
        result = service_setup(seed, spans_path)
        servers.append(result[2])
        return result

    def discard(result):
        servers.remove(result[2])
        result[2].stop()

    try:
        (service_inputs, first_block, server, setup_wrong), setup_times, setup_scale = (
            repeated_setup(setup, discard, by_steal=True)
        )
        recorder = None
        if traced:
            recorder = spans.Recorder()
            for target, layer, options in spans.CLIENT:
                recorder.wrap(target, layer, **options)
        try:
            samples, measured, rates, peaks, requests = service_loop(
                server, first_block, service_inputs, seconds, recorder
            )
        finally:
            if recorder is not None:
                recorder.restore()
    finally:
        while servers:
            servers.pop().stop()
    run = Run(
        samples=samples,
        measured_s=measured,
        block_rates=rates,
        setup_s=statistics.median(setup_times),
        setup_samples=setup_times,
        setup_scale=setup_scale,
        peak_rss_mb=p90(peaks),
        peak_note="p90 over blocks of the server's VmHWM, reset before each block",
        peak_count=len(peaks),
        references_ms=[],
        setup_wrong=setup_wrong,
    )
    mismatched = sum(not sample.provenance_ok for sample in samples)
    if mismatched:
        run.notes.append(f"{mismatched} responses came from another cache tier than constructed")
    if traced:
        dump = json.loads(spans_path.read_text())
        spans_path.unlink()
        client_groups = recorder.verdict_groups()
        # Job ids count up from job-000001; the first ones primed the cache.
        setup_jobs = 2 * len(service_inputs.priming_requests())
        server_groups = [
            group for group in dump["groups"]
            if isinstance(group["key"], str) and int(group["key"].rsplit("-", 1)[1]) > setup_jobs
        ]
        run.per_layer = spans.reduce_groups(server_groups)
        client_metrics = spans.reduce_groups(client_groups)
        for name in ("http.submit_ms", "http.result_ms"):
            run.per_layer[name] = client_metrics[name]
        requests_sent = sum(group["values"].get("http.requests", 0) for group in client_groups)
        run.per_layer["http.requests_per_verdict"] = requests_sent / len(client_groups)
        run.per_layer.update(trace_validity(client_groups, server_groups))
        replayed = OVERHEAD_PAIRS["service-repeat"]
        run.per_layer.update(
            replay_overheads(service_inputs, requests[:replayed], samples[:replayed])
        )
        run.layer_table, run.traced_ms = spans.layer_table(client_groups)
        server_table, _ = spans.layer_table(server_groups)
        run.notes.append(
            "server-side self time per layer (ms, measured jobs): "
            + ", ".join(
                f"{name} {value:.0f}"
                for name, value in sorted(server_table.items(), key=lambda item: -item[1])
            )
        )
        run.chrome = recorder.chrome_events(os.getpid(), "perfbench client") + dump["events"]
    return run
