"""The serve-mixed workload: ``repro serve`` driven by one HTTP client.

The server runs as its own process (``serve_host.py``, which is
``repro serve`` plus optional outside-in timing) on an ephemeral port,
with a model cache and its default pool of two workers.  One
closed-loop client repeats a cycle of ten jobs, shuffled per cycle
from the seed:

- one ladder sweep on a fresh netlist (a new segment resistance), so
  parse, MNA and reduction run for it and the model cache misses;
- one ladder sweep with a fresh plan seed, which hits the model cache
  and computes and stores a new study;
- eight re-opened results: identical resubmissions of a warmed-up
  ladder sweep, answered from the result cache and checked
  byte-identical to the first response.

A request runs from submit to result bytes; computed jobs are followed
on the job's NDJSON event stream.

The mix is an assumption: nothing in the repository records how the
service is used.  What each part rests on:

- cache hits are most of the jobs, so the median answer is a hit and
  the computed jobs set the tail;
- every sweep is the Study workload's 200-segment ladder at the size of
  a single interactive job: 100 instances, 30 frequencies;
- one client.  With a second client running beside it, a hit's time
  depended on which of the other client's jobs it overlapped, and the
  median answer of identical code ranged 0.021-0.025 s (16%) over five
  runs; with one client, 0.0152-0.0156 s over three;
- no full-order sign-off.  ``repro serve`` leaves its workers' BLAS
  threads at OpenBLAS's default, two on a 2-core host, and a 12x12
  power-grid sign-off then took 1.1-1.6 s (median of a run) with one
  client and 1.4-3.9 s with two, between runs of identical code.  No
  bound holds over that, so sign-offs wait for a serve-side cap on
  BLAS threads.

Times here are as measured, not host-adjusted: the calibration kernel
did not track the answers' times, and adjusting them widened the
spread of the median answer over five runs from 0.11 to 0.21 of the
median.
"""

import json
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from ledger import Ledger, Report, median, phases
from studies import fresh_directory, ladder_netlist, verify_chunks

# The client's cycle of job kinds; see the module docstring.
CYCLE = ("hit",) * 8 + ("netlist", "sweep")
HIT_SEEDS = (0, 1)
# The server keeps every job it has answered, so its memory grows with
# the job count, which in a timed run follows host speed.  Its peak RSS
# is read when this many jobs have been answered (or at the end of a
# run that answers fewer).
RSS_AT_ANSWERS = 200
HERE = Path(__file__).resolve().parent

SEGMENTS = 200
# Sweep instances per job; tiny for the smoke test.
INSTANCES = {False: 100, True: 20}


def sweep_doc(seed, instances, resistance="10"):
    return {
        "netlist": ladder_netlist(SEGMENTS, resistance), "parameters": 2,
        "moments": 4,
        "plan": {"kind": "montecarlo", "instances": instances, "seed": seed},
        "workload": {"kind": "sweep", "points": 30},
        "chunk": 1000,
    }


class Server:
    """A ``repro serve`` process on an ephemeral port, stopped on exit."""

    def __init__(self, env, directory, spans=None):
        self.directory = directory
        self.store = directory / "store"
        command = [sys.executable, "-u", str(HERE / "serve_host.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--", str(self.store), "--port", "0",
                    "--cache", str(directory / "models")]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.import_s = None
        self.url = None
        try:
            for line in self.process.stdout:
                if line.startswith("# perfbench-host import_s="):
                    self.import_s = float(line.split("=", 1)[1])
                elif line.startswith("# serving on "):
                    self.url = line.split()[3]
                    break
            if self.url is None:
                raise RuntimeError("repro serve exited before listening")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        """The server's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self):
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


def cold_start(env, directory):
    """One ``setup_s`` sample: spawn -> listening -> /healthz answered."""
    from repro.serve import ServeClient

    with Server(env, directory) as server:
        ServeClient(server.url).healthz()
        return time.perf_counter() - server.started, server.import_s


@dataclass
class Outcome:
    """One request as the client saw it, plus its check result."""

    kind: str
    latency: float = 0.0
    ok: bool = False
    refused: bool = False
    problems: list = field(default_factory=list)
    job: Optional[dict] = None
    events: list = field(default_factory=list)
    data: Optional[bytes] = None
    lineage: dict = field(default_factory=dict)


def _request(client, kind, doc, reference, store_dir):
    """Submit ``doc``, follow it to its result bytes, then check them."""
    from repro.serve import ServeClientError

    outcome = Outcome(kind)
    start = time.perf_counter()
    try:
        job = client.submit(doc)
        if not job["cached"]:
            outcome.events = list(client.events(job["id"]))
        data = client.result_bytes(job["id"])
        outcome.latency = time.perf_counter() - start
    except ServeClientError as exc:
        outcome.refused = exc.status == 413  # admission rejection
        outcome.problems.append(f"{kind}: HTTP {exc.status}: {exc}")
        return outcome
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
        return outcome
    outcome.ok = True
    outcome.data = data
    outcome.job = client.job(job["id"])
    if kind == "hit":
        if not job["cached"] or data != reference:
            outcome.problems.append(
                "result-cache hit is not byte-identical to its first response"
                if job["cached"] else "resubmission was not served from cache"
            )
        return outcome
    if job["cached"]:
        outcome.problems.append(f"fresh {kind} job was served from cache")
    outcome.lineage = json.loads(data)["provenance"]["lineage"]
    for records in outcome.lineage.values():
        outcome.problems += verify_chunks(store_dir, records)
    return outcome


class Client:
    """The closed-loop client working through shuffled cycles of jobs.

    The client stops at a slice's deadline after the job in progress
    and resumes its cycle in the next slice; after the last slice it
    finishes the cycle in progress, so the job mix stays exact and the
    median and tail do not depend on where a deadline cut a cycle.
    Its rate is completed jobs over its time inside slices.
    """

    def __init__(self, url, seed, instances, references, store_dir,
                 on_answer):
        from repro.serve import ServeClient

        self.client = ServeClient(url, timeout=120.0)
        self.rng = np.random.default_rng(seed)
        self.instances = instances
        self.references = references
        self.store_dir = store_dir
        self.on_answer = on_answer
        self.outcomes = []
        self.pending = []
        self.done = 0
        self.active = 0.0

    def _document(self, kind):
        fresh = int(self.rng.integers(1000, 2 ** 31))
        if kind == "hit":
            doc_seed = HIT_SEEDS[int(self.rng.integers(len(HIT_SEEDS)))]
            return sweep_doc(doc_seed, self.instances), \
                self.references[doc_seed]
        if kind == "sweep":
            return sweep_doc(fresh, self.instances), None
        resistance = float(10.0 * (1.0 + 0.2 * self.rng.random()))
        return sweep_doc(fresh, self.instances, repr(resistance)), None

    def drive(self, until, last):
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            if not self.pending:
                if now >= until:
                    break
                self.pending = list(CYCLE)
                self.rng.shuffle(self.pending)
            elif now >= until and not last:
                break
            kind = self.pending.pop(0)
            doc, reference = self._document(kind)
            outcome = _request(self.client, kind, doc, reference,
                               self.store_dir)
            self.done += outcome.ok
            self.outcomes.append(outcome)
            self.on_answer(len(self.outcomes))
        self.active += time.perf_counter() - start

    @property
    def rate(self):
        return self.done / self.active if self.active else 0.0


def _counters(client):
    return client.metrics().get("counters", {})


def _delta(after, before, name):
    return after.get(name, 0) - before.get(name, 0)


def _server_seconds(outcome):
    """``(queue wait, job)`` seconds from the job's status timestamps."""
    job = outcome.job
    if job is None or job.get("started") is None:
        return 0.0, 0.0
    return job["started"] - job["created"], job["finished"] - job["started"]


def _job_layers(outcome):
    """Split a computed job's run time using its event stream.

    Trace sinks are process-wide in the server, so a job's stream also
    carries the spans of jobs running next to it.  Only ``study.run``
    events with one of the job's own study keys count, and only
    ``store.save`` events whose SHA-256 is in the job's own lineage.
    """
    own = set(outcome.job["study_keys"])
    shas = {
        key: {record["sha256"] for record in records}
        for key, records in outcome.lineage.items()
    }
    saves = {}
    for event in outcome.events:
        if event.get("event") == "store.save":
            saves[event.get("sha256")] = event.get("wall_seconds") or 0.0
    split = {"kernel": 0.0, "save": 0.0, "instances": 0}
    for event in outcome.events:
        key = event.get("study_key")
        if event.get("event") != "study.run" or key not in own:
            continue
        save = sum(saves.get(sha, 0.0) for sha in shas.get(key, ()))
        split["save"] += save
        split["kernel"] += (event.get("wall_seconds") or 0.0) - save
        split["instances"] += event.get("num_samples", 0)
    return split


LAYERS = (
    "serve (submit self)", "circuits (parse+MNA)", "core (reduce)",
    "serve (queue wait)", "kernels (reduced runs)", "runtime.store (save)",
    "serve (job self)",
)


def _phase(env, directory, seed, seconds, tiny, traced, slices, pause):
    """Boot a server, warm it up, drive it for ``seconds``; return data.

    The drive is cut into ``slices``; before each, with the client
    idle, ``pause()`` runs a cold start and a host calibration.
    """
    from repro.serve import ServeClient

    instances = INSTANCES[tiny]
    spans_path = directory / "spans.jsonl" if traced else None
    with Server(env, directory, spans=spans_path) as server:
        client = ServeClient(server.url, timeout=120.0)
        store_dir = server.store
        references = {}
        warm_start = time.perf_counter()
        problems = []
        for doc_seed in HIT_SEEDS:
            warm = _request(client, "warm", sweep_doc(doc_seed, instances),
                            None, store_dir)
            problems += warm.problems
            references[doc_seed] = warm.data
        for doc in (sweep_doc(999, instances),
                    sweep_doc(999, instances, "12.5")):
            problems += _request(client, "warm", doc, None,
                                 store_dir).problems
        warmup_s = time.perf_counter() - warm_start

        before = _counters(client)
        peak_rss = []

        def on_answer(answered):
            if answered == RSS_AT_ANSWERS:
                peak_rss.append(server.peak_rss_mb())

        caller = Client(server.url, seed, instances, references, store_dir,
                        on_answer)
        for index in range(slices):
            pause()
            caller.drive(time.perf_counter() + seconds / slices,
                         last=index == slices - 1)
        after = _counters(client)
        if not peak_rss:
            peak_rss.append(server.peak_rss_mb())
    submits = {}
    if spans_path is not None:
        with open(spans_path) as handle:
            for line in handle:
                record = json.loads(line)
                submits[record["job"]] = record
    return {
        "outcomes": caller.outcomes, "throughput": caller.rate,
        "warmup_s": warmup_s, "before": before, "after": after,
        "peak_rss_mb": peak_rss[0], "submits": submits,
        "problems": problems,
    }


def _per_layer(phase, untraced_median):
    """Per-layer metrics and the ledger of a traced phase."""
    outcomes = [o for o in phase["outcomes"] if o.ok]
    submits = phase["submits"]
    ledger = Ledger(LAYERS)
    queue_waits, job_times, http, kernels, saves = [], [], [], [], []
    builds, reduces, orders = [], [], []
    kernel_total = instance_total = 0.0
    computed = 0
    for outcome in outcomes:
        record = submits.get(outcome.job["id"], {})
        build = record.get("parse_netlist", 0.0) + \
            record.get("with_random_variations", 0.0)
        reduce = record.get("LowRankReducer.reduce", 0.0)
        submit = record.get("submit", 0.0)
        queue_wait, job_s = _server_seconds(outcome)
        split = _job_layers(outcome)
        layers = {
            "serve (submit self)": submit - build - reduce,
            "circuits (parse+MNA)": build,
            "core (reduce)": reduce,
            "serve (queue wait)": queue_wait,
            "kernels (reduced runs)": split["kernel"],
            "runtime.store (save)": split["save"],
            "serve (job self)": job_s - split["kernel"] - split["save"],
        }
        ledger.add(outcome.latency, layers)
        http.append(outcome.latency - submit - queue_wait - job_s)
        if outcome.kind != "hit":
            computed += 1
            queue_waits.append(queue_wait)
            job_times.append(job_s)
            kernels.append(split["kernel"])
            saves.append(split["save"])
            kernel_total += split["kernel"]
            instance_total += split["instances"]
        if outcome.kind == "netlist":
            builds.append(build)
            reduces.append(reduce)
            if "order_q" in record:
                orders.append(record["order_q"])
    before, after = phase["before"], phase["after"]
    submitted = _delta(after, before, "serve.jobs_submitted")
    hits = _delta(after, before, "cache.hits")
    misses = _delta(after, before, "cache.misses")
    attempted = len(phase["outcomes"])
    refused = sum(o.refused for o in phase["outcomes"])
    traced_median = median([o.latency for o in outcomes])
    metrics = {
        "kernel.self_s": median(kernels),
        "kernel.instances_per_s":
            instance_total / kernel_total if kernel_total else 0.0,
        "store.save_s": median(saves),
        "store.bytes_written":
            _delta(after, before, "store.bytes_written") / max(computed, 1),
        "serve.queue_wait_s": median(queue_waits),
        "serve.job_s": median(job_times),
        "serve.http_s": median(http),
        "serve.result_cache_hit_ratio":
            _delta(after, before, "serve.jobs_cached") / max(submitted, 1),
        "serve.refused_ratio": refused / max(attempted, 1),
        "circuits.build_s": median(builds),
        "core.reduce_s": median(reduces),
        "core.order_q": median(orders),
        "cache.model_hit_ratio": hits / max(hits + misses, 1),
        "trace.overhead_ratio":
            traced_median / untraced_median if untraced_median else 0.0,
        "trace.attributed_share": ledger.attributed_share(),
    }
    return metrics, ledger


def run(env, work, seed, seconds, tiny, trace, host, cold_starts):
    """Run serve-mixed; return ``(report, metrics-by-name)``.

    ``host`` only samples the calibration kernel for ``host.calib_s``;
    serve-mixed reports its times as measured (see the module
    docstring).
    """
    cold = []  # (setup_s, import_s)
    problems = []

    def pause():
        directory = fresh_directory(work, f"cold-{len(cold)}")
        try:
            cold.append(cold_start(env, directory))
        except (RuntimeError, OSError) as exc:
            problems.append(f"serve cold start failed: {exc}")
        host.sample()

    plan = phases(seconds, trace)
    slices = -(-cold_starts // len(plan))
    data = {}
    for traced, duration in plan:
        directory = fresh_directory(work, f"serve-{int(traced)}")
        data[traced] = _phase(env, directory, seed, duration, tiny, traced,
                              slices, pause)
    base = data[False]
    latencies = [o.latency for o in base["outcomes"] if o.ok]
    attempted = failed = 0
    for phase in data.values():
        problems += phase["problems"]
        for outcome in phase["outcomes"]:
            attempted += 1
            failed += not outcome.ok
            problems += outcome.problems
    setup = [c[0] for c in cold]
    report = Report(
        attempted=attempted, failed=failed, problems=problems,
        setup_samples=setup, calib_samples=host.samples,
        latencies=latencies, raw_latencies=latencies,
        raw_setup_samples=setup, host_adjusted=False,
    )
    metrics = {
        "setup_s": median(setup),
        "throughput_per_s": base["throughput"],
        "peak_rss_mb": base["peak_rss_mb"],
        "setup.import_s": median([c[1] for c in cold]),
        "engine.warmup_s": base["warmup_s"],
        "host.calib_s": median(host.samples),
    }
    if trace:
        layer_metrics, ledger = _per_layer(data[True], median(latencies))
        metrics.update(layer_metrics)
        report.ledger = ledger
    return report, metrics
