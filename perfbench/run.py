"""End-to-end benchmark of the repro pipeline, with a per-layer ledger.

    python3 perfbench/run.py --workload ladder-eig --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  Workloads:

- ``ladder-eig``: Monte Carlo frequency studies on a 200-segment RC
  ladder (2 variation parameters, q=37), dense eig kernel.
- ``rcneta-lowrank``: the same pipeline on RCNetA (3 width parameters,
  q=42) on the low-rank Woodbury kernel, keeping per-instance responses.
- ``serve-mixed``: ``repro serve`` driven over HTTP by one client with
  a fixed mix of cache hits, fresh-seed sweeps and fresh-netlist sweeps.

The Study workloads' times are host-adjusted: each timed event is
bracketed by runs of a fixed calibration kernel and scaled to a host of
reference speed (``ledger.HostClock``); the report also prints the
times as measured.  serve-mixed reports its times as measured.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
the run untraced and half traced and prints the per-layer metrics and
the layer table.  Lines starting with ``#`` are the human-readable
report; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--tiny`` shrinks every
size for the smoke test (``perfbench/smoke.py``).
"""

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("ladder-eig", "rcneta-lowrank", "serve-mixed")
COLD_STARTS = 11
# Times a cold start reports; all are host-adjusted.
COLD_TIMES = ("setup_s", "import_s", "build_s", "reduce_s", "warmup_s")


def metric_units(root):
    """``(end_to_end, per_layer)`` as ``{name: unit}`` from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def environment(root):
    """Child-process environment: the checkout's ``src`` on the path.

    Everything else, BLAS threading included, is left as the caller's
    environment has it, so the program runs with its own defaults.
    """
    env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE"}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Calibration:
    """A fixed, seeded, benchmark-owned kernel that tracks host speed.

    Batched ``np.linalg.eig`` of 200 random 37x37 matrices: the ladder
    kernel's shape, independent of the program.  It runs between timed
    events, and ``ledger.HostClock`` scales their times by it.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.matrices = np.random.default_rng(2005).standard_normal(
            (200, 37, 37)
        )

    def __call__(self):
        start = time.perf_counter()
        self.np.linalg.eig(self.matrices)
        return time.perf_counter() - start


def cold_start(root, env, workload, directory, seed):
    """One Study cold start in a fresh interpreter; its JSON report."""
    command = [sys.executable, str(Path(__file__).with_name("coldstart.py")),
               "--workload", workload, "--workdir", str(directory),
               "--seed", str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE) as process:
        try:
            line = process.stdout.readline()
            ready = time.perf_counter() - started
            process.wait(timeout=120)
        except BaseException:
            process.kill()
            raise
    if process.returncode != 0 or not line:
        raise RuntimeError(f"cold start of {workload} failed "
                           f"(exit {process.returncode})")
    report = json.loads(line)
    report["setup_s"] = ready
    return report


def run_study(root, env, work, args, host, cold_starts):
    """A Study workload; returns ``(report, metrics)``.

    The cold starts are spread through the timed requests (one before
    the first, then one every ``seconds / cold_starts`` of request
    time), each in a fresh interpreter while this process waits.  Each
    request and each cold start is bracketed by host calibrations, and
    its times are host-adjusted (``ledger.HostClock``).
    """
    import numpy as np

    import studies
    from ledger import Ledger, Report, Spread, median, phases

    spec = studies.SPECS[args.workload]
    size = spec.tiny_instances if args.tiny else spec.instances
    cold = []
    problems = []
    schedule = Spread(cold_starts, args.seconds)

    def cold_start_once():
        directory = studies.fresh_directory(work, f"cold-{schedule.done}")
        schedule.done += 1
        mark = host.mark()
        try:
            report = cold_start(root, env, args.workload, directory,
                                args.seed)
        except (RuntimeError, ValueError) as exc:
            problems.append(str(exc))
            return
        factor = host.factor(mark)
        report["raw_setup_s"] = report["setup_s"]
        for name in COLD_TIMES:
            report[name] *= factor
        cold.append(report)
        problems.extend(report["problems"])

    # Set up this process the same way (untimed), then warm up with one
    # full-size request so lazy first-use costs stay out of the timing.
    model = studies.reduce_model(spec, studies.build_parametric(spec))
    try:
        warm = studies.run_request(spec, model, args.seed, size,
                                   studies.fresh_directory(work, "warm"))
        problems += studies.check_request(spec, warm)
    except Exception as exc:  # noqa: BLE001 - the timed requests count it
        problems.append(f"warm-up failed: {type(exc).__name__}: {exc}")

    rng = np.random.default_rng(args.seed)
    walls = {False: [], True: []}
    raw_walls = []
    ledger = Ledger(studies.LAYERS)
    layer_samples = {name: [] for name in (
        *studies.LAYER_METRICS, "store.bytes_written",
        "warehouse.rows_added")}
    instances = {False: 0, True: 0}
    attempted = failed = 0
    spent = 0.0  # request time so far, all phases, cold starts excluded
    for traced, duration in phases(args.seconds, args.trace):
        phase_end = spent + duration
        while not walls[traced] or spent < phase_end:
            if schedule.due(spent):
                cold_start_once()
            attempted += 1
            mark = host.mark()
            began = time.perf_counter()
            directory = studies.fresh_directory(work, "request")
            try:
                request = studies.run_request(
                    spec, model, int(rng.integers(1, 2 ** 31)), size,
                    directory, traced=traced,
                )
            except Exception as exc:  # noqa: BLE001 - counted as failed
                failed += 1
                problems.append(f"request failed: {type(exc).__name__}: "
                                f"{exc}")
                if failed > 3:
                    break
                spent += time.perf_counter() - began
                continue
            spent += time.perf_counter() - began
            factor = host.factor(mark)
            problems += studies.check_request(spec, request)
            walls[traced].append(request.wall * factor)
            instances[traced] += request.plan.num_samples
            if not traced:
                raw_walls.append(request.wall)
            else:
                layers = {name: seconds * factor for name, seconds in
                          studies.request_layers(request).items()}
                ledger.add(request.wall * factor, layers)
                for name, layer in studies.LAYER_METRICS.items():
                    layer_samples[name].append(layers[layer])
                layer_samples["store.bytes_written"].append(
                    request.counters.get("store.bytes_written", 0))
                layer_samples["warehouse.rows_added"].append(
                    request.ingest.rows_added)
    while schedule.done < schedule.count:  # a run cut short by failures
        cold_start_once()
    shutil.rmtree(work / "request", ignore_errors=True)

    untraced = walls[False]
    metrics = {
        "setup_s": median([c["setup_s"] for c in cold]),
        "throughput_per_s":
            instances[False] / sum(untraced) if untraced else 0.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup.import_s": median([c["import_s"] for c in cold]),
        "engine.warmup_s": median([c["warmup_s"] for c in cold]),
        "circuits.build_s": median([c["build_s"] for c in cold]),
        "core.reduce_s": median([c["reduce_s"] for c in cold]),
        "core.order_q": float(model.nominal.order),
        "host.calib_s": median(host.samples),
    }
    report = Report(
        attempted=attempted, failed=failed, problems=problems,
        setup_samples=[c["setup_s"] for c in cold],
        calib_samples=host.samples, latencies=untraced,
        raw_latencies=raw_walls,
        raw_setup_samples=[c["raw_setup_s"] for c in cold],
    )
    if args.trace:
        kernel_total = ledger.totals["kernels (chunk self)"]
        metrics.update({name: median(values)
                        for name, values in layer_samples.items()})
        metrics["kernel.instances_per_s"] = \
            instances[True] / kernel_total if kernel_total else 0.0
        untraced_median = median(untraced)
        metrics["trace.overhead_ratio"] = median(walls[True]) / \
            untraced_median if untraced_median else 0.0
        metrics["trace.attributed_share"] = ledger.attributed_share()
        report.ledger = ledger
    return report, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (one cold start, tiny studies)")
    args = parser.parse_args(argv)

    # Let a SIGTERM unwind through the finally blocks, which stop the
    # server and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} is not a repro checkout (no src/repro)",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_units(root)
    sys.path.insert(0, str(root / "src"))
    env = environment(root)
    work = root / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    cold_starts = 1 if args.tiny else COLD_STARTS
    try:
        from ledger import HostClock

        host = HostClock(Calibration())
        if args.workload == "serve-mixed":
            import serve_mixed

            report, metrics = serve_mixed.run(
                env, work, args.seed, args.seconds, args.tiny, args.trace,
                host, cold_starts,
            )
        else:
            report, metrics = run_study(root, env, work, args, host,
                                        cold_starts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    from ledger import REFERENCE_S, median, tail

    latencies = report.latencies
    if not latencies:
        report.problems.append("no untraced request was answered")
    tail_value, tail_rank, samples = tail(latencies)
    metrics["time_to_answer_s"] = median(latencies)
    metrics["time_to_answer_tail_s"] = tail_value
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    if report.host_adjusted:
        print(f"# times are host-adjusted to a {REFERENCE_S:g} s "
              f"calibration kernel; as measured, median answer "
              f"{median(report.raw_latencies):.4f} s and setup "
              f"{median(report.raw_setup_samples):.4f} s")
    else:
        print("# times are as measured, not host-adjusted")
    print("# setup samples (s): "
          + " ".join(f"{s:.4f}" for s in report.setup_samples))
    print("# host.calib samples (s): "
          + " ".join(f"{s:.4f}" for s in report.calib_samples))
    print(f"# time_to_answer_tail_s is p{tail_rank:.1f} of {samples} "
          f"untraced answers")
    for problem in report.problems:
        print(f"# CHECK FAILED: {problem}")
    if report.ledger is not None:
        for line in report.ledger.table():
            print(line)
    units = {**end_to_end, **per_layer}
    for name, unit in units.items():
        if name in metrics:
            print(f"# {name:<30} {metrics[name]:.6g} {unit}")
    wanted = per_layer if args.trace else end_to_end
    correct = not report.problems
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit} for name, unit in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
