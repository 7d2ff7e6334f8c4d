"""Benchmark-side spans, per-request layer accounting and statistics.

Everything here is owned by the benchmark: it times calls *into* the
program's layers from outside and reads the spans the program already
exports through ``Study.trace`` (``study.run`` > ``study.chunk`` >
``store.save``).  Nothing is added inside ``src/``.
"""

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


def median(values):
    """Median of ``values`` (0.0 for an empty sequence)."""
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """``(value, percentile, samples)`` of the high tail of ``values``.

    The value is the highest order statistic with at least ten samples
    beyond it (the 11th largest), and ``percentile`` is its rank.  With
    ten samples or fewer nothing qualifies and the maximum is reported
    at the 100th percentile; with none, 0.0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


# Host-adjusted seconds are seconds on a host where the calibration
# kernel (run.Calibration) takes this long.
REFERENCE_S = 0.1


class HostClock:
    """Host-speed samples taken between timed events.

    The host's speed drifts by up to 2x over tens of seconds, and CPU
    time drifts with wall time, so the drift is in the host, not in
    scheduling.  Every timed event of a Study workload (a request or a
    cold start) is bracketed by two runs of a fixed benchmark-owned
    kernel, and its times are scaled by ``REFERENCE_S`` over their
    mean: the event's time on a host of reference speed.
    """

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.samples = [calibrate()]

    def mark(self):
        """Index of the latest sample: the start bracket of an event."""
        return len(self.samples) - 1

    def sample(self):
        self.samples.append(self.calibrate())

    def factor(self, mark):
        """Take a sample; the adjustment for an event since ``mark``."""
        self.sample()
        return REFERENCE_S / (0.5 * (self.samples[mark] + self.samples[-1]))


def phases(seconds, trace):
    """``[(traced, seconds)]``: the whole run untraced, or half and half."""
    if not trace:
        return [(False, seconds)]
    return [(False, seconds / 2.0), (True, seconds / 2.0)]


class Spread:
    """``count`` events spread evenly over ``seconds`` of measured time.

    ``due(spent)`` is true when the next event's turn has come: the
    first at 0 s, the k-th after ``k * seconds / count``.  Cold starts
    are spread through a run this way, so their median averages over
    the host's speed during the whole run, not one moment of it.
    """

    def __init__(self, count, seconds):
        self.count = count
        self.seconds = seconds
        self.done = 0

    def due(self, spent):
        return self.done < self.count and \
            spent >= self.done * self.seconds / self.count


@dataclass
class Report:
    """What a workload hands back besides its metrics."""

    attempted: int
    failed: int
    problems: list
    setup_samples: list
    calib_samples: list
    latencies: list        # untraced request-to-answer seconds
    raw_latencies: list    # the same, as measured (not host-adjusted)
    raw_setup_samples: list
    ledger: Optional["Ledger"] = None
    host_adjusted: bool = True


class Spans:
    """Wall-clock spans the benchmark opens around one request's calls.

    Each record is ``(name, start, end)`` on ``time.perf_counter``;
    :meth:`seconds` folds them per name.
    """

    def __init__(self):
        self.records = []

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, start, time.perf_counter()))

    def seconds(self, name):
        return sum(end - start for n, start, end in self.records if n == name)


def program_span_seconds(records, name, parent_name=None):
    """Total wall seconds of the program's spans called ``name``.

    ``records`` are trace records from a ``MemorySink``.  With
    ``parent_name`` only spans whose parent span has that name count,
    so a child's time is subtracted from the right parent.
    """
    spans = [r for r in records if r.get("type") == "span"]
    names = {r["span_id"]: r["name"] for r in spans}
    return sum(
        r["wall_seconds"] for r in spans
        if r["name"] == name
        and (parent_name is None or names.get(r["parent_id"]) == parent_name)
    )


class Ledger:
    """Per-layer self time summed over the traced requests of a run.

    ``add(wall, layers)`` takes one request's wall time and its
    ``{layer: self seconds}``; whatever the layers do not cover is the
    request's unattributed remainder.
    """

    def __init__(self, order):
        self.order = list(order)
        self.wall = 0.0
        self.totals = {layer: 0.0 for layer in self.order}
        self.requests = 0

    def add(self, wall, layers):
        self.requests += 1
        self.wall += wall
        for layer, seconds in layers.items():
            self.totals[layer] += seconds

    @property
    def attributed(self):
        return sum(self.totals.values())

    def attributed_share(self):
        return self.attributed / self.wall if self.wall else 0.0

    def table(self):
        """The layer table as printable lines."""
        lines = [f"# ledger over {self.requests} traced requests, "
                 f"{self.wall:.3f} s of request wall time",
                 f"# {'layer':<28} {'self_s':>10} {'share':>8}"]
        for layer in self.order:
            seconds = self.totals[layer]
            share = seconds / self.wall if self.wall else 0.0
            lines.append(f"# {layer:<28} {seconds:>10.4f} {share:>8.2%}")
        rest = self.wall - self.attributed
        share = rest / self.wall if self.wall else 0.0
        lines.append(f"# {'(unattributed)':<28} {rest:>10.4f} {share:>8.2%}")
        return lines
