"""Run ``repro serve`` in this process, optionally timing its layers.

    PYTHONPATH=src python3 -u perfbench/serve_host.py [--spans FILE] -- STORE --port 0 ...

Everything after ``--`` goes to ``repro serve`` unchanged.  Before the
server starts this prints ``# perfbench-host import_s=<seconds>``, the
time ``import repro.cli`` took.  With ``--spans FILE`` the benchmark
wraps the public functions the server calls on each submission
(``StudySupervisor.submit`` and, inside it, ``parse_netlist``,
``with_random_variations`` and ``LowRankReducer.reduce``) and appends
one JSON line per submission to FILE with their wall times.  The
wrappers live only in this launcher; the program itself is unchanged.
"""

import json
import signal
import sys
import threading
import time


def install_spans(path):
    """Wrap the submit-path functions; one JSON line per submit to ``path``."""
    import repro.circuits.generators as generators
    import repro.circuits.parser as parser
    from repro.core import LowRankReducer
    from repro.serve.supervisor import StudySupervisor

    local = threading.local()
    lock = threading.Lock()
    out = open(path, "a", buffering=1)

    def timed(name, fn, note=None):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            record = getattr(local, "record", None)
            if record is not None:
                record[name] = record.get(name, 0.0) + \
                    time.perf_counter() - start
                if note is not None:
                    record.update(note(value))
            return value
        return wrapper

    def order(model):
        return {"order_q": int(model.nominal.order)}

    parser.parse_netlist = timed("parse_netlist", parser.parse_netlist)
    generators.with_random_variations = timed(
        "with_random_variations", generators.with_random_variations
    )
    LowRankReducer.reduce = timed(
        "LowRankReducer.reduce", LowRankReducer.reduce, order
    )
    submit = StudySupervisor.submit

    def traced_submit(self, payload):
        local.record = {}
        start = time.perf_counter()
        try:
            job = submit(self, payload)
        finally:
            record, local.record = local.record, None
            record["submit"] = time.perf_counter() - start
        record["job"] = job.id
        with lock:
            out.write(json.dumps(record) + "\n")
        return job

    StudySupervisor.submit = traced_submit


def main(argv):
    spans = None
    if "--" not in argv:
        raise SystemExit("usage: serve_host.py [--spans FILE] -- STORE ...")
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1:]
    if own[:1] == ["--spans"] and len(own) == 2:
        spans = own[1]
    elif own:
        raise SystemExit(f"unknown launcher arguments {own}")

    # A shell that starts a job in the background ignores SIGINT in it;
    # restore the handler so SIGINT stops the server cleanly.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    t0 = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - t0
    print(f"# perfbench-host import_s={import_s!r}", flush=True)
    if spans is not None:
        install_spans(spans)
    return repro.cli.main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
