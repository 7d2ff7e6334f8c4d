"""One cold start of a Study workload, in a fresh interpreter.

Imports ``repro``, builds the workload's parametric system, reduces it,
and runs one small warm-up request (plan, run, store, ingest, query),
which pays the lazy first-use costs such as low-rank detection.  Prints
one JSON line with the time of each step; the parent times the whole
process from spawn to that line as one ``setup_s`` sample.

Run from the checkout root:
    PYTHONPATH=src python3 perfbench/coldstart.py --workload ladder-eig --workdir DIR
"""

import argparse
import json
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - t0

    import studies

    spec = studies.SPECS[args.workload]
    t0 = time.perf_counter()
    parametric = studies.build_parametric(spec)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    model = studies.reduce_model(spec, parametric)
    reduce_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    request = studies.run_request(
        spec, model, args.seed, spec.tiny_instances, Path(args.workdir)
    )
    warmup_s = time.perf_counter() - t0
    problems = studies.check_request(spec, request)
    print(json.dumps({
        "import_s": import_s,
        "build_s": build_s,
        "reduce_s": reduce_s,
        "warmup_s": warmup_s,
        "problems": problems,
    }), flush=True)


if __name__ == "__main__":
    main()
