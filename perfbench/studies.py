"""The two Study workloads: ladder-eig and rcneta-lowrank.

A request is one Monte Carlo frequency study, end to end: plan, run
(chunk kernels, checkpoints into a fresh durable store), ingest into a
fresh warehouse, and one p99 percentile query.  Every request gets its
own store and warehouse directories, so the working set is the same for
the first request of a run and the last.
"""

import hashlib
import shutil
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ledger import Spans, program_span_seconds

FREQUENCIES = np.logspace(7, 10, 30)
QUANTILE = 99.0


def ladder_netlist(segments, resistance="10"):
    """SPICE-style text of a driven ``segments``-stage RC ladder."""
    lines = [f".title rc-ladder-{segments}", f"Rdrv n0 0 {resistance}"]
    for j in range(segments):
        lines.append(f"R{j} n{j} n{j + 1} {resistance}")
        lines.append(f"C{j} n{j + 1} 0 1e-14")
    lines.append(".port in n0")
    lines.append(f".observe far n{segments}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StudySpec:
    """One study workload: its model, request size and expected route."""

    name: str
    kernel: str            # the route check: plan.kernel must equal this
    instances: int         # instances per request
    tiny_instances: int    # instances per request in a smoke run
    chunk: int
    poles: Optional[int]   # dominant poles kept per instance
    keep_responses: bool
    query_table: str       # warehouse table/column of the p99 query
    query_column: str


SPECS = {
    "ladder-eig": StudySpec(
        name="ladder-eig", kernel="eig-rational[sweep-study]",
        instances=1000, tiny_instances=60, chunk=1000, poles=5,
        keep_responses=False, query_table="poles", query_column="re",
    ),
    "rcneta-lowrank": StudySpec(
        name="rcneta-lowrank", kernel="lowrank-woodbury[sweep-study]",
        instances=5000, tiny_instances=300, chunk=1000, poles=None,
        keep_responses=True, query_table="envelope", query_column="env_max",
    ),
}


def build_parametric(spec):
    """The workload's parametric system (the circuits layer)."""
    from repro import parse_netlist, rcnet_a, with_random_variations

    if spec.name == "ladder-eig":
        netlist = parse_netlist(ladder_netlist(200), title="ladder")
        return with_random_variations(netlist, 2, seed=3)
    return rcnet_a()


def reduce_model(spec, parametric):
    """The workload's reduced model (the core layer)."""
    from repro import LowRankReducer

    reducer = LowRankReducer(
        num_moments=4, rank=1,
        approximate_sensitivities=spec.name == "rcneta-lowrank",
    )
    return reducer.reduce(parametric)


@dataclass
class Request:
    """One finished request and everything its checks need."""

    wall: float
    spans: Spans
    plan: object
    result: object
    ingest: object
    answer: dict
    counters: dict
    store_dir: object
    trace: Optional[list] = None


def run_request(spec, model, seed, instances, directory, traced=False):
    """One request: plan -> run -> ingest -> p99 query, in ``directory``."""
    from repro import MonteCarloPlan, Study, Warehouse
    from repro.obs import MemorySink
    from repro.warehouse import QueryEngine

    store_dir = directory / "store"
    warehouse_dir = directory / "warehouse"
    spans = Spans()
    sink = MemorySink() if traced else None
    start = time.perf_counter()
    study = (
        Study(model)
        .scenarios(MonteCarloPlan(num_instances=instances, seed=seed))
        .sweep(FREQUENCIES, keep_responses=spec.keep_responses)
    )
    if spec.poles:
        study = study.poles(spec.poles)
    study = study.chunk(spec.chunk).store(store_dir)
    if sink is not None:
        study = study.trace(sink)
    with spans.span("Study.plan"):
        plan = study.plan()
    with spans.span("Study.run"):
        result = study.run()
    with spans.span("Warehouse.ingest_store"):
        ingest = Warehouse(warehouse_dir).ingest_store(
            store_dir, samples=result.samples
        )
    with spans.span("QueryEngine.percentile"):
        answer = QueryEngine(warehouse_dir).percentile(
            spec.query_column, QUANTILE, table=spec.query_table
        )
    wall = time.perf_counter() - start
    return Request(
        wall=wall, spans=spans, plan=plan, result=result,
        ingest=ingest, answer=answer,
        counters=study.metrics().get("counters", {}), store_dir=store_dir,
        trace=None if sink is None else list(sink.records),
    )


def _expected_values(spec, result):
    """The in-memory column the warehouse query must reduce exactly."""
    if spec.query_table == "poles":
        return np.asarray(result.poles).real.ravel()
    # Each chunk's envelope maximum, rebuilt from the kept responses the
    # same way the chunk kernel computes it.
    magnitudes = np.abs(np.asarray(result.responses))
    blocks = [
        magnitudes[lo:lo + spec.chunk].max(axis=0).ravel()
        for lo in range(0, magnitudes.shape[0], spec.chunk)
    ]
    return np.concatenate(blocks)


def verify_chunks(store_dir, records):
    """Problems found re-hashing each recorded chunk archive from disk."""
    problems = []
    for record in records:
        data = (store_dir / record["file"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != record["sha256"]:
            problems.append(f"chunk {record['index']} fails its SHA-256")
    return problems


def check_request(spec, request):
    """List of problems with one request's outputs (empty when correct)."""
    from repro import StudyStore

    problems = []
    if request.plan.kernel != spec.kernel:
        problems.append(
            f"route: planned {request.plan.kernel!r}, expected {spec.kernel!r}"
        )
    values = _expected_values(spec, request.result)
    values = values[np.isfinite(values)]
    expected = float(np.percentile(values, QUANTILE))
    if request.answer["value"] != expected or \
            request.answer["count"] != values.size:
        problems.append(
            f"warehouse p{QUANTILE:g} {request.answer['value']!r} over "
            f"{request.answer['count']} rows != in-memory {expected!r} "
            f"over {values.size}"
        )
    store = StudyStore(request.store_dir)
    keys = store.study_keys()
    if len(keys) != 1:
        problems.append(f"store holds {len(keys)} studies, expected 1")
    else:
        lineage = store.lineage(keys[0])
        if len(lineage) != request.plan.num_chunks:
            problems.append(
                f"{len(lineage)} chunks recorded, planned "
                f"{request.plan.num_chunks}"
            )
        problems += verify_chunks(store.directory, lineage)
    return problems


def request_layers(request):
    """``{layer: self seconds}`` of one traced request."""
    records = request.trace
    chunk = program_span_seconds(records, "study.chunk")
    save = program_span_seconds(records, "store.save", "study.chunk")
    run = request.spans.seconds("Study.run")
    return {
        "runtime.engine (plan)": request.spans.seconds("Study.plan"),
        "runtime.engine (run self)": run - chunk,
        "kernels (chunk self)": chunk - save,
        "runtime.store (save)": save,
        "warehouse (ingest)": request.spans.seconds("Warehouse.ingest_store"),
        "warehouse (query)": request.spans.seconds("QueryEngine.percentile"),
    }


LAYERS = (
    "runtime.engine (plan)", "runtime.engine (run self)",
    "kernels (chunk self)", "runtime.store (save)",
    "warehouse (ingest)", "warehouse (query)",
)
# Per-layer metrics that are a layer's per-request self time.
LAYER_METRICS = {
    "engine.plan_s": "runtime.engine (plan)",
    "kernel.self_s": "kernels (chunk self)",
    "store.save_s": "runtime.store (save)",
    "warehouse.ingest_s": "warehouse (ingest)",
    "warehouse.query_s": "warehouse (query)",
}


def fresh_directory(root, name):
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
