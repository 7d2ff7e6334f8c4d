"""Chunked streaming studies: million-sample plans in bounded memory.

The one-shot batch kernels materialize every intermediate for the whole
ensemble at once -- ``(m, q, q)`` system stacks, ``(m, nt + 1, m_out)``
trajectories, ``(m, n_f, m_out, m_in)`` response grids.  For a
laptop-scale reduced model that caps ``m`` at a few tens of thousands;
the paper's protocol (and the ROADMAP's million-user north star) wants
ensembles far beyond that.

This module runs any scenario plan through the existing batch kernels
in **fixed-size chunks** with incremental reducers:

- :func:`stream_sweep_study` -- frequency-domain: chunked
  :func:`~repro.runtime.batch.batch_sweep_study` for dense-batchable
  models, chunked
  :meth:`~repro.runtime.sparse.SparsePatternFamily.frequency_response`
  for sparse full-order models;
- :func:`stream_transient_study` -- time-domain: chunked
  :func:`~repro.runtime.transient.batch_transient_study` with the
  delay/slew metrics extracted per chunk.

Peak-memory bound
-----------------

Per chunk of ``c`` instances (order ``q``, ``n_f`` frequencies,
``n_t`` timesteps, ``m_out``/``m_in`` ports), the drivers hold

- sweep:      ``16 c (2 q^2 + q (q + m_in) + n_f m_out m_in)`` bytes
  (system stacks + eigenfactors + the chunk's response grid),
- transient:  ``8 c (4 q^2 + n_t q + (n_t + 1) m_out)`` bytes
  (system stacks + propagators + forcing table + trajectories),

within a small constant factor -- see :func:`sweep_chunk_bytes` and
:func:`transient_chunk_bytes`.  Everything retained across chunks is
``O(m)`` scalars per instance (delays, poles, steady states) plus the
``O(n_f)`` / ``O(n_t)`` envelope accumulators, so total memory is flat
in the plan size for any fixed ``chunk_size``.  (The accumulator's
three running arrays are part of the working set and are included in
the engine's :class:`~repro.runtime.engine.ExecutionPlan` peak
estimate as a fixed term.)

Checkpoint units
----------------

Each chunk is also the **checkpoint unit** of the durable-study layer
(:mod:`repro.runtime.store`): the drivers accept a
:class:`~repro.runtime.store.StudyCheckpoint` and, per chunk, either
load the persisted payload (envelope contributions + per-instance
blocks) or compute it and persist it before folding.  Because the
folded arrays round-trip ``.npz`` bit-exactly and are folded in the
same chunk order, a resumed or sharded-then-merged study is
bit-identical to an uninterrupted one.  ``shard=(i, n)`` restricts a
driver to the chunks with ``index % n == i``; the result then covers
only those instances (``instance_indices`` maps them back to plan
rows).

Determinism contract
--------------------

Every per-instance quantity (responses, poles, trajectories, delays,
slews, steady states) and the envelope ``min``/``max`` are
**bit-identical** to the one-shot batched path: the batch kernels
process instances independently, so slicing the sample matrix into
chunks cannot change any row's arithmetic.  The envelope ``mean`` is
accumulated as a running chunk sum and may differ from the one-shot
``numpy.mean`` (pairwise summation) in the last bits -- the only
deliberate deviation, and it is documented here.  Progress callbacks
``progress(done, total)`` fire after every chunk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.batch import (
    _sweep_study,
    as_sample_matrix,
    supports_batching,
)
from repro.runtime.scenarios import ScenarioPlan, StepInput
from repro.runtime.sparse import shared_pattern_family, supports_sparse_batching
from repro.runtime.transient import _transient_study, default_horizon

ProgressCallback = Callable[[int, int], None]

# Per-chunk instruments, shared by the sweep/transient drivers and the
# engine's pole loop.  Counters/histograms are always live (a handful of
# attribute updates per *chunk*); spans additionally fire only while a
# trace sink is installed.
_CHUNKS_COMPLETED = obs_metrics.counter("study.chunks_completed")
_INSTANCES_EVALUATED = obs_metrics.counter("study.instances_evaluated")
_CHUNK_WALL = obs_metrics.histogram("study.chunk_wall_seconds")
_CHUNK_CPU = obs_metrics.histogram("study.chunk_cpu_seconds")


def _realize_samples(model, scenarios) -> Tuple[Optional[ScenarioPlan], np.ndarray]:
    if isinstance(scenarios, ScenarioPlan) or hasattr(scenarios, "sample_matrix"):
        return scenarios, scenarios.sample_matrix(model.num_parameters)
    return None, as_sample_matrix(model, scenarios)


def _chunk_slices(num_items: int, chunk_size: Optional[int]):
    if chunk_size is None:
        chunk_size = num_items
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    for lo in range(0, num_items, chunk_size):
        yield lo, min(lo + chunk_size, num_items)


def _owned_chunks(num_items: int, chunk_size: Optional[int], shard):
    """``(index, lo, hi)`` for the chunks this run executes.

    ``shard=(i, n)`` keeps the chunks with ``index % n == i`` (the
    global chunk grid is identical for every shard, so shards own
    disjoint checkpoint units and a merge sees no gaps or overlaps).
    """
    chunks = [
        (index, lo, hi)
        for index, (lo, hi) in enumerate(_chunk_slices(num_items, chunk_size))
    ]
    if shard is None:
        return chunks
    index, of = shard
    owned = [chunk for chunk in chunks if chunk[0] % of == index]
    if not owned:
        raise ValueError(
            f"shard {index + 1}/{of} owns no chunks: the study has only "
            f"{len(chunks)} chunk(s); lower the shard count or the chunk size"
        )
    return owned


def sweep_chunk_bytes(
    order: int,
    num_frequencies: int,
    chunk_size: int,
    num_outputs: int = 1,
    num_inputs: int = 1,
) -> int:
    """Estimated peak bytes one sweep chunk holds (constant factor ~2).

    ``16 c (2 q^2 + q (q + m_in) + n_f m_out m_in)``: the complex
    eigenvector stack dominates for big models, the response grid for
    dense frequency axes.  Use it to size ``chunk_size`` against a
    memory budget: ``chunk_size ~= budget_bytes / sweep_chunk_bytes(q,
    n_f, 1, ...)``.
    """
    q = order
    per_instance = 2 * q * q + q * (q + num_inputs) + num_frequencies * num_outputs * num_inputs
    return int(16 * chunk_size * per_instance)


def transient_chunk_bytes(
    order: int,
    num_steps: int,
    chunk_size: int,
    num_outputs: int = 1,
) -> int:
    """Estimated peak bytes one transient chunk holds (constant factor ~2).

    ``8 c (4 q^2 + n_t q + (n_t + 1) m_out)``: system + propagator
    stacks plus the precomputed forcing table and output trajectories.
    """
    q = order
    per_instance = 4 * q * q + num_steps * q + (num_steps + 1) * num_outputs
    return int(8 * chunk_size * per_instance)


def _chunk_telemetry(wall0: float, cpu0: float, instances: int) -> dict:
    """Per-chunk compute telemetry persisted into the store manifest."""
    return {
        "wall_seconds": time.perf_counter() - wall0,
        "cpu_seconds": time.process_time() - cpu0,
        "instances": int(instances),
    }


def _observe_chunk(wall0: float, cpu0: float, instances: int) -> None:
    """Fold one finished chunk into the global metrics registry."""
    _CHUNKS_COMPLETED.inc()
    _INSTANCES_EVALUATED.inc(instances)
    _CHUNK_WALL.observe(time.perf_counter() - wall0)
    _CHUNK_CPU.observe(time.process_time() - cpu0)


def _sweep_chunk_payload(
    model,
    family,
    freqs: np.ndarray,
    block: np.ndarray,
    num_poles: Optional[int] = None,
    keep_poles: bool = False,
    keep_responses: bool = False,
    solver=None,
) -> dict:
    """One sweep chunk's persistable payload (the checkpoint unit).

    The single definition of what a sweep chunk *is*, shared by the
    streaming driver and the work-stealing drain loop
    (:meth:`repro.runtime.engine.Study.work`) -- both paths therefore
    checkpoint byte-identical arrays for the same chunk.  ``family`` is
    the shared sparsity pattern for sparse targets, ``None`` for dense.

    ``solver`` (a :class:`~repro.runtime.lowrank.LowRankEnsembleSolver`)
    switches the dense kernel to the low-rank correction path.  Every
    kernel below treats instances independently, so chunked payloads
    are bit-identical to one-shot evaluation whichever route the
    planner picked.
    """
    if family is None:
        if solver is not None:
            responses, poles = solver.sweep(
                block, freqs, num_poles=num_poles, want_poles=keep_poles
            )
        else:
            responses, poles = _sweep_study(
                model, freqs, block, num_poles=num_poles, want_poles=keep_poles
            )
    else:
        responses = family.frequency_response(freqs, block)
        poles = None
    magnitudes = np.abs(responses)
    payload = {
        "env_min": magnitudes.min(axis=0),
        "env_max": magnitudes.max(axis=0),
        "env_sum": magnitudes.sum(axis=0),
    }
    if keep_poles:
        payload["poles"] = poles
    if keep_responses:
        payload["responses"] = responses
    return payload


def _transient_chunk_payload(
    model,
    block: np.ndarray,
    waveform,
    t_final: float,
    num_steps: int,
    method: str,
    delay_threshold: float,
    slew_bounds: Tuple[float, float],
    output_index: int,
    reference: str,
    keep_outputs: bool = False,
) -> dict:
    """One transient chunk's persistable payload (the checkpoint unit).

    Counterpart of :func:`_sweep_chunk_payload` for the time-domain
    driver; same sharing contract.
    """
    study = _transient_study(
        model, block,
        waveform=waveform, t_final=t_final, num_steps=num_steps, method=method,
    )
    outputs = study.result.outputs
    payload = {
        "env_min": outputs.min(axis=0),
        "env_max": outputs.max(axis=0),
        "env_sum": outputs.sum(axis=0),
        "delays": study.delays(
            threshold=delay_threshold,
            output_index=output_index,
            reference=reference,
        ),
        "slews": study.slews(
            low=slew_bounds[0],
            high=slew_bounds[1],
            output_index=output_index,
            reference=reference,
        ),
        "steady_states": study.steady_states,
    }
    if keep_outputs:
        payload["outputs"] = outputs
    return payload


class _EnvelopeAccumulator:
    """Running per-position min / sum / max over the instance axis."""

    def __init__(self):
        self.minimum: Optional[np.ndarray] = None
        self.maximum: Optional[np.ndarray] = None
        self.total: Optional[np.ndarray] = None
        self.count = 0

    def update(self, block: np.ndarray) -> None:
        """Fold in a ``(chunk, ...)`` block of per-instance values."""
        self.merge(
            block.min(axis=0), block.max(axis=0), block.sum(axis=0), block.shape[0]
        )

    def merge(
        self,
        chunk_min: np.ndarray,
        chunk_max: np.ndarray,
        chunk_sum: np.ndarray,
        count: int,
    ) -> None:
        """Fold in one chunk's already-reduced ``(min, max, sum, count)``.

        This is the seam the durable-study checkpoints use: the same
        three arrays :meth:`update` reduces from a live block are
        persisted per chunk and folded back through this method on
        resume, in the same order, so the accumulated state (including
        the chunk-ordered ``total`` behind :attr:`mean`) is
        bit-identical either way.
        """
        if self.minimum is None:
            self.minimum = chunk_min
            self.maximum = chunk_max
            self.total = chunk_sum
        else:
            self.minimum = np.minimum(self.minimum, chunk_min)
            self.maximum = np.maximum(self.maximum, chunk_max)
            self.total = self.total + chunk_sum
        self.count += count

    @property
    def mean(self) -> np.ndarray:
        """Chunk-accumulated mean (see the module determinism contract)."""
        return self.total / self.count


@dataclass
class StreamedSweepStudy:
    """Incremental result of a chunked frequency-domain study.

    ``envelope_*`` hold the per-(frequency, output, input) magnitude
    statistics over all instances; ``poles`` is the stacked
    ``(m, num_poles)`` array (dense-batchable models only);
    ``responses`` is kept only when the driver was asked to retain the
    full grid (small studies / regression tests).
    """

    plan: Optional[ScenarioPlan]
    samples: np.ndarray
    frequencies: np.ndarray
    envelope_min: np.ndarray
    envelope_mean: np.ndarray
    envelope_max: np.ndarray
    num_chunks: int
    chunk_size: int
    poles: Optional[np.ndarray] = None
    responses: Optional[np.ndarray] = None
    shard: Optional[Tuple[int, int]] = None
    instance_indices: Optional[np.ndarray] = None

    @property
    def num_samples(self) -> int:
        """Number of evaluated parameter instances."""
        return self.samples.shape[0]

    def magnitude_envelope(
        self, output_index: int = 0, input_index: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-frequency ``(min, mean, max)`` of ``|H|`` across instances.

        Signature-compatible with
        :meth:`~repro.runtime.scenarios.ScenarioSweep.magnitude_envelope`.
        """
        index = (slice(None), output_index, input_index)
        return (
            self.envelope_min[index],
            self.envelope_mean[index],
            self.envelope_max[index],
        )


def _stream_sweep_study(
    model,
    frequencies: Sequence[float],
    scenarios,
    chunk_size: Optional[int] = None,
    num_poles: Optional[int] = 5,
    keep_responses: bool = False,
    progress: Optional[ProgressCallback] = None,
    checkpoint=None,
    shard: Optional[Tuple[int, int]] = None,
    solver=None,
) -> StreamedSweepStudy:
    """Run a scenario plan's frequency study in fixed-size chunks.

    This is the engine-internal driver behind every sweep route of
    :class:`repro.runtime.engine.Study`; the historical public name
    :func:`stream_sweep_study` is a deprecated shim over it.
    ``checkpoint`` (a :class:`~repro.runtime.store.StudyCheckpoint`)
    turns every chunk into a persisted checkpoint unit; ``shard=(i,
    n)`` restricts the run to its slice of the global chunk grid --
    see the module notes on checkpoint units.

    Parameters
    ----------
    model:
        A dense-batchable reduced model (chunked through
        :func:`~repro.runtime.batch.batch_sweep_study`: responses *and*
        dominant poles from one eigendecomposition per instance) or a
        sparse full-order parametric system (chunked through the
        shared-pattern solver kernels; set ``num_poles=None`` --
        full-order dense eigendecompositions are not a streaming
        quantity).
    frequencies:
        Frequency axis in hertz.
    scenarios:
        A :class:`~repro.runtime.scenarios.ScenarioPlan` or a raw
        ``(m, n_p)`` sample matrix.
    chunk_size:
        Instances per chunk (default: everything in one chunk).  Peak
        memory scales with this -- see :func:`sweep_chunk_bytes`.
    num_poles:
        Dominant poles retained per instance (dense models); ``None``
        skips pole extraction.
    keep_responses:
        Retain the full ``(m, n_f, m_out, m_in)`` grid.  Defeats the
        memory bound; for small studies and regression tests.
    progress:
        ``progress(instances_done, total_instances)`` after each chunk.
    solver:
        An optional :class:`~repro.runtime.lowrank.LowRankEnsembleSolver`
        routing the dense chunks through the low-rank correction kernel.
    """
    dense = supports_batching(model)
    if not dense and not supports_sparse_batching(model):
        raise ValueError(
            f"{model!r} supports neither dense nor sparse batching; "
            "see repro.runtime.batch.supports_batching"
        )
    plan, samples = _realize_samples(model, scenarios)
    freqs = np.asarray(frequencies, dtype=float)
    if not dense and num_poles is not None:
        raise ValueError(
            "full-order sparse streaming computes responses only; "
            "pass num_poles=None (dense eigendecompositions of the full "
            "model are not a streaming quantity)"
        )
    family = None if dense else shared_pattern_family(model)

    total = samples.shape[0]
    if total == 0:
        raise ValueError("scenario plan produced no samples")
    envelope = _EnvelopeAccumulator()
    pole_blocks = [] if (dense and num_poles is not None) else None
    response_blocks = [] if keep_responses else None
    num_chunks = 0
    effective_chunk = chunk_size if chunk_size is not None else max(total, 1)
    owned = _owned_chunks(total, chunk_size, shard)
    shard_total = sum(hi - lo for _, lo, hi in owned)
    done = 0
    num_owned = len(owned)
    for index, lo, hi in owned:
        with obs_trace.span(
            "study.chunk", workload="sweep", index=index, lo=lo, hi=hi,
            instances=hi - lo, shard=None if shard is None else list(shard),
        ) as chunk_span:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            payload = checkpoint.load(index) if checkpoint is not None else None
            loaded = payload is not None
            if payload is None:
                payload = _sweep_chunk_payload(
                    model, family, freqs, samples[lo:hi],
                    num_poles=num_poles,
                    keep_poles=pole_blocks is not None,
                    keep_responses=response_blocks is not None,
                    solver=solver,
                )
                if checkpoint is not None:
                    checkpoint.save(
                        index, lo, hi, payload,
                        telemetry=_chunk_telemetry(wall0, cpu0, hi - lo),
                    )
            envelope.merge(
                payload["env_min"], payload["env_max"], payload["env_sum"], hi - lo
            )
            if pole_blocks is not None:
                pole_blocks.append(payload["poles"])
            if response_blocks is not None:
                response_blocks.append(payload["responses"])
            num_chunks += 1
            done += hi - lo
            _observe_chunk(wall0, cpu0, hi - lo)
            chunk_span.set(
                loaded=loaded, done=done, total=shard_total,
                chunks_done=num_chunks, num_chunks=num_owned,
            )
        if progress is not None:
            progress(done, shard_total)
    if shard is None:
        covered, indices = samples, None
    else:
        indices = np.concatenate([np.arange(lo, hi) for _, lo, hi in owned])
        covered = samples[indices]
    return StreamedSweepStudy(
        plan=plan,
        samples=covered,
        frequencies=freqs,
        envelope_min=envelope.minimum,
        envelope_mean=envelope.mean,
        envelope_max=envelope.maximum,
        num_chunks=num_chunks,
        chunk_size=effective_chunk,
        poles=None if pole_blocks is None else np.concatenate(pole_blocks, axis=0),
        responses=None
        if response_blocks is None
        else np.concatenate(response_blocks, axis=0),
        shard=shard,
        instance_indices=indices,
    )


def stream_sweep_study(
    model,
    frequencies: Sequence[float],
    scenarios,
    chunk_size: Optional[int] = None,
    num_poles: Optional[int] = 5,
    keep_responses: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> StreamedSweepStudy:
    """Deprecated shim: chunked frequency-domain scenario study.

    Delegates to the identical internal driver the engine uses, so
    results are bit-for-bit what they always were; emits one
    :class:`FutureWarning` per call.  Use
    ``Study(model).scenarios(scenarios).sweep(frequencies)
    .poles(num_poles).chunk(chunk_size).run()`` instead (the engine
    skips pole extraction unless ``.poles(...)`` is declared, where
    this shim defaulted to ``num_poles=5``).
    """
    from repro.runtime._deprecation import warn_legacy

    warn_legacy(
        "stream_sweep_study",
        "Study(model).scenarios(scenarios).sweep(frequencies)"
        ".poles(num_poles).chunk(chunk_size).run()",
    )
    return _stream_sweep_study(
        model,
        frequencies,
        scenarios,
        chunk_size=chunk_size,
        num_poles=num_poles,
        keep_responses=keep_responses,
        progress=progress,
    )


@dataclass
class StreamedTransientStudy:
    """Incremental result of a chunked time-domain study.

    ``envelope_*`` hold per-(timestep, output) statistics across all
    instances; ``delays`` / ``slews`` / ``steady_states`` are the
    per-instance metrics extracted chunk by chunk (bit-identical to the
    one-shot :class:`~repro.runtime.transient.TransientStudy` methods);
    ``outputs`` is kept only on request.
    """

    plan: Optional[ScenarioPlan]
    waveform: object
    samples: np.ndarray
    time: np.ndarray
    method: str
    envelope_min: np.ndarray
    envelope_mean: np.ndarray
    envelope_max: np.ndarray
    delays: np.ndarray
    slews: np.ndarray
    steady_states: np.ndarray
    num_chunks: int
    chunk_size: int
    outputs: Optional[np.ndarray] = None
    shard: Optional[Tuple[int, int]] = None
    instance_indices: Optional[np.ndarray] = None

    @property
    def num_samples(self) -> int:
        """Number of simulated parameter instances."""
        return self.samples.shape[0]

    def output_envelope(
        self, output_index: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-timestep ``(min, mean, max)`` across instances."""
        index = (slice(None), output_index)
        return (
            self.envelope_min[index],
            self.envelope_mean[index],
            self.envelope_max[index],
        )


def _stream_transient_study(
    model,
    scenarios,
    waveform=None,
    t_final: Optional[float] = None,
    num_steps: int = 500,
    method: str = "trapezoidal",
    chunk_size: Optional[int] = None,
    delay_threshold: float = 0.5,
    slew_bounds: Tuple[float, float] = (0.1, 0.9),
    output_index: int = 0,
    reference: str = "steady",
    keep_outputs: bool = False,
    progress: Optional[ProgressCallback] = None,
    checkpoint=None,
    shard: Optional[Tuple[int, int]] = None,
) -> StreamedTransientStudy:
    """Run a scenario plan's transient ensemble in fixed-size chunks.

    The streaming face of the batched propagator kernel: each chunk
    is simulated through it, the delay/slew/steady-state metrics are
    extracted immediately (with the given ``delay_threshold`` /
    ``slew_bounds`` / ``reference`` semantics of
    :class:`~repro.runtime.transient.TransientStudy`), and only
    ``O(m)`` metrics plus the ``O(n_t)`` envelope survive the chunk.
    Peak memory: :func:`transient_chunk_bytes`.  ``checkpoint`` /
    ``shard`` have the checkpoint-unit semantics described in the
    module notes.

    ``t_final`` defaults to the nominal settling horizon, computed once
    and shared across all chunks.

    This is the engine-internal driver behind every transient route of
    :class:`repro.runtime.engine.Study`; the historical public name
    :func:`stream_transient_study` is a deprecated shim over it.
    """
    if not supports_batching(model):
        raise ValueError(
            "stream_transient_study requires a dense-batchable model "
            "(reduce the system first; full-order sparse ensembles are "
            "frequency-domain only)"
        )
    plan, samples = _realize_samples(model, scenarios)
    if waveform is None:
        waveform = StepInput()
    if t_final is None:
        t_final = default_horizon(model)

    total = samples.shape[0]
    if total == 0:
        raise ValueError("scenario plan produced no samples")
    envelope = _EnvelopeAccumulator()
    delay_blocks = []
    slew_blocks = []
    steady_blocks = []
    output_blocks = [] if keep_outputs else None
    # Reconstructed, not captured from a simulated chunk: a fully
    # resumed run loads every chunk from the store and simulates none.
    time_axis = np.linspace(0.0, t_final, num_steps + 1)
    num_chunks = 0
    effective_chunk = chunk_size if chunk_size is not None else max(total, 1)
    owned = _owned_chunks(total, chunk_size, shard)
    shard_total = sum(hi - lo for _, lo, hi in owned)
    done = 0
    num_owned = len(owned)
    for index, lo, hi in owned:
        with obs_trace.span(
            "study.chunk", workload="transient", index=index, lo=lo, hi=hi,
            instances=hi - lo, shard=None if shard is None else list(shard),
        ) as chunk_span:
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            payload = checkpoint.load(index) if checkpoint is not None else None
            loaded = payload is not None
            if payload is None:
                payload = _transient_chunk_payload(
                    model, samples[lo:hi],
                    waveform=waveform, t_final=t_final,
                    num_steps=num_steps, method=method,
                    delay_threshold=delay_threshold, slew_bounds=slew_bounds,
                    output_index=output_index, reference=reference,
                    keep_outputs=output_blocks is not None,
                )
                if checkpoint is not None:
                    checkpoint.save(
                        index, lo, hi, payload,
                        telemetry=_chunk_telemetry(wall0, cpu0, hi - lo),
                    )
            envelope.merge(
                payload["env_min"], payload["env_max"], payload["env_sum"], hi - lo
            )
            delay_blocks.append(payload["delays"])
            slew_blocks.append(payload["slews"])
            steady_blocks.append(payload["steady_states"])
            if output_blocks is not None:
                output_blocks.append(payload["outputs"])
            num_chunks += 1
            done += hi - lo
            _observe_chunk(wall0, cpu0, hi - lo)
            chunk_span.set(
                loaded=loaded, done=done, total=shard_total,
                chunks_done=num_chunks, num_chunks=num_owned,
            )
        if progress is not None:
            progress(done, shard_total)
    if shard is None:
        covered, indices = samples, None
    else:
        indices = np.concatenate([np.arange(lo, hi) for _, lo, hi in owned])
        covered = samples[indices]
    return StreamedTransientStudy(
        plan=plan,
        waveform=waveform,
        samples=covered,
        time=time_axis,
        method=method,
        envelope_min=envelope.minimum,
        envelope_mean=envelope.mean,
        envelope_max=envelope.maximum,
        delays=np.concatenate(delay_blocks),
        slews=np.concatenate(slew_blocks),
        steady_states=np.concatenate(steady_blocks, axis=0),
        num_chunks=num_chunks,
        chunk_size=effective_chunk,
        outputs=None if output_blocks is None else np.concatenate(output_blocks, axis=0),
        shard=shard,
        instance_indices=indices,
    )


def stream_transient_study(
    model,
    scenarios,
    waveform=None,
    t_final: Optional[float] = None,
    num_steps: int = 500,
    method: str = "trapezoidal",
    chunk_size: Optional[int] = None,
    delay_threshold: float = 0.5,
    slew_bounds: Tuple[float, float] = (0.1, 0.9),
    output_index: int = 0,
    reference: str = "steady",
    keep_outputs: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> StreamedTransientStudy:
    """Deprecated shim: chunked time-domain scenario study.

    Delegates to the identical internal driver the engine uses, so
    results are bit-for-bit what they always were; emits one
    :class:`FutureWarning` per call.  Use
    ``Study(model).scenarios(scenarios).transient(waveform, t_final,
    num_steps).chunk(chunk_size).run()`` instead.
    """
    from repro.runtime._deprecation import warn_legacy

    warn_legacy(
        "stream_transient_study",
        "Study(model).scenarios(scenarios).transient(waveform, t_final, "
        "num_steps).chunk(chunk_size).run()",
    )
    return _stream_transient_study(
        model,
        scenarios,
        waveform=waveform,
        t_final=t_final,
        num_steps=num_steps,
        method=method,
        chunk_size=chunk_size,
        delay_threshold=delay_threshold,
        slew_bounds=slew_bounds,
        output_index=output_index,
        reference=reference,
        keep_outputs=keep_outputs,
        progress=progress,
    )
