"""The benchmark's workloads: seeded inputs, one pass, its digest, and its output checks.

Three serving workloads run trace-driven simulations (:mod:`repro.serving`) and one runs
the numeric W4A8 path (:mod:`repro.quant` -> :mod:`repro.layout` -> :mod:`repro.dequant`
-> GEMM in :mod:`repro.kernels`).  Each is an object with the same interface:

* ``make_inputs(seed)`` — everything the passes and checks consume, from the seed alone;
* ``construct()`` — the first engine or kernel construction (timed as part of set-up);
* ``pass_inputs(inputs)`` / ``run_pass(pass_inputs, stages)`` — one timed pass;
* ``operations(inputs)`` — operations one pass attempts (requests or ``run`` calls);
* ``check_pass`` / ``differences`` / ``extra_checks`` — output checks, each returning
  the number of failed operations.

A pass is made of short *units* (:class:`Stages`): a serving pass serves many
independently seeded traces, one per unit, each with a fresh engine and scheduler or
cluster; the W4A8 pass prepares its weight in one unit and makes each ``run`` call in a
unit of its own.  The harness samples the host's speed between units (see
:mod:`perfbench.harness`), and many units make a pass whose work varies little from seed
to seed.

Simulated latencies are outputs of the model: the benchmark checks them (digest,
stepwise twin) and never scores them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import LiquidGemmKernel
from repro.layout import DUAL_MMA_TILE_COLS, DUAL_MMA_TILE_ROWS, unpack_dual_mma_tile
from repro.quant import lqq_dequantize_int8_reference, quantize_activation_per_token
from repro.serving import (
    ClusterSpec,
    ContinuousBatchingScheduler,
    Request,
    ServingCluster,
    ServingEngine,
    SloSpec,
)
from repro.workloads.traces import (
    SHAREGPT_OUTPUTS,
    SHAREGPT_PROMPTS,
    ArrivalProcess,
    LengthDistribution,
    generate_trace,
    tenant_mix_trace,
)

SYSTEM, MODEL, DEVICE = "liquidserve", "llama2-7b", "H800"
SLO = SloSpec(ttft_s=2.0, tpot_s=0.1)
KV_BUDGET_BYTES = 2 * 2**30
HOST_KV_BUDGET_BYTES = 4 * 2**30
#: The ``mixed_phase`` shape of ``benchmarks/bench_scheduler.py``: prefill-heavy lengths.
MIXED_PROMPTS = LengthDistribution.lognormal(median=1024.0, sigma=0.9, maximum=4096)
MIXED_OUTPUTS = LengthDistribution.lognormal(median=200.0, sigma=0.8, maximum=1024)


class Stages:
    """Host seconds of the named stages of one pass; a tracer span around each if traced.

    ``on_unit`` is called, untimed, before the first stage of each unit of the pass.
    """

    def __init__(self, tracer=None, on_unit: Optional[Callable[[], None]] = None):
        self.seconds: Dict[str, float] = {}
        self._tracer = tracer
        self._on_unit = on_unit
        self._unit: Optional[int] = None

    @contextmanager
    def __call__(self, name: str, unit: int = 0):
        if unit != self._unit:
            self._unit = unit
            if self._on_unit is not None:
                self._on_unit()
        span = self._tracer.stage(name) if self._tracer is not None else nullcontext()
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


# ---------------------------------------------------------------------- serving workloads
@dataclass
class ServingPass:
    """The traces one pass served, per unit: the scheduler stats or cluster result, its SLO
    report and its engine."""

    results: List[object]
    reports: List[object]
    engines: List[ServingEngine]

    @staticmethod
    def _stats(result) -> list:
        return getattr(result, "replica_stats", [result])

    @property
    def replica_stats(self) -> list:
        return [s for result in self.results for s in self._stats(result)]

    @property
    def iterations(self) -> int:
        return sum(s.num_iterations for s in self.replica_stats)

    def memo_entries(self) -> int:
        """Step-cost memo entries of every unit's engine at the end of the pass."""
        return sum(c["entries"] for engine in self.engines
                   for c in engine.cache_stats().values())

    def digest_fields(self) -> List[Dict[str, object]]:
        """Per unit: iterations, tokens, simulated end, p50/p99 TTFT/TPOT, preemptions and
        prefix hits."""
        fields = []
        for result, report in zip(self.results, self.reports):
            stats = self._stats(result)
            fields.append({
                "iterations": sum(s.num_iterations for s in stats),
                "generated_tokens": sum(s.generated_tokens for s in stats),
                "simulated_end_s": result.simulated_time_s,
                "p50_ttft_s": report.p50_ttft_s,
                "p99_ttft_s": report.p99_ttft_s,
                "p50_tpot_s": report.p50_tpot_s,
                "p99_tpot_s": report.p99_tpot_s,
                "preemptions": sum(s.preemptions for s in stats),
                "prefix_hits": sum(s.prefix_cache_hits for s in stats),
            })
        return fields

    def digest(self) -> str:
        """Short hash of the digest fields (JSON keeps every digit of the floats)."""
        fields = json.dumps(self.digest_fields(), sort_keys=True)
        return hashlib.sha256(fields.encode()).hexdigest()[:16]

    def outcomes(self) -> Dict[Tuple[int, int], tuple]:
        """Per (unit, request): first token, completion, tokens emitted, preemptions."""
        return {
            (unit, r.request_id): (r.first_token_time_s, r.completion_time_s, r.generated,
                                   r.preemptions)
            for unit, result in enumerate(self.results) for r in result.requests
        }


def _new_engine() -> ServingEngine:
    return ServingEngine(SYSTEM, MODEL, device=DEVICE)


@dataclass
class ServingInputs:
    #: The traces every timed pass serves, one per unit.
    traces: List[List[Request]]
    #: The requests the stepwise twin serves with and without fast-forward.
    twin: List[Request]

    @property
    def requests(self) -> List[Request]:
        return [r for trace in self.traces for r in trace]


def unit_seed(seed: int, unit: int) -> int:
    """Seed of a pass's ``unit``-th trace.  Units are 16 apart, so the consecutive seeds
    a generator derives for its tenants or streams stay apart too."""
    return 1024 * seed + 16 * unit


@dataclass(frozen=True)
class ServingWorkload:
    """Seeded traces served by a fresh engine plus a scheduler or cluster each, one per unit
    of a pass."""

    name: str
    trace: Callable[[int], List[Request]]
    server: Callable[[ServingEngine, bool], object]
    #: The stepwise twin's requests for a seed.
    twin: Callable[[int], List[Request]]
    #: Traces one pass serves, each timed as its own unit.
    units: int = 1

    kind = "serving"

    def make_inputs(self, seed: int) -> ServingInputs:
        traces = [self.trace(unit_seed(seed, unit)) for unit in range(self.units)]
        return ServingInputs(traces, self.twin(seed))

    def construct(self) -> float:
        """Build the first engine and its server; returns the engine construction seconds."""
        start = time.perf_counter()
        engine = _new_engine()
        construct_s = time.perf_counter() - start
        self.server(engine, True)
        return construct_s

    @staticmethod
    def pass_inputs(inputs: ServingInputs) -> List[List[Request]]:
        return [_copies(trace) for trace in inputs.traces]

    @staticmethod
    def operations(inputs: ServingInputs) -> int:
        return len(inputs.requests)

    def run_pass(self, traces: List[List[Request]], stages: Stages,
                 fast_forward: bool = True) -> ServingPass:
        served = ServingPass([], [], [])
        for unit, requests in enumerate(traces):
            with stages("construct", unit):
                engine = _new_engine()
                server = self.server(engine, fast_forward)
            with stages("serve", unit):
                result = server.run(requests)
            with stages("report", unit):
                report = result.slo_report(SLO)
            served.results.append(result)
            served.reports.append(report)
            served.engines.append(engine)
        return served

    @staticmethod
    def check_pass(inputs: ServingInputs, served: ServingPass) -> int:
        """Requests of the traces that did not complete with every output token."""
        failed = sum(_incomplete(trace, result)
                     for trace, result in zip(inputs.traces, served.results))
        return failed + sum(len(trace) for trace in inputs.traces[len(served.results):])

    @staticmethod
    def differences(reference: ServingPass, other: ServingPass) -> int:
        """Requests whose outcome differs between two passes (1 if only the digest does)."""
        ref, out = reference.outcomes(), other.outcomes()
        differing = sum(1 for key in ref.keys() | out.keys() if ref.get(key) != out.get(key))
        if differing == 0 and reference.digest_fields() != other.digest_fields():
            return 1
        return differing

    def extra_checks(self, inputs: ServingInputs, first: ServingPass) -> Tuple[int, int, dict]:
        """Stepwise twin: the twin's requests served with and without fast-forward must
        match bit for bit.  Returns ``(attempted, failed, report)``."""
        twin = inputs.twin
        fast = self.run_pass([_copies(twin)], Stages(), fast_forward=True)
        stepwise = self.run_pass([_copies(twin)], Stages(), fast_forward=False)
        failed = self.differences(fast, stepwise) + _incomplete(twin, stepwise.results[0])
        report = {
            "stepwise_twin": {
                "requests": len(twin),
                "fast_digest": fast.digest(),
                "stepwise_digest": stepwise.digest(),
                "failed": failed,
            }
        }
        return 2 * len(twin), failed, report


def _copies(requests: Sequence[Request]) -> List[Request]:
    return [copy.copy(r) for r in requests]


def _incomplete(requests: Sequence[Request], result) -> int:
    """Requests that did not complete with every output token in a served ``result``."""
    done = {
        r.request_id for r in result.requests
        if r.completion_time_s is not None and r.generated == r.output_tokens
    }
    return sum(1 for r in requests if r.request_id not in done)


def twin_prefix(trace: Callable[..., List[Request]], size: int,
                requests: int) -> Callable[[int], List[Request]]:
    """The first ``requests`` requests of the seed's trace at ``size``."""
    return lambda seed: trace(seed, size)[:requests]


def _sharegpt_trace(seed: int, num_requests: int = 175) -> List[Request]:
    return generate_trace(num_requests, ArrivalProcess(rate_rps=20.0), SHAREGPT_PROMPTS,
                          SHAREGPT_OUTPUTS, seed=seed)


def _single_replica(engine: ServingEngine, fast_forward: bool) -> ContinuousBatchingScheduler:
    return ContinuousBatchingScheduler(engine, fast_forward=fast_forward)


def _mixed_trace(seed: int, num_requests: int = 50) -> List[Request]:
    return generate_trace(num_requests, ArrivalProcess(rate_rps=16.0), MIXED_PROMPTS,
                          MIXED_OUTPUTS, seed=seed)


def _kv_pressure_replica(engine: ServingEngine,
                         fast_forward: bool) -> ContinuousBatchingScheduler:
    return ContinuousBatchingScheduler(
        engine,
        kv_budget_bytes=KV_BUDGET_BYTES,
        host_kv_budget_bytes=HOST_KV_BUDGET_BYTES,
        preemption_policy="hybrid",
        fast_forward=fast_forward,
    )


def _tenant_trace(seed: int, requests_per_tenant: int = 30) -> List[Request]:
    return tenant_mix_trace(requests_per_tenant, 3.0, seed=seed)


def _tenant_cluster(engine: ServingEngine, fast_forward: bool) -> ServingCluster:
    return ServingCluster(
        SYSTEM,
        MODEL,
        ClusterSpec(mode="colocated", num_replicas=4, router="cache-affinity"),
        device=DEVICE,
        kv_budget_bytes=KV_BUDGET_BYTES,
        preemption_policy="hybrid",
        prefix_caching=True,
        fast_forward=fast_forward,
        engine=engine,
    )


# ---------------------------------------------------------------------- W4A8 workload
@dataclass
class W4A8Inputs:
    weight: np.ndarray
    batches: List[np.ndarray]
    #: (tile row, tile column) of the packed tiles the register-path check replays.
    tiles: List[Tuple[int, int]]


@dataclass
class GemmPass:
    """One prepared weight and the ``run`` outputs of every batch of the mix."""

    kernel: LiquidGemmKernel
    prepared: object
    outputs: List[np.ndarray]

    @property
    def packed(self):
        return self.prepared.payload["packed"]

    def packed_words(self) -> np.ndarray:
        return np.stack([tile.words for row in self.packed.tiles for tile in row])

    def digest(self) -> str:
        sha = hashlib.sha256(self.packed_words().tobytes())
        for out in self.outputs:
            sha.update(out.tobytes())
        return sha.hexdigest()[:16]


#: Decode steps per prefill iteration of sharegpt-decode's traffic, counted stepwise
#: (``fast_forward=False``) on seed 0's 10,000-request trace: 138,744 decode-only
#: iterations (15.2 rows on average) and 16,523 that carry a prefill chunk, 8.4 to 1.
DECODE_CALLS_PER_PREFILL = 8
#: Four rounds of eight 16-row decode batches and one 128-row prefill batch: as many
#: decode rows as prefill rows, and (on a 64-row weight) GEMM about half of a pass.
W4A8_BATCH_ROWS = ((16,) * DECODE_CALLS_PER_PREFILL + (128,)) * 4
#: The W4A8 pass's unit that constructs the kernel and prepares the weight; each ``run``
#: call is a unit of its own after it.
PREPARE_UNIT = 0


@dataclass(frozen=True)
class W4A8Workload:
    """``prepare_weights`` on a seeded weight, then ``run`` over a fixed mix of batches."""

    name: str
    rows: int
    cols: int = 4096
    group_size: int = 64
    #: 16-row batches stand for decode steps, 128-row ones for prefill chunks.
    batch_rows: Tuple[int, ...] = W4A8_BATCH_ROWS
    sampled_tiles: int = 4

    kind = "w4a8"

    def make_inputs(self, seed: int) -> W4A8Inputs:
        rng = np.random.default_rng(seed)
        weight = rng.standard_normal((self.rows, self.cols)) * 0.02
        batches = [rng.standard_normal((m, self.cols)) for m in self.batch_rows]
        grid_rows = -(-self.rows // DUAL_MMA_TILE_ROWS)
        grid_cols = -(-self.cols // DUAL_MMA_TILE_COLS)
        picks = rng.choice(grid_rows * grid_cols, size=min(self.sampled_tiles,
                                                           grid_rows * grid_cols),
                           replace=False)
        tiles = [(int(p) // grid_cols, int(p) % grid_cols) for p in sorted(picks)]
        return W4A8Inputs(weight, batches, tiles)

    def construct(self) -> float:
        LiquidGemmKernel(group_size=self.group_size)
        return 0.0

    @staticmethod
    def pass_inputs(inputs: W4A8Inputs) -> W4A8Inputs:
        return inputs

    @staticmethod
    def operations(inputs: W4A8Inputs) -> int:
        return len(inputs.batches)

    def run_pass(self, inputs: W4A8Inputs, stages: Stages) -> GemmPass:
        with stages("construct", PREPARE_UNIT):
            kernel = LiquidGemmKernel(group_size=self.group_size)
        with stages("prepare", PREPARE_UNIT):
            prepared = kernel.prepare_weights(inputs.weight)
        outputs = []
        for unit, x in enumerate(inputs.batches, start=PREPARE_UNIT + 1):
            with stages("gemm", unit):
                outputs.append(kernel.run(x, prepared))
        return GemmPass(kernel, prepared, outputs)

    @staticmethod
    def check_pass(inputs: W4A8Inputs, done: GemmPass) -> int:
        """``run`` outputs that differ from the integer reference (Eq. 8 dequantization of
        the same codes, the same activation codes, the same epilogue)."""
        qw = done.prepared.payload["lqq"]
        w_ref = lqq_dequantize_int8_reference(qw).astype(np.int64)
        failed = 0
        for x, out in zip(inputs.batches, done.outputs):
            qa = quantize_activation_per_token(x)
            acc = qa.q_i8.astype(np.int64) @ w_ref.T
            ref = acc.astype(np.float64) * qa.scale_tok * qw.scale_ch.reshape(1, -1)
            failed += not np.array_equal(out, ref)
        return failed + abs(len(inputs.batches) - len(done.outputs))

    @staticmethod
    def differences(reference: GemmPass, other: GemmPass) -> int:
        """Outputs that differ between two passes, plus 1 if the packed weights differ."""
        failed = sum(
            not np.array_equal(a, b) for a, b in zip(reference.outputs, other.outputs)
        )
        failed += abs(len(reference.outputs) - len(other.outputs))
        return failed + (not np.array_equal(reference.packed_words(), other.packed_words()))

    @staticmethod
    def extra_checks(inputs: W4A8Inputs, first: GemmPass) -> Tuple[int, int, dict]:
        """Sampled packed tiles: the unpack round trip restores the codes, and the emulated
        register path (``verify_tile_path``) matches the Eq.-12 reference bit for bit."""
        qw = first.prepared.payload["lqq"]
        failed = 0
        for tile_row, tile_col in inputs.tiles:
            r0, c0 = tile_row * DUAL_MMA_TILE_ROWS, tile_col * DUAL_MMA_TILE_COLS
            codes = qw.q_u4[r0 : r0 + DUAL_MMA_TILE_ROWS, c0 : c0 + DUAL_MMA_TILE_COLS]
            unpacked = unpack_dual_mma_tile(first.packed.tiles[tile_row][tile_col])
            round_trip = np.array_equal(unpacked[: codes.shape[0], : codes.shape[1]], codes)
            register_path, reference = first.kernel.verify_tile_path(
                first.prepared, tile_row, tile_col
            )
            failed += not (round_trip and np.array_equal(register_path, reference))
        return 0, failed, {"sampled_tiles": {"tiles": inputs.tiles, "failed": failed}}


#: A serving unit serves a short trace (175 ShareGPT requests, 50 prefill-heavy ones, or
#: 30 requests per tenant; 15-60 ms on a 2-vCPU Xeon host) and a pass serves 16, 48 or
#: 72 of them (2,800, 2,400 and about 5,900 requests: the tenant mix's cost varies most
#: from seed to seed).  The stepwise twins keep the prefixes of the longer traces (10,000,
#: 3,000 and 1,800 requests), so their fast-forward coverage stays as wide.
WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        ServingWorkload("sharegpt-decode", _sharegpt_trace, _single_replica,
                        twin=twin_prefix(_sharegpt_trace, 10_000, 1000), units=16),
        ServingWorkload("kv-pressure-mixed", _mixed_trace, _kv_pressure_replica,
                        twin=twin_prefix(_mixed_trace, 3_000, 300), units=48),
        ServingWorkload("tenant-mix-cluster", _tenant_trace, _tenant_cluster,
                        twin=twin_prefix(_tenant_trace, 600, 500), units=72),
        W4A8Workload("w4a8-layer", rows=64),
    )
}


# ---------------------------------------------------------------------- model-error block
#: Published TensorRT-LLM v0.6.1 H100 FP8 peak-throughput rows (output tokens/s per GPU):
#: (model, tp, batch, input, output, published).  LLaMA 7B is stood in for by llama2-7b.
TRT_LLM_H100_FP8 = (
    ("llama2-7b", 1, 768, 128, 128, 19694.0),
    ("llama2-7b", 1, 112, 128, 2048, 6818.0),
    ("llama2-7b", 1, 80, 2048, 128, 2244.0),
    ("llama2-7b", 1, 48, 2048, 2048, 2740.0),
    ("llama2-70b", 2, 1024, 128, 128, 2657.0),
    ("llama2-70b", 2, 96, 2048, 128, 306.0),
    ("llama2-70b", 4, 480, 128, 2048, 1486.0),
)


def model_error_rows() -> List[dict]:
    """Simulated vs published per-GPU throughput of each reference row (reported only)."""
    rows = []
    for model, tp, batch, input_len, output_len, published in TRT_LLM_H100_FP8:
        point = ServingEngine("trt-fp8", model, device="H100", tp_degree=tp).throughput(
            batch, input_len, output_len
        )
        simulated = point.tokens_per_second / tp
        rows.append({
            "model": model, "tp": tp, "batch": batch, "input": input_len,
            "output": output_len, "published_tok_s_gpu": published,
            "simulated_tok_s_gpu": simulated, "ratio": simulated / published,
            "fits_in_memory": point.fits_in_memory,
        })
    return rows
