"""Process-parallel multi-configuration sweep engine for the serving simulator.

One simulated trace answers one question; the experiments the serving literature actually
runs — "which preemption policy wins on *this* system at *that* arrival rate, and does the
answer survive disaggregation?" — are grids.  This module turns the simulator into an
experiment platform:

* **Declarative grid** — :class:`SweepGrid` spans models × systems × kernels × KV formats ×
  scheduling policies × preemption policies × arrival rates × cluster shapes, plus the
  shared workload knobs
  (trace size, length distributions, KV budgets, SLO).  :meth:`SweepGrid.cells` expands it
  into a deterministic, index-ordered cell list.
* **Deterministic per-cell seeds** — every cell's trace seed is derived from the grid's
  ``base_seed`` and the cell's parameter key via CRC-32 (:func:`derive_cell_seed`), so a
  cell's workload never depends on grid position: adding a policy to the grid leaves every
  other cell's trace (and therefore its results) byte-identical.
* **Process-parallel execution** — :func:`run_sweep` fans cells over a
  ``ProcessPoolExecutor``; each cell carries the :class:`~repro.core.api.RunSpec` it
  runs, and each worker process keeps a per-process
  :class:`~repro.serving.engine.ServingEngine` cache keyed by (system profile after the
  kernel / KV-format overrides, model, device, tp), so the engine's bounded step-cost
  memos stay warm across the cells that share a configuration.  Results are returned in
  cell order regardless of completion order, and a serial run of the same grid produces
  the byte-identical payload (modulo wall-clock fields) — the determinism contract the
  benchmark harness gates on.
* **Schema-validated consolidated JSON** — the payload matches :data:`SWEEP_SCHEMA`
  (validated before it is returned or written), so downstream tooling can rely on its
  shape the way it relies on ``BENCH_scheduler.json``.

Run a grid from the command line::

    PYTHONPATH=src python -m repro.sweep --workers 4 --out sweep.json

or see ``examples/policy_sweep.py`` for the library API.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .backend import available_kernels, available_kv_formats, scheme_output_rmse, weight_quant_scheme
from .core.api import RunSpec, run
from .reporting.schema import validate_payload
from .serving.engine import ServingEngine
from .serving.metrics import SloSpec
from .serving.models import list_models
from .serving.policies import PREEMPTION_POLICIES, SCHEDULING_POLICIES
from .serving.systems import ClusterSpec, SystemProfile, get_system, list_systems
from .telemetry import Tracer, request_breakdowns, write_chrome_trace, write_summary
from .workloads.traces import (
    SHAREGPT_OUTPUTS,
    SHAREGPT_PROMPTS,
    LengthDistribution,
    WorkloadSpec,
)

__all__ = [
    "SweepGrid",
    "SWEEP_SCHEMA",
    "derive_cell_seed",
    "resolve_cell_profile",
    "compute_frontier",
    "run_sweep",
    "cells_identical",
    "write_sweep_json",
]


#: Schema of the consolidated sweep payload (see repro.reporting.schema for the language).
SWEEP_SCHEMA = {
    "benchmark": str,  # always "repro.sweep"
    "grid": dict,
    "num_cells": int,
    "workers": int,
    "parallel": bool,
    "wall_time_s": float,
    "cells": [
        {
            "index": int,
            "system": str,
            "model": str,
            "scheduling_policy": str,
            "preemption_policy": str,
            "arrival_rate_rps": float,
            "cluster": dict,
            "seed": int,
            "kernel": str,       # effective GEMM kernel (system default unless overridden)
            "kv_format": str,    # effective KV-cache format
            "wall_time_s": float,
            "metrics": {
                "completed_requests": int,
                "generated_tokens": int,
                "throughput_tokens_per_s": float,
                "simulated_time_s": float,
                "iterations": int,
                "preemptions": int,
                "p50_ttft_s": float,
                "p99_ttft_s": float,
                "p99_tpot_s": float,
                "slo_attainment": float,
                "goodput_rps": float,
            },
        }
    ],
    # Pareto frontier over (goodput-per-GPU, accuracy proxy) across all cells: the
    # headline quant-format x kernel x kv_format interaction, reported alongside the raw
    # grid so downstream tooling never recomputes it.
    "frontier": {
        "objective": str,
        "num_points": int,
        "dominated_cells": int,
        "points": [
            {
                "index": int,
                "system": str,
                "model": str,
                "kernel": str,
                "kv_format": str,
                "cluster": str,
                "gpus": int,
                "goodput_per_gpu_rps": float,
                "accuracy_rmse": float,
                "slo_attainment": float,
            }
        ],
    },
}

#: The single-replica (no cluster layer) shape; the default grid axis.
SINGLE_REPLICA: Dict[str, Any] = {"mode": "single"}


def derive_cell_seed(base_seed: int, cell_key: str) -> int:
    """Deterministic per-cell trace seed: stable across runs, machines and processes.

    CRC-32 of the cell's parameter key mixed with the grid's base seed.  Deriving from
    the *key* (not the cell index) means adding or removing grid values never reseeds the
    surviving cells — their traces, and therefore their simulated numbers, stay
    byte-identical across grid revisions.
    """
    return (base_seed * 1_000_003 + zlib.crc32(cell_key.encode("utf-8"))) % (2**31)


def _cluster_label(shape: Dict[str, Any]) -> str:
    """``single``, ``colocated-N`` or ``disaggregated-Pp+Dd``: the shape as served."""
    cluster = ClusterSpec.from_shape(shape)
    return "single" if cluster is None else cluster.label


@dataclass(frozen=True)
class SweepGrid:
    """A declarative grid of serving-simulation configurations.

    The swept axes are the cartesian product; everything else is shared workload
    configuration applied to every cell.  ``cluster_shapes`` entries are plain dicts:
    ``{"mode": "single"}`` (one replica, no cluster layer),
    ``{"mode": "colocated", "num_replicas": N, "router": name?}`` or
    ``{"mode": "disaggregated", "num_prefill_replicas": P, "num_decode_replicas": D}``.
    Omitted or ``None`` fields take :class:`~repro.serving.systems.ClusterSpec`'s defaults,
    and a cell's label, seed and GPU count follow the shape as served.
    """

    systems: Sequence[str] = ("liquidserve",)
    models: Sequence[str] = ("llama2-7b",)
    scheduling_policies: Sequence[str] = ("fcfs",)
    preemption_policies: Sequence[str] = ("recompute",)
    arrival_rates_rps: Sequence[float] = (10.0,)
    cluster_shapes: Sequence[Dict[str, Any]] = (SINGLE_REPLICA,)
    #: Kernel-backend axes: each entry overrides the system profile's GEMM kernel /
    #: KV-cache format via :meth:`SystemProfile.derive`; ``None`` keeps the system default.
    #: The default singleton ``(None,)`` leaves existing grids (cells, keys, seeds)
    #: byte-identical.
    kernels: Sequence[Optional[str]] = (None,)
    kv_formats: Sequence[Optional[str]] = (None,)
    # Shared workload knobs:
    num_requests: int = 200
    base_seed: int = 0
    device: str = "H800"
    tp_degree: int = 1
    prompt_lengths: Optional[LengthDistribution] = None
    output_lengths: Optional[LengthDistribution] = None
    kv_budget_bytes: Optional[int] = None
    host_kv_budget_bytes: Optional[int] = None
    num_priority_levels: int = 1
    prefix_caching: bool = False
    shared_prefix_tokens: int = 0
    slo_ttft_s: float = 2.0
    slo_tpot_s: float = 0.1
    #: Telemetry opt-in: cell indices to run with a :class:`repro.telemetry.Tracer`
    #: attached.  Traced cells write a Chrome/Perfetto timeline and a schema-validated
    #: summary into ``trace_dir`` (default: the working directory) and report the file
    #: paths in their result row under ``trace_files``.  Tracing is observational —
    #: traced cells' simulated numbers are bit-identical to untraced runs — and cells
    #: not listed pay nothing.
    trace_cells: Sequence[int] = ()
    trace_dir: Optional[str] = None

    def describe(self) -> Dict[str, Any]:
        """JSON-safe description of the grid (embedded in the consolidated payload)."""
        return {
            "systems": list(self.systems),
            "models": list(self.models),
            "scheduling_policies": list(self.scheduling_policies),
            "preemption_policies": list(self.preemption_policies),
            "arrival_rates_rps": list(self.arrival_rates_rps),
            "cluster_shapes": [_cluster_label(s) for s in self.cluster_shapes],
            "kernels": ["default" if k is None else k for k in self.kernels],
            "kv_formats": ["default" if f is None else f for f in self.kv_formats],
            "num_requests": self.num_requests,
            "base_seed": self.base_seed,
            "device": self.device,
            "tp_degree": self.tp_degree,
            "prompt_lengths": repr(self.prompt_lengths or SHAREGPT_PROMPTS),
            "output_lengths": repr(self.output_lengths or SHAREGPT_OUTPUTS),
            "kv_budget_bytes": self.kv_budget_bytes,
            "host_kv_budget_bytes": self.host_kv_budget_bytes,
            "num_priority_levels": self.num_priority_levels,
            "prefix_caching": self.prefix_caching,
            "shared_prefix_tokens": self.shared_prefix_tokens,
            "slo": {"ttft_s": self.slo_ttft_s, "tpot_s": self.slo_tpot_s},
            "trace_cells": sorted(self.trace_cells),
        }

    def cells(self) -> List[Dict[str, Any]]:
        """Expand the grid into its cell list (deterministic, index-ordered).

        Each cell carries the :class:`~repro.core.api.RunSpec` it runs under ``"spec"``
        (so workers need no grid object) next to the axis values its result row reports.
        """
        cells: List[Dict[str, Any]] = []
        traced = set(self.trace_cells)
        for index, (model, system, kernel, kv_format, scheduling, preemption, rate, shape) in enumerate(
            itertools.product(
                self.models,
                self.systems,
                self.kernels,
                self.kv_formats,
                self.scheduling_policies,
                self.preemption_policies,
                self.arrival_rates_rps,
                self.cluster_shapes,
            )
        ):
            key = (
                f"model={model}|system={system}|scheduling={scheduling}"
                f"|preemption={preemption}|rate={rate:g}|cluster={_cluster_label(shape)}"
            )
            # Backend overrides extend the key only when set, so every pre-existing cell
            # keeps its exact seed (and therefore its byte-identical trace and results).
            if kernel is not None:
                key += f"|kernel={kernel}"
            if kv_format is not None:
                key += f"|kvfmt={kv_format}"
            cell = {
                "index": index,
                "system": system,
                "model": model,
                "kernel": kernel,
                "kv_format": kv_format,
                "scheduling_policy": scheduling,
                "preemption_policy": preemption,
                "arrival_rate_rps": float(rate),
                "cluster": dict(shape),
                "seed": derive_cell_seed(self.base_seed, key),
                "trace": index in traced,
                "trace_dir": self.trace_dir,
            }
            cell["spec"] = RunSpec(
                resolve_cell_profile(cell),
                model,
                device=self.device,
                tp_degree=self.tp_degree,
                cluster=ClusterSpec.from_shape(shape),
                workload=WorkloadSpec(
                    self.num_requests,
                    float(rate),
                    prompt_lengths=self.prompt_lengths,
                    output_lengths=self.output_lengths,
                    seed=cell["seed"],
                    num_priority_levels=self.num_priority_levels,
                    shared_prefix_tokens=self.shared_prefix_tokens,
                ),
                scheduler_options=dict(
                    scheduling_policy=scheduling,
                    preemption_policy=preemption,
                    kv_budget_bytes=self.kv_budget_bytes,
                    host_kv_budget_bytes=self.host_kv_budget_bytes,
                    prefix_caching=self.prefix_caching,
                ),
                slo=SloSpec(ttft_s=self.slo_ttft_s, tpot_s=self.slo_tpot_s),
            )
            cells.append(cell)
        return cells


def resolve_cell_profile(cell: Dict[str, Any]) -> SystemProfile:
    """The effective :class:`SystemProfile` for a cell: registry profile + backend overrides.

    Cells carry the *requested* kernel / kv_format (``None`` = system default); the
    derived profile is what the engine — and therefore the kernel backend — actually runs.
    """
    return get_system(cell["system"]).derive(
        kernel=cell.get("kernel"), kv_format=cell.get("kv_format")
    )


# Per-process engine cache: worker processes live for the whole sweep, so cells sharing a
# (system profile, model, device, tp) configuration reuse one engine — and its bounded
# step-cost memos — instead of rebuilding the cost model per cell.
_ENGINE_CACHE: Dict[Tuple[SystemProfile, str, str, int], ServingEngine] = {}


def _cached_engine(spec: RunSpec) -> ServingEngine:
    key = (spec.system, spec.model, spec.device, spec.tp_degree)
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        engine = _ENGINE_CACHE[key] = spec.build_engine()
    return engine


def _run_cell(cell: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one grid cell and return its schema-shaped result row.

    Runs in a worker process (or inline for serial sweeps).  Everything the cell needs is
    in the cell dict; the only cross-cell state is the pure per-process engine cache.
    """
    start = time.perf_counter()
    spec: RunSpec = cell["spec"]
    engine = _cached_engine(spec)
    tracer = Tracer(label=f"cell{cell['index']:03d}") if cell["trace"] else None
    result = run(spec, engine=engine, tracer=tracer)
    report = result.slo_report(spec.slo)
    wall_s = time.perf_counter() - start
    trace_files: Optional[Dict[str, str]] = None
    if tracer is not None:
        out_dir = os.path.abspath(cell.get("trace_dir") or os.getcwd())
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"cell{cell['index']:03d}")
        breakdowns = request_breakdowns(tracer)
        write_chrome_trace(tracer, stem + ".trace.json", breakdowns)
        write_summary(tracer, stem + ".summary.json", result.replica_stats, breakdowns)
        trace_files = {
            "chrome_trace": stem + ".trace.json",
            "summary": stem + ".summary.json",
        }
    row = {
        "index": cell["index"],
        "system": cell["system"],
        "model": cell["model"],
        "scheduling_policy": cell["scheduling_policy"],
        "preemption_policy": cell["preemption_policy"],
        "arrival_rate_rps": cell["arrival_rate_rps"],
        "cluster": dict(cell["cluster"], label=_cluster_label(cell["cluster"])),
        "seed": cell["seed"],
        # Effective backend configuration (post-derive): always concrete names, never None.
        "kernel": engine.system.kernel,
        "kv_format": engine.system.kv_format,
        "wall_time_s": round(wall_s, 4),
        "metrics": {
            "completed_requests": result.completed_requests,
            "generated_tokens": result.generated_tokens,
            "throughput_tokens_per_s": round(result.throughput_tokens_per_s, 1),
            "simulated_time_s": round(result.simulated_time_s, 6),
            "iterations": sum(s.num_iterations for s in result.replica_stats),
            "preemptions": sum(s.preemptions for s in result.replica_stats),
            "p50_ttft_s": round(report.p50_ttft_s, 6),
            "p99_ttft_s": round(report.p99_ttft_s, 6),
            "p99_tpot_s": round(report.p99_tpot_s, 7),
            "slo_attainment": round(report.attainment, 4),
            "goodput_rps": round(report.goodput_rps, 3),
        },
    }
    if trace_files is not None:
        # Extra key on traced rows only: the schema permits it, and untraced grids
        # (every pre-existing payload) are byte-identical to before.
        row["trace_files"] = trace_files
    return row


def _cell_gpus(cluster: Dict[str, Any], tp_degree: int) -> int:
    """GPU count a cell occupies: replicas in its cluster shape x tensor-parallel degree."""
    spec = ClusterSpec.from_shape(cluster)
    return (1 if spec is None else spec.total_replicas) * tp_degree


def compute_frontier(results: Sequence[Dict[str, Any]], tp_degree: int = 1) -> Dict[str, Any]:
    """Pareto frontier over (goodput-per-GPU up, accuracy-RMSE down) across result rows.

    Each cell's accuracy proxy is the weight-quantization RMSE of its *effective* kernel
    (:func:`repro.backend.scheme_output_rmse`), so the frontier answers the question the
    quant-format x kernel x kv_format sweep exists to ask: which backend configurations
    buy goodput without paying accuracy, and which accuracy hits buy nothing.  A cell is
    dominated when another cell is at least as good on both objectives and strictly
    better on one.  Points are sorted by descending goodput-per-GPU.
    """
    candidates = []
    for row in results:
        gpus = _cell_gpus(row["cluster"], tp_degree)
        rmse = scheme_output_rmse(weight_quant_scheme(row["kernel"]))
        candidates.append(
            {
                "index": row["index"],
                "system": row["system"],
                "model": row["model"],
                "kernel": row["kernel"],
                "kv_format": row["kv_format"],
                "cluster": row["cluster"]["label"],
                "gpus": gpus,
                "goodput_per_gpu_rps": round(row["metrics"]["goodput_rps"] / gpus, 4),
                "accuracy_rmse": round(rmse, 6),
                "slo_attainment": row["metrics"]["slo_attainment"],
            }
        )
    points = [
        p
        for p in candidates
        if not any(
            (q["goodput_per_gpu_rps"] >= p["goodput_per_gpu_rps"])
            and (q["accuracy_rmse"] <= p["accuracy_rmse"])
            and (
                q["goodput_per_gpu_rps"] > p["goodput_per_gpu_rps"]
                or q["accuracy_rmse"] < p["accuracy_rmse"]
            )
            for q in candidates
        )
    ]
    points.sort(key=lambda p: (-p["goodput_per_gpu_rps"], p["accuracy_rmse"], p["index"]))
    return {
        "objective": "max goodput_per_gpu_rps / min accuracy_rmse",
        "num_points": len(points),
        "dominated_cells": len(candidates) - len(points),
        "points": points,
    }


def run_sweep(
    grid: SweepGrid,
    *,
    max_workers: Optional[int] = None,
    parallel: bool = True,
) -> Dict[str, Any]:
    """Execute every cell of ``grid`` and return the consolidated, validated payload.

    ``parallel=True`` (default) fans cells over a ``ProcessPoolExecutor`` with
    ``max_workers`` processes (executor default: ``os.cpu_count()``); ``parallel=False``
    runs the cells inline, in order, in this process.  Either way the result rows are
    ordered by cell index and — wall-clock fields aside — byte-identical between the two
    modes: cells are seeded by parameter key and share no mutable state beyond the pure
    per-process engine caches (see :func:`cells_identical`).
    """
    cells = grid.cells()
    start = time.perf_counter()
    if parallel and (max_workers is None or max_workers > 1) and len(cells) > 1:
        workers = max_workers or (os.cpu_count() or 1)
        chunksize = max(1, len(cells) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(_run_cell, cells, chunksize=chunksize))
    else:
        workers = 1
        results = [_run_cell(cell) for cell in cells]
    wall_s = time.perf_counter() - start
    payload = {
        "benchmark": "repro.sweep",
        "grid": grid.describe(),
        "num_cells": len(cells),
        "workers": workers,
        "parallel": workers > 1,
        "wall_time_s": round(wall_s, 3),
        "cells": results,
        "frontier": compute_frontier(results, grid.tp_degree),
    }
    validate_payload(payload, SWEEP_SCHEMA)
    return payload


def cells_identical(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """True when two sweep payloads carry identical results (wall-clock fields aside).

    The determinism check the benchmark harness gates on: a parallel sweep must
    reproduce the serial sweep's simulated numbers byte for byte.
    """

    def strip(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [
            {key: value for key, value in cell.items() if key != "wall_time_s"}
            for cell in payload["cells"]
        ]

    return strip(a) == strip(b)


def write_sweep_json(payload: Dict[str, Any], path: str) -> str:
    """Validate and write a consolidated sweep payload; returns the absolute path."""
    validate_payload(payload, SWEEP_SCHEMA)
    path = os.path.abspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _validate_choices(
    parser: argparse.ArgumentParser,
    option: str,
    requested: Sequence[str],
    available: Sequence[str],
) -> None:
    """Fail fast — before any worker spawns — on unknown registry names.

    Without this, a typo'd ``--systems`` name surfaces as a ``KeyError`` deep inside a
    worker process, stripped of context by pickling.  ``parser.error`` exits with status
    2 and a message listing every available name.
    """
    unknown = sorted(set(requested) - set(available))
    if unknown:
        parser.error(
            f"unknown {option} name(s): {', '.join(unknown)}; "
            f"available: {', '.join(available)}"
        )


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep.json", help="output JSON path")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: cpu count)")
    parser.add_argument("--serial", action="store_true",
                        help="run cells inline instead of process-parallel")
    parser.add_argument("--num-requests", type=int, default=200,
                        help="trace size per cell")
    parser.add_argument("--systems", nargs="+", default=["liquidserve", "trt-fp16"])
    parser.add_argument("--models", nargs="+", default=["llama2-7b"])
    parser.add_argument("--kernels", nargs="+", default=["default"],
                        help="GEMM kernel overrides ('default' = system's kernel)")
    parser.add_argument("--kv-formats", nargs="+", default=["default"],
                        help="KV-cache format overrides ('default' = system's format)")
    parser.add_argument("--scheduling", nargs="+", default=["fcfs", "sjf"])
    parser.add_argument("--preemption", nargs="+", default=["recompute", "hybrid"])
    parser.add_argument("--rates", nargs="+", type=float, default=[15.0, 25.0])
    args = parser.parse_args(argv)
    _validate_choices(parser, "--systems", args.systems, list_systems())
    _validate_choices(parser, "--models", args.models, list_models())
    _validate_choices(
        parser, "--kernels",
        [k for k in args.kernels if k != "default"], available_kernels(),
    )
    _validate_choices(
        parser, "--kv-formats",
        [f for f in args.kv_formats if f != "default"], available_kv_formats(),
    )
    _validate_choices(parser, "--scheduling", args.scheduling, sorted(SCHEDULING_POLICIES))
    _validate_choices(parser, "--preemption", args.preemption, sorted(PREEMPTION_POLICIES))
    grid = SweepGrid(
        systems=tuple(args.systems),
        models=tuple(args.models),
        kernels=tuple(None if k == "default" else k for k in args.kernels),
        kv_formats=tuple(None if f == "default" else f for f in args.kv_formats),
        scheduling_policies=tuple(args.scheduling),
        preemption_policies=tuple(args.preemption),
        arrival_rates_rps=tuple(args.rates),
        num_requests=args.num_requests,
    )
    payload = run_sweep(grid, max_workers=args.workers, parallel=not args.serial)
    path = write_sweep_json(payload, args.out)
    print(
        f"{payload['num_cells']} cells in {payload['wall_time_s']:.2f}s "
        f"({payload['workers']} worker{'s' if payload['workers'] != 1 else ''}) -> {path}"
    )


if __name__ == "__main__":
    main()
