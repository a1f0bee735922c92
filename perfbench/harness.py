"""One benchmark run: set-up probes, timed passes, output checks, and the traced pass.

A run of one workload:

1. generates the inputs from the seed (not timed);
2. runs passes with tracing off until ``seconds`` have passed, each from a collected heap
   and fresh copies of the inputs; each pass's outputs must equal the first pass's.
   Set-up is timed in fresh interpreters (:mod:`perfbench.setup_probe`) spread over the
   same window, between passes;
3. checks the first pass against references, and runs the workload's extra checks;
4. with ``trace`` on, runs one more pass with :class:`~perfbench.layertrace.LayerTracer`
   installed, removes it, and derives the per-layer metrics from its spans.

``pass_s`` is the mean pass time and ``setup_s`` the median of the set-up probes, both at
the reference host speed (see :func:`reference_seconds`).  On a shared host a core runs
at full speed in some ~10 ms slices and at about half speed in others, and the mix
drifts over minutes, so raw times of the same work spread by tens of percent between
runs.  A fixed calibration loop runs between the units of every pass and sees the same
mix; a time over the loop's mean time is a cost in loops whatever the mix.

Every failed check counts as failed operations; the result says how many.
"""

from __future__ import annotations

import gc
import heapq
import inspect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from .layertrace import SERVING_LAYERS, LayerTracer, SpanTable
from .workloads import WORKLOADS, Stages, model_error_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fresh interpreters timed per run for ``setup_s`` (after one that warms the bytecode cache).
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------- provenance
def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    """Commit and dirty flag (``None`` outside a git checkout), versions, CPU and seed."""
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and os.path.realpath(toplevel) == os.path.realpath(ROOT)
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


# ---------------------------------------------------------------------- set-up probes
def probe_setup(workload: str) -> Dict[str, float]:
    """Set-up and engine-construction seconds of one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    command = [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"), workload]
    out = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------- host speed
#: Seconds one :func:`calibration_loop` takes on an unshared core of the reference host (a
#: 2-vCPU Intel Xeon VM, where its fastest runs take 1.9-2.1 ms).  ``pass_s`` and
#: ``setup_s`` are given at that speed.
CALIBRATION_REFERENCE_S = 0.002


class _Event:
    __slots__ = ("time", "key", "step")

    def __init__(self, time_s: float, key: int, step: int):
        self.time, self.key, self.step = time_s, key, step

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def calibration_loop() -> int:
    """A fixed pure-Python event loop: heap, dict, small objects and float arithmetic, the
    kind of work the simulator does."""
    rng = random.Random(7)
    heap = [_Event(rng.random(), key, 0) for key in range(200)]
    heapq.heapify(heap)
    visits: Dict[int, int] = {}
    for _ in range(1500):
        event = heapq.heappop(heap)
        visits[event.key] = visits.get(event.key, 0) + 1
        if event.step < 20:
            heapq.heappush(heap, _Event(event.time + 1.5 * rng.random(), event.key,
                                        event.step + 1))
    return len(visits)


class Calibration:
    """Times :func:`calibration_loop` each time it is called (between units of a pass)."""

    def __init__(self):
        self.samples: List[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - start)


def reference_seconds(seconds: List[float], calibration: List[float]) -> float:
    """Mean of ``seconds`` at the reference host speed.

    The calibration loop ran between the units of the passes that ``seconds`` timed, so
    over a run it met the same mix of fast and slow slices of the core.  The ratio of the
    two means is the passes' cost in calibration loops, whatever the mix; times the
    loop's reference time, it is seconds again.  (Means, not medians: a unit's time is
    the sum of the slices it spans, and the loop's mean follows the mix of slices where
    its bimodal median jumps.)
    """
    loops = statistics.fmean(seconds) / statistics.fmean(calibration)
    return loops * CALIBRATION_REFERENCE_S


# ---------------------------------------------------------------------- per-layer metrics
def layer_metrics(workload, table: SpanTable, traced, inputs, counters: dict,
                  overhead_ratio: float, construct_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (0 for a layer the workload never runs)."""
    metrics: Dict[str, float] = {
        f"{layer}.self_s": table.self_s(layer) for layer in SERVING_LAYERS
    }
    metrics.update({
        "quant.self_s": table.self_s("quant", "prepare"),
        "layout.self_s": table.self_s("layout"),
        "dequant.self_s": table.self_s("dequant", "gemm"),
        "quant.activation_self_s": table.self_s("quant", "gemm"),
        "kernels.gemm_self_s": table.self_s("kernels", "gemm"),
        "bench.tracing_overhead_ratio": overhead_ratio,
        "engine.construct_s": construct_s,
    })
    serving = workload.kind == "serving"
    iterations = traced.iterations if serving else 0
    stats = traced.replica_stats if serving else []

    def per_1k_iterations(calls: int) -> float:
        return 1000.0 * calls / iterations if iterations else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    ff_calls = table.calls("scheduler", "fast_forward")
    lookups = sum(s.prefix_cache_hits + s.prefix_cache_misses for s in stats)
    metrics.update({
        "scheduler.step_calls": table.calls("scheduler", "step"),
        "scheduler.ff_iteration_share": ratio(
            table.int_result_sum("scheduler", "fast_forward"), iterations),
        "scheduler.ff_declined_share": ratio(
            table.zero_result_calls("scheduler", "fast_forward"), ff_calls),
        "engine.calls_per_1k_iter": per_1k_iterations(table.entry_calls("engine")),
        "engine.memo_entries": traced.memo_entries() if serving else 0,
        "kvcache.calls_per_1k_iter": per_1k_iterations(table.entry_calls("kvcache")),
        "kvcache.preemptions": sum(s.preemptions for s in stats),
        "kvcache.swap_ins": sum(s.swap_ins for s in stats),
        "prefixcache.calls": table.entry_calls("prefixcache"),
        "prefixcache.hit_rate": ratio(sum(s.prefix_cache_hits for s in stats), lookups),
        "prefixcache.saved_prompt_share": ratio(
            sum(s.prefix_saved_tokens for s in stats),
            sum(r.prompt_tokens for r in inputs.requests) if serving else 0),
        "prefixcache.blocks_evicted": sum(s.prefix_blocks_evicted for s in stats),
        "router.cached_prefix_share": ratio(counters.get("routed_to_cached_prefix", 0),
                                            counters.get("routed", 0)),
    })
    if workload.kind == "w4a8":
        rows, cols = workload.rows, workload.cols
        deployed = traced.prepared.deployed_bytes
        per_call = [
            # INT8 activations, FP32 token scales, deployed W4 weights, FP16 outputs.
            (2 * m * rows * cols, m * cols + 4 * m + deployed + 2 * m * rows)
            for m in workload.batch_rows
        ]
        grid = traced.packed.tile_grid
        metrics.update({
            "layout.tiles": grid[0] * grid[1],
            "kernels.ops_per_call": statistics.fmean(ops for ops, _ in per_call),
            "kernels.bytes_per_call": statistics.fmean(b for _, b in per_call),
        })
    else:
        metrics.update({"layout.tiles": 0, "kernels.ops_per_call": 0.0,
                        "kernels.bytes_per_call": 0.0})
    return {name: float(value) for name, value in metrics.items()}


def _router_observer(counters: dict):
    """Counts routed requests whose chosen replica already caches part of their prefix."""

    def observe(args, replica) -> None:
        request = args[2] if len(args) > 2 else None
        if request is None:
            return
        counters["routed"] = counters.get("routed", 0) + 1
        cache = getattr(replica.scheduler, "prefix_cache", None)
        if cache is None:
            return
        # The unwrapped probe: side-effect free, and not itself a traced call.
        match_tokens = inspect.unwrap(type(cache).match_tokens)
        if match_tokens(cache, request, request.prompt_tokens - 1) > 0:
            counters["routed_to_cached_prefix"] = counters.get("routed_to_cached_prefix", 0) + 1

    return observe


def traced_pass(workload, inputs, pass_id: int):
    """One pass with every layer wrapped; returns ``(pass, span table, wall s, tracer,
    counters)``.  The wrappers are removed before this returns, even on error."""
    counters: dict = {}
    tracer = LayerTracer(observers={"router.select": _router_observer(counters)})
    batch = workload.pass_inputs(inputs)
    with tracer.installed_for(pass_id):
        start = time.perf_counter()
        traced = workload.run_pass(batch, Stages(tracer))
        wall_s = time.perf_counter() - start
    return traced, tracer.spans(), wall_s, tracer, counters


# ---------------------------------------------------------------------- one run
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        results_dir: Optional[str] = None, spec: Optional[dict] = None,
        probes: int = SETUP_PROBES) -> dict:
    """Run one workload; returns the result record (see ``perfbench/run.py``).

    ``probes`` fresh interpreters time ``setup_s``; 0 skips them and reports 0.
    """
    spec = spec if spec is not None else load_spec()
    workload = WORKLOADS[workload_name]
    result = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "provenance": provenance(seed)}
    if probes:
        probe_setup(workload_name)  # warms the bytecode cache; not counted
    workload.construct()
    inputs = workload.make_inputs(seed)
    ops = workload.operations(inputs)

    # ---- timed passes (tracing off), with the set-up probes spread between them
    walls: List[float] = []
    stage_samples: Dict[str, List[float]] = {}
    calibration = Calibration()
    setups: List[dict] = []
    first = None
    failed = attempted = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if len(setups) < probes and time.perf_counter() - start >= len(setups) * seconds / probes:
            setups.append(probe_setup(workload_name))
        batch = workload.pass_inputs(inputs)
        gc.collect()  # every pass starts from a heap without the last pass's garbage
        stages = Stages(on_unit=calibration)
        done = workload.run_pass(batch, stages)
        walls.append(sum(stages.seconds.values()))
        for name, value in stages.seconds.items():
            stage_samples.setdefault(name, []).append(value)
        attempted += ops
        if first is None:
            first = done
        else:
            failed += workload.differences(first, done)
        del batch, done
    peak_rss_mb = _peak_rss_mb()
    while len(setups) < probes:
        setups.append(probe_setup(workload_name))
    setup = {key: _median([s[key] for s in setups]) if setups else 0.0
             for key in ("setup_s", "construct_s")}

    # ---- output checks (outside the timed passes)
    failed += workload.check_pass(inputs, first)
    extra_attempted, extra_failed, checks = workload.extra_checks(inputs, first)
    attempted += extra_attempted
    failed += extra_failed
    result["checks"] = checks
    result["digest"] = {"hash": first.digest()}
    if workload.kind == "serving":
        result["digest"]["fields"] = first.digest_fields()

    pass_s = reference_seconds(walls, calibration.samples)
    result["end_to_end"] = {
        "setup_s": reference_seconds([setup["setup_s"]], calibration.samples),
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
    }
    result["passes"] = {"count": len(walls), "pass_s": walls, "stages": stage_samples,
                        "calibration_s": calibration.samples,
                        "setup_s": [s["setup_s"] for s in setups]}
    if workload.kind == "serving":
        result["derived"] = {"sim_requests_per_s": ops / pass_s}
        result["model_error"] = model_error_rows()
    else:
        prepare_s = reference_seconds(stage_samples["prepare"], calibration.samples)
        gemm_s = reference_seconds(stage_samples["gemm"], calibration.samples)
        result["derived"] = {
            "prepare_elements_per_s": workload.rows * workload.cols / prepare_s,
            "gemm_tokens_per_s": sum(workload.batch_rows) / gemm_s,
            "gemm_share": gemm_s / (prepare_s + gemm_s),
        }

    # ---- traced pass
    if trace:
        traced, table, traced_wall, tracer, counters = traced_pass(workload, inputs, len(walls))
        attempted += ops
        unrestored = tracer.unrestored()
        traced_failed = workload.differences(first, traced)
        failed += traced_failed + len(unrestored)
        result["traced"] = {
            "digest": traced.digest(),
            "digest_matches": traced.digest() == first.digest(),
            "failed": traced_failed,
            "wrapped_attributes": tracer.num_patches,
            "unrestored": unrestored,
            "spans": int(len(table.site)),
            "layers_run": {stage: table.layers_run(stage) for stage in table.stages()},
        }
        result["layers"] = layer_metrics(
            workload, table, traced, inputs, counters,
            overhead_ratio=traced_wall / _median(walls), construct_s=setup["construct_s"],
        )
        if results_dir is not None:
            os.makedirs(results_dir, exist_ok=True)
            spans_path = os.path.join(results_dir, f"{workload_name}-seed{seed}.spans.npz")
            tracer.write_spans(spans_path)
            result["traced"]["spans_file"] = os.path.relpath(spans_path, ROOT)
        del tracer, table

    result["correct"] = failed == 0
    result["attempted"] = attempted
    result["failed"] = failed
    names = "per_layer" if trace else "end_to_end"
    values = result["layers"] if trace else result["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec[names]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    if results_dir is not None:
        os.makedirs(results_dir, exist_ok=True)
        path = os.path.join(results_dir, f"{workload_name}-seed{seed}-trace{int(trace)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    return result


# ---------------------------------------------------------------------- report
def describe(result: dict) -> List[str]:
    """Human-readable lines for one run result."""
    prov = result["provenance"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}"
        f"  trace {result['trace']}",
        "provenance: " + "  ".join(f"{k}={v}" for k, v in prov.items()),
    ]
    e2e, passes = result["end_to_end"], result["passes"]
    lines += [
        f"  setup_s                {e2e['setup_s']:.4f} s      median of"
        f" {len(passes['setup_s'])} fresh interpreters"
        f" ({_median(passes['setup_s']) if passes['setup_s'] else 0.0:.4f} s) at the reference speed",
        f"  pass_s                 {e2e['pass_s']:.4f} s      mean of {passes['count']} passes"
        f" ({statistics.fmean(passes['pass_s']):.4f} s) at the reference speed: calibration"
        f" loop {1e3 * statistics.fmean(passes['calibration_s']):.3f} ms mean of"
        f" {len(passes['calibration_s'])}, reference {1e3 * CALIBRATION_REFERENCE_S:g} ms",
        f"  peak_rss_mb            {e2e['peak_rss_mb']:.1f} MiB",
    ]
    units = {"sim_requests_per_s": "req/s", "prepare_elements_per_s": "elem/s",
             "gemm_tokens_per_s": "tok/s", "gemm_share": "of prepare + gemm"}
    for name, value in result["derived"].items():
        lines.append(f"  {name:<22} {value:.4g} {units[name]}")
    for name, samples in passes["stages"].items():
        lines.append(f"  stage {name:<16} {statistics.fmean(samples):.4f} s mean (raw)")
    digest = result["digest"]
    lines.append(f"simulated-results digest {digest['hash']}")
    units = digest.get("fields", [])
    if units:
        totals = {k: sum(u[k] for u in units)
                  for k in ("iterations", "generated_tokens", "preemptions", "prefix_hits")}
        lines.append(f"  over {len(units)} units:" + "".join(f"  {k}={v}" for k, v in totals.items())
                     + "  (each unit's fields, latency percentiles included, in the record)")
    for name, check in result["checks"].items():
        lines.append(f"check {name}: " + "  ".join(f"{k}={v}" for k, v in check.items()))
    if "model_error" in result:
        lines.append("model error vs published TensorRT-LLM v0.6.1 H100 FP8 (reported only):")
        for row in result["model_error"]:
            lines.append(
                f"  {row['model']:<10} tp{row['tp']} batch {row['batch']:>4} "
                f"{row['input']:>4}/{row['output']:<4} published {row['published_tok_s_gpu']:>8.0f}"
                f"  simulated {row['simulated_tok_s_gpu']:>8.0f}  ratio {row['ratio']:.3f}"
                f"  fits_in_memory {row['fits_in_memory']}"
            )
    if "traced" in result:
        traced = result["traced"]
        lines.append("traced pass: " + "  ".join(
            f"{k}={v}" for k, v in traced.items() if k != "layers_run"))
        for stage, layers in traced["layers_run"].items():
            lines.append(f"  layers run in stage {stage}: " + (" ".join(layers) or "-"))
        for name, metric in result["metrics"].items():
            lines.append(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"operations attempted {result['attempted']}  failed {result['failed']}")
    return lines


def final_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })
