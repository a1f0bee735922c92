"""Tests of the benchmark itself, on small variants of its four workloads."""

import functools
import importlib
import json
import sys

import numpy as np
import pytest

from perfbench import harness, workloads
from perfbench.compare import compare, verdict
from perfbench.layertrace import KERNEL_LAYERS, LAYERS, SERVING_LAYERS, _layer_modules
from perfbench.workloads import (
    ServingWorkload,
    Stages,
    W4A8Workload,
    _kv_pressure_replica,
    _mixed_trace,
    _sharegpt_trace,
    _single_replica,
    _tenant_cluster,
    _tenant_trace,
    twin_prefix,
)

SMALL = {
    "sharegpt-decode": ServingWorkload(
        "sharegpt-decode", functools.partial(_sharegpt_trace, num_requests=75),
        _single_replica, twin=twin_prefix(_sharegpt_trace, 300, 60), units=2),
    "kv-pressure-mixed": ServingWorkload(
        "kv-pressure-mixed", functools.partial(_mixed_trace, num_requests=30),
        _kv_pressure_replica, twin=twin_prefix(_mixed_trace, 90, 30), units=2),
    "tenant-mix-cluster": ServingWorkload(
        "tenant-mix-cluster", functools.partial(_tenant_trace, requests_per_tenant=20),
        _tenant_cluster, twin=twin_prefix(_tenant_trace, 60, 40), units=2),
    "w4a8-layer": W4A8Workload("w4a8-layer", rows=64, cols=256, batch_rows=(4, 16),
                               sampled_tiles=2),
}


@pytest.fixture
def small(monkeypatch):
    for name, workload in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    return SMALL


def _run(name, trace, seed=1):
    return harness.run(name, seed=seed, seconds=0, trace=trace, probes=0)


# ---------------------------------------------------------------------- names and output
def test_workload_names_match_benchmark_json():
    spec = harness.load_spec()
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in spec["workloads"])


@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_and_units_match_benchmark_json(small, trace):
    spec = harness.load_spec()
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name in small:
        result = _run(name, trace)
        line = json.loads(harness.final_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        text = "\n".join(harness.describe(result))
        for metric in expected:
            assert metric in text


def test_reference_seconds_divide_out_the_host_speed():
    # The same passes on a host twice as slow: the calibration loop slows down alike.
    fast = harness.reference_seconds([1.0, 1.2, 1.1], [0.004, 0.004])
    slow = harness.reference_seconds([2.0, 2.4, 2.2], [0.008, 0.008])
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(1.1 / 0.004 * harness.CALIBRATION_REFERENCE_S)
    assert harness.calibration_loop() == harness.calibration_loop() > 0


def test_calibration_runs_between_the_units_of_every_pass(small):
    result = harness.run("kv-pressure-mixed", seed=3, seconds=0.5, trace=False, probes=0)
    passes = result["passes"]
    assert len(passes["calibration_s"]) == 2 * passes["count"]
    assert result["end_to_end"]["pass_s"] == pytest.approx(
        harness.reference_seconds(passes["pass_s"], passes["calibration_s"]))
    inputs = small["kv-pressure-mixed"].make_inputs(3)
    assert [r.arrival_time_s for r in inputs.traces[0]] != [
        r.arrival_time_s for r in inputs.traces[1]]


def test_w4a8_units_split_prepare_from_the_batches():
    workload = W4A8Workload("w4a8-layer", rows=64, cols=256, batch_rows=(4, 16, 4))
    calls = []
    stages = Stages(on_unit=lambda: calls.append(len(stages.seconds)))
    done = workload.run_pass(workload.make_inputs(1), stages)
    assert len(done.outputs) == 3 and len(calls) == 4
    assert set(stages.seconds) == {"construct", "prepare", "gemm"}


# ---------------------------------------------------------------------- traced pass
def _attribute_identities():
    """Identity of every attribute of every module and class the tracer may patch."""
    classes = [v for dotted in LAYERS.values() for module in _layer_modules(dotted)
               for v in vars(module).values() if isinstance(v, type)]
    owners = classes + [m for m in list(sys.modules.values())
                        if m is not None and m.__name__.split(".")[0] in ("repro", "perfbench")]
    return {(id(owner), attr): id(value)
            for owner in owners for attr, value in list(vars(owner).items())}


@pytest.mark.parametrize("name", ["tenant-mix-cluster", "w4a8-layer"])
def test_traced_pass_restores_every_wrapped_attribute(small, name):
    workload = small[name]
    inputs = workload.make_inputs(5)
    untraced = workload.run_pass(workload.pass_inputs(inputs), Stages())
    before = _attribute_identities()
    traced, table, _, tracer, _ = harness.traced_pass(workload, inputs, pass_id=1)
    assert tracer.num_patches > 100
    assert tracer.unrestored() == []
    assert _attribute_identities() == before
    scheduler = importlib.import_module("repro.serving.scheduler")
    assert not hasattr(scheduler.ContinuousBatchingScheduler.step, "__wrapped__")
    assert traced.digest() == untraced.digest()
    assert workload.differences(untraced, traced) == 0
    assert len(table.site) > 0 and set(table.pass_id.tolist()) == {1}


def test_self_times_are_non_negative_and_never_exceed_their_span(small):
    workload = small["kv-pressure-mixed"]
    _, table, _, _, _ = harness.traced_pass(workload, workload.make_inputs(2), pass_id=0)
    assert (table.self_ns >= 0).all()
    assert (table.self_ns <= table.duration).all()
    child = table.parent >= 0
    assert (table.start[child] >= table.start[table.parent[child]]).all()
    assert (table.end[child] <= table.end[table.parent[child]]).all()
    # Self times partition the root spans' time exactly (integer nanoseconds).
    assert table.self_ns.sum() == table.duration[table.parent < 0].sum()


def test_traced_pass_shows_the_split_each_workload_was_chosen_for(small):
    runs = {name: _run(name, trace=True) for name in small}
    for name in ("sharegpt-decode", "kv-pressure-mixed"):
        layers_run = set().union(*runs[name]["traced"]["layers_run"].values())
        assert runs[name]["layers"]["prefixcache.calls"] == 0
        assert not layers_run & {"prefixcache", "router", "cluster"}
    assert runs["sharegpt-decode"]["layers"]["kvcache.preemptions"] == 0
    assert runs["kv-pressure-mixed"]["layers"]["kvcache.preemptions"] > 0
    tenant = runs["tenant-mix-cluster"]["layers"]
    assert tenant["prefixcache.calls"] > 0 and tenant["router.cached_prefix_share"] > 0
    # The router probe runs in the benchmark's own stage, outside every layer.
    assert runs["tenant-mix-cluster"]["traced"]["layers_run"]["observe"] == []
    for name in ("sharegpt-decode", "kv-pressure-mixed", "tenant-mix-cluster"):
        stages = runs[name]["traced"]["layers_run"]
        # Kernel-path layers run only while the engine resolves its cost parameters.
        assert not (set(stages["serve"]) | set(stages["report"])) & set(KERNEL_LAYERS)
        for metric in ("quant.self_s", "layout.self_s", "dequant.self_s",
                       "kernels.gemm_self_s"):
            assert runs[name]["layers"][metric] == 0
    w4a8 = set().union(*runs["w4a8-layer"]["traced"]["layers_run"].values())
    assert not w4a8 & set(SERVING_LAYERS)
    assert runs["w4a8-layer"]["layers"]["layout.tiles"] == 4


# ---------------------------------------------------------------------- injected bad output
def test_flipped_nibble_in_a_packed_tile_is_a_failed_operation(small):
    workload = small["w4a8-layer"]
    inputs = workload.make_inputs(4)
    good = workload.run_pass(inputs, Stages())
    assert workload.check_pass(inputs, good) == 0
    assert workload.extra_checks(inputs, good)[1] == 0
    bad = workload.run_pass(inputs, Stages())
    row, col = inputs.tiles[0]
    bad.packed.tiles[row][col].words[5, 1] ^= np.uint32(0x10)
    assert workload.extra_checks(inputs, bad)[1] == 1
    assert workload.differences(good, bad) == 1


def test_wrong_gemm_output_is_a_failed_operation(small):
    workload = small["w4a8-layer"]
    inputs = workload.make_inputs(4)
    good = workload.run_pass(inputs, Stages())
    bad = workload.run_pass(inputs, Stages())
    bad.outputs[1][0, 0] += 1.0
    assert workload.check_pass(inputs, bad) == 1
    assert workload.differences(good, bad) == 1


def test_dropped_request_is_a_failed_operation(small):
    workload = small["sharegpt-decode"]
    inputs = workload.make_inputs(4)
    good = workload.run_pass(workload.pass_inputs(inputs), Stages())
    assert workload.check_pass(inputs, good) == 0
    bad = workload.run_pass(workload.pass_inputs(inputs), Stages())
    bad.results[1].requests.pop(3)
    assert workload.check_pass(inputs, bad) == 1
    assert workload.differences(good, bad) == 1


class _DroppingWorkload(ServingWorkload):
    def run_pass(self, requests, stages, fast_forward=True):
        served = super().run_pass(requests, stages, fast_forward)
        served.results[-1].requests.pop()
        return served


def test_run_reports_injected_failures(monkeypatch, small):
    dropping = _DroppingWorkload(**{f: getattr(small["sharegpt-decode"], f)
                                    for f in ("name", "trace", "server", "twin", "units")})
    monkeypatch.setitem(workloads.WORKLOADS, "sharegpt-decode", dropping)
    line = json.loads(harness.final_line(_run("sharegpt-decode", trace=False)))
    assert line["correct"] is False and line["failed"] >= 1


# ---------------------------------------------------------------------- compare mode
def test_verdicts_follow_the_bounds():
    a = {s: 1.0 + 0.01 * s for s in range(10)}
    scaled = lambda f: {s: v * f for s, v in a.items()}  # noqa: E731
    assert verdict(a, scaled(0.7), "lower", 0.1)["verdict"] == "improved"
    assert verdict(a, dict(a), "lower", 0.1)["verdict"] == "no worse"
    assert verdict(a, scaled(1.05), "lower", 0.1)["verdict"] == "no worse"
    assert verdict(a, scaled(1.3), "lower", 0.1)["verdict"] == "worse"
    assert verdict(a, scaled(1.3), "higher", 0.1)["verdict"] == "improved"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # A faster B that fails more of its operations gains nothing.
    assert verdict(a, scaled(0.7), "lower", 0.1, failed_b=0.01)["verdict"] == "invalid"
    assert verdict(a, dict(a), "lower", 0.1, failed_b=0.01)["verdict"] == "invalid"
    assert verdict(a, dict(a), "lower", 0.1, 0.01, 0.01)["verdict"] == "no worse"


def _write_records(directory, factor, failed):
    directory.mkdir()
    for seed in range(4):
        record = {
            "workload": "sharegpt-decode", "seed": seed, "trace": 0,
            "provenance": {"commit": directory.name, "dirty": False},
            "end_to_end": {"setup_s": 0.3, "pass_s": factor * (2.0 + 0.01 * seed),
                           "peak_rss_mb": 70.0},
            "digest": {"hash": "same"},
            "attempted": 1000, "failed": failed, "correct": failed == 0,
        }
        (directory / f"{seed}.json").write_text(json.dumps(record))


def test_compare_reads_two_result_directories(tmp_path):
    spec = harness.load_spec()
    _write_records(tmp_path / "a", 1.0, failed=0)
    _write_records(tmp_path / "b", 0.5, failed=0)
    _write_records(tmp_path / "c", 0.5, failed=2)
    text = "\n".join(compare(str(tmp_path / "a"), str(tmp_path / "b"), spec))
    assert "pass_s" in text and "improved" in text
    assert "4/4 seeds match" in text
    assert "failed operations: A 0 of 4000, B 0 of 4000" in text
    text = "\n".join(compare(str(tmp_path / "a"), str(tmp_path / "c"), spec))
    assert "failed operations: A 0 of 4000, B 8 of 4000" in text
    assert "improved" not in text and "no worse" not in text and "invalid" in text
