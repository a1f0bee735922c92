"""The committed BENCH_scheduler.json must match the documented schema and carry the
acceptance flags, so the per-PR perf trajectory stays machine-comparable.  Fast-forward
coverage on the harness's mixed_phase workload is gated as a count, which does not
depend on host speed."""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_BENCH_PY = os.path.join(_ROOT, "benchmarks", "bench_scheduler.py")
_BENCH_JSON = os.path.join(_ROOT, "BENCH_scheduler.json")


def _load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_scheduler", _BENCH_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load_bench_module()


@pytest.fixture(scope="module")
def runs(bench):
    """The harness's run table at each mode's size: what each section serves."""
    return {mode: bench.run_table(sizes) for mode, sizes in bench.SECTION_SIZES.items()}


@pytest.fixture(scope="module")
def payload():
    with open(_BENCH_JSON, encoding="utf-8") as fh:
        return json.load(fh)


class TestBenchSchema:
    def test_committed_result_matches_schema(self, bench, payload):
        bench.validate_payload(payload)  # raises on any mismatch

    def test_committed_result_is_full_mode(self, payload):
        """--fast exists for CI; the committed trajectory must stay full-size runs so
        numbers remain comparable across PRs."""
        assert payload["mode"] == "full"

    def test_acceptance_flags_hold(self, payload):
        """The A/B criteria this simulator is accepted against: the cost-based hybrid never
        loses goodput to recompute-only, SJF cuts p99 TTFT vs. FCFS on the long tail, and
        disaggregated prefill/decode cuts p99 TTFT vs. co-located at equal GPU count."""
        assert payload["preemption_ab"]["hybrid_goodput_ge_recompute"] is True
        assert payload["scheduling_ab"]["sjf_p99_ttft_improves"] is True
        assert payload["cluster_ab"]["disagg_p99_ttft_improves"] is True

    def test_ab_sections_cover_all_policies(self, payload):
        assert set(payload["preemption_ab"]["policies"]) == {"recompute", "swap", "hybrid"}
        assert set(payload["scheduling_ab"]["policies"]) == {
            "fcfs", "priority", "sjf", "fairness"
        }
        assert set(payload["cluster_ab"]["configs"]) == {"colocated", "disaggregated"}

    def test_cluster_ab_compares_equal_gpu_counts(self, payload):
        """The disaggregation win must not come from extra hardware: both configs field
        the workload's total_replicas GPUs, and the disaggregated one actually pays its
        per-request KV handoffs."""
        section = payload["cluster_ab"]
        total = section["workload"]["total_replicas"]
        for config in section["configs"].values():
            assert len(config["replica_roles"].split(",")) == total
        disagg = section["configs"]["disaggregated"]
        assert disagg["kv_handoffs"] > 0
        assert disagg["kv_handoff_s"] > 0.0
        assert payload["cluster_ab"]["configs"]["colocated"]["kv_handoffs"] == 0

    def test_scale_sections_run_the_advertised_workloads(self, runs, payload):
        """The fast-forward stress sections must stay at full size (they are identical in
        fast and full mode — analytic fast-forward is what makes them tractable) and must
        actually drain their traces."""
        scale, specs = payload["scale"], runs["full"]["scale"]
        assert runs["fast"]["scale"] == specs
        trace_requests = specs["trace"].workload.num_requests
        cluster_requests = specs["cluster"].workload.num_requests
        assert scale["trace"]["workload"]["num_requests"] == trace_requests
        assert scale["trace"]["simulated"]["completed_requests"] == trace_requests
        assert (scale["cluster"]["workload"]["num_replicas"]
                == specs["cluster"].cluster.num_replicas)
        assert scale["cluster"]["workload"]["num_requests"] == cluster_requests
        assert scale["cluster"]["summary"]["completed_requests"] == cluster_requests
        for section in (scale["trace"], scale["cluster"]):
            assert section["harness"]["wall_time_s"] > 0.0
            assert section["harness"]["iterations_per_s"] > 0.0

    def test_mixed_phase_section_holds_the_acceptance_criterion(self, bench, payload):
        """PR-5's tentpole, pinned against the committed trajectory: the KV-constrained
        prefill-heavy workload — which PR 4 ran interpretively at ~43k it/s — must clear
        3x the interpretive path and at least 130k it/s, with the simulated numbers
        produced by the fast path (the harness itself aborts if they diverge from
        stepwise, so their presence here certifies equivalence held)."""
        section = payload["mixed_phase"]
        assert section["speedup_ge_3x"] is True
        assert section["harness"]["speedup_vs_stepwise"] >= 3.0
        assert section["harness"]["iterations_per_s"] >= 130_000
        assert section["workload"]["preemption_policy"] == "hybrid"
        assert section["workload"]["kv_budget_mb"] == 2048  # genuinely KV-constrained
        assert section["simulated"]["preemptions"] > 0
        assert section["simulated"]["prefill_chunks"] > 0

    def test_prefix_cache_section_holds_the_acceptance_criterion(self, payload):
        """PR-6's tentpole, pinned against the committed trajectory: on the shared-prefix
        agent-swarm workload, radix-tree fork-on-admit must cut p99 TTFT by at least 1.5x
        vs. the cache-off twin, with a real hit rate and real prefill savings — and
        without changing a single generated token."""
        section = payload["prefix_cache"]
        assert section["p99_ttft_improves_ge_1_5x"] is True
        assert section["p99_ttft_speedup"] >= 1.5
        on, off = section["configs"]["cache_on"], section["configs"]["cache_off"]
        assert on["prefix_hit_rate"] > 0.5  # swarm agents genuinely share prefixes
        assert on["prefix_saved_tokens"] > 0
        assert on["prefix_blocks_inserted"] > 0
        assert on["p99_ttft_s"] < off["p99_ttft_s"]
        # The cache changes when tokens appear, never what is served.
        assert on["completed_requests"] == off["completed_requests"]
        assert on["generated_tokens"] == off["generated_tokens"]
        assert off["prefix_hit_rate"] == 0.0
        assert off["prefix_saved_tokens"] == 0

    def test_sweep_section_is_deterministic_and_full_width(self, payload):
        """The sweep acceptance criteria: >= 16 grid cells, executed with 4 workers, and
        the parallel run byte-identical to the serial one.  The wall-clock speedup is
        recorded for the trajectory but depends on the runner's cores, so the committed
        flag is determinism, not the ratio."""
        section = payload["sweep"]
        assert section["num_cells"] >= 16
        assert section["workers"] == 4
        assert section["parallel_matches_serial"] is True
        assert section["serial_wall_s"] > 0.0
        assert section["parallel_wall_s"] > 0.0
        assert section["speedup"] > 0.0
        assert section["consolidated_json"] == "BENCH_sweep.json"

    def test_committed_sweep_json_matches_its_schema(self, payload):
        """The consolidated per-cell sweep JSON committed next to the bench payload must
        validate against repro.sweep's schema and agree with the bench section."""
        from repro.reporting.schema import validate_payload as validate
        from repro.sweep import SWEEP_SCHEMA

        path = os.path.join(_ROOT, payload["sweep"]["consolidated_json"])
        with open(path, encoding="utf-8") as fh:
            sweep_payload = json.load(fh)
        validate(sweep_payload, SWEEP_SCHEMA)
        assert sweep_payload["num_cells"] == payload["sweep"]["num_cells"]
        assert len(sweep_payload["cells"]) == sweep_payload["num_cells"]
        # Every cell reports its effective backend configuration, and the payload
        # carries the goodput-per-GPU vs. accuracy frontier.
        for cell in sweep_payload["cells"]:
            assert cell["kernel"] and cell["kv_format"]
        frontier = sweep_payload["frontier"]
        assert frontier["num_points"] >= 1
        assert frontier["num_points"] + frontier["dominated_cells"] == (
            sweep_payload["num_cells"]
        )

    def test_sweep_grid_section_profiles_a_large_grid(self, payload):
        """PR-7's profiling criterion: the kernel-backend grid spans >= 1,000 cells
        end to end (the scale the per-configuration engine cache exists for), with a
        live cell throughput for the perf-regression gate and a non-empty frontier."""
        section = payload["sweep_grid"]
        assert section["num_cells"] >= 1000
        assert section["workers"] == 4
        assert section["wall_time_s"] > 0.0
        assert section["cells_per_s"] > 0.0
        assert section["frontier_points"] >= 1
        assert (
            section["frontier_points"] + section["dominated_cells"]
            == section["num_cells"]
        )
        best = section["best_config"]
        assert best["goodput_per_gpu_rps"] > 0.0
        assert best["gpus"] >= 1

    def test_tracing_section_certifies_the_null_and_traced_paths(self, bench, payload):
        """PR-8's observability criteria, pinned against the committed trajectory: the
        traced re-run of trace_simulation is bit-identical to the untraced one, every
        phase breakdown tiles exactly, the tracer-off re-measure stays within noise of
        the baseline wall (the null path is free), and the run names its Chrome trace
        artifact.  Every bench run rewrites that artifact, so it is gitignored rather
        than committed (CI uploads the fast-mode one); the Perfetto shape of the
        payload it holds is pinned by ``tests/test_telemetry.py::TestChromeTraceExport``."""
        section = payload["tracing"]
        assert section["bit_identical"] is True
        assert section["breakdowns_exact"] is True
        assert section["events"] > 0
        assert section["counter_samples"] > 0
        assert section["harness"]["off_vs_baseline_ratio"] > 0.0
        assert section["harness"]["traced_wall_time_s"] > 0.0
        assert section["trace_artifact"] == os.path.basename(bench.TRACE_RESULT_PATH)
        with open(os.path.join(_ROOT, ".gitignore"), encoding="utf-8") as fh:
            assert section["trace_artifact"] in fh.read().split()

    def test_committed_trajectory_records_fast_forward_speedup(self, payload):
        """PR-4's acceptance criterion, pinned against the committed trajectory: the
        fast-forward simulator clears 10x the PR-3 scheduler iteration rate (14,831 it/s)
        on the unchanged trace_simulation workload."""
        assert payload["trace_simulation"]["harness"]["iterations_per_s"] >= 10 * 14831.5
        # The simulated numbers must be exactly the PR-3 model's: fast-forward changes
        # wall time, never results.
        simulated = payload["trace_simulation"]["simulated"]
        assert simulated["generated_tokens"] == 124446
        assert simulated["throughput_tokens_per_s"] == 4410.5
        assert simulated["iterations"] == 9626

    def test_validator_rejects_mutations(self, bench, payload):
        broken = json.loads(json.dumps(payload))
        del broken["preemption_ab"]["hybrid_goodput_ge_recompute"]
        with pytest.raises(ValueError, match="missing required key"):
            bench.validate_payload(broken)
        broken = json.loads(json.dumps(payload))
        broken["trace_simulation"]["simulated"]["preemptions"] = "many"
        with pytest.raises(ValueError, match="expected int"):
            bench.validate_payload(broken)
        broken = json.loads(json.dumps(payload))
        broken["trace_simulation"]["harness"]["wall_time_s"] = True
        with pytest.raises(ValueError, match="expected float, got bool"):
            bench.validate_payload(broken)


class TestMixedPhaseCoverageCount:
    def test_fast_mixed_phase_step_calls(self, runs, monkeypatch):
        """The ``step()`` calls fast-forward leaves on the ``--fast`` mixed_phase workload
        (150 requests): every other iteration runs inside a closed-form epoch.  The count
        was 705 before swapped sequences were parked against the prefill-chunk headroom
        ``step()``'s swap-in scan reserves."""
        from repro.core import run
        from repro.serving import ContinuousBatchingScheduler

        calls = []
        step = ContinuousBatchingScheduler.step

        def counted_step(self):
            calls.append(None)
            return step(self)

        monkeypatch.setattr(ContinuousBatchingScheduler, "step", counted_step)
        result = run(runs["fast"]["mixed_phase"]["fast"])
        assert result.replica_stats[0].num_iterations == 12_985
        assert len(calls) == 500
        assert len(calls) < 705

    def test_fast_mixed_phase_pricing_calls(self, runs, monkeypatch):
        """Cost evaluations per iteration, counted on the same trace: ``step()`` prices its
        forward pass with at most one engine call, and a fast-forward epoch prices all of
        its iterations with exactly one, so a skipped iteration costs no engine call.
        ``iteration_time`` is otherwise reached only by the hybrid policy's recompute
        estimate.  Before an epoch was priced in one call, this trace made 2,292
        ``iteration_time`` calls, 1,574 of them one per iteration of a short epoch."""
        from collections import Counter

        from repro.core import run
        from repro.serving import ContinuousBatchingScheduler, ServingEngine
        from repro.telemetry import Tracer

        calls = Counter()

        def count(cls, name):
            original = getattr(cls, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        count(ContinuousBatchingScheduler, "step")
        for name in ("iteration_time", "mixed_step_time", "price_epoch", "recompute_time"):
            count(ServingEngine, name)
        tracer = Tracer()
        result = run(runs["fast"]["mixed_phase"]["fast"], tracer=tracer)
        epochs = list(tracer.events_of("ff_decode", "ff_mixed"))
        skipped = sum(epoch.args["iterations"] for epoch in epochs)
        iterations = result.replica_stats[0].num_iterations
        assert iterations == 12_985 == calls["mixed_step_time"] + skipped
        assert calls["mixed_step_time"] <= calls["step"]
        assert calls["price_epoch"] == len(epochs) < skipped
        assert calls["iteration_time"] == calls["mixed_step_time"] + calls["recompute_time"]
        assert dict(calls) == {
            "step": 500,
            "mixed_step_time": 496,
            "price_epoch": 494,
            "recompute_time": 222,
            "iteration_time": 718,
        }

    def test_fast_mixed_phase_step_coeff_entries(self, runs):
        """What the same run memoizes: one ``step_coeffs`` entry per distinct (total
        tokens, logits tokens) shape its 718 ``iteration_time`` and 494 ``price_epoch``
        calls priced.  A cheaper miss path must not change what is memoized."""
        from repro.core import run

        spec = runs["fast"]["mixed_phase"]["fast"]
        engine = spec.build_engine()
        run(spec, engine=engine)
        assert engine.cache_stats() == {
            "step_coeffs": {"entries": 258, "max_entries": 65536, "evictions": 0},
        }


class TestKvCallCounts:
    """Calls of every public :class:`PagedKvCache` method (nested ones included), counted
    on the ``trace_simulation`` workload (500 requests) and the ``--fast`` mixed_phase
    workload.  ``step()`` reserves a batch's decode slots in one bulk call, so while the
    free pool covers every slot that opens a block, no decode slot costs a KV call of its
    own.  When each slot cost a ``sequence`` and an ``extend_state`` call, these runs
    made 46,317 calls (30,330 ``sequence``, 9,315 ``extend_state``) and 21,190.

    ``step()`` plans its prefill chunks without probing the pool and allocates each
    planned chunk with one ``extend_state`` call, so ``extend_sequence`` runs once per
    admission (every admission here is a cache miss, which ``add_sequence`` admits).
    The KV peaks are kept in used blocks and divided once in ``stats()``, with no
    ``utilization`` or ``host_utilization`` call.  With a probing chunk walk and peaks
    sampled through both calls, these runs made 8,064 and 13,139 calls.

    ``step()``'s swap-in scan prices each resident prefill's next chunk with the
    planner's integer block arithmetic; when it asked the pool instead, the mixed_phase
    run made 568 more calls (9,089)."""

    @staticmethod
    def _count(monkeypatch):
        import inspect
        from collections import Counter

        from repro.serving import ContinuousBatchingScheduler, PagedKvCache

        calls = Counter()
        for name, function in list(vars(PagedKvCache).items()):
            if name.startswith("_") or not inspect.isfunction(function):
                continue

            def counted(self, *args, _name=name, _function=function, **kwargs):
                calls[_name] += 1
                return _function(self, *args, **kwargs)

            monkeypatch.setattr(PagedKvCache, name, counted)
        # Per reservation: the batch, whether the pool covered every slot that opens a
        # block, and the KV calls the reservation made.
        reservations = []
        reserve = ContinuousBatchingScheduler._reserve_decode_slots

        def observed(self):
            kv = self.kv_cache
            block_tokens = kv.config.block_tokens
            opening = sum(
                1 for r in self._running
                if kv._sequences[r.request_id].num_tokens % block_tokens == 0
            )
            batch, covered = len(self._running), opening <= kv.num_free_blocks
            before = sum(calls.values())
            contexts = reserve(self)
            reservations.append((batch, covered, sum(calls.values()) - before))
            return contexts

        monkeypatch.setattr(ContinuousBatchingScheduler, "_reserve_decode_slots", observed)
        return calls, reservations

    def test_trace_simulation_kv_calls(self, runs, monkeypatch):
        from repro.core import run

        calls, reservations = self._count(monkeypatch)
        result = run(runs["full"]["trace_simulation"])
        assert result.replica_stats[0].num_iterations == 9_626
        # The pool always covers the batch: one call per reservation at any batch size.
        assert all(covered for _, covered, _ in reservations)
        assert {kv_calls for batch, _, kv_calls in reservations if batch} == {1}
        assert max(batch for batch, _, _ in reservations) > 20
        assert dict(calls) == {
            "add_sequence": 500,
            "can_admit": 983,
            "extend_sequence": 500,
            "extend_state": 763,
            "free_sequence": 500,
            "grow_states": 913,
            "reserve_decode_slots": 629,
        }
        assert sum(calls.values()) == 4_788
        assert calls["extend_sequence"] == calls["add_sequence"]

    def test_fast_mixed_phase_kv_calls(self, runs, monkeypatch):
        from repro.core import run

        calls, reservations = self._count(monkeypatch)
        result = run(runs["fast"]["mixed_phase"]["fast"])
        assert result.replica_stats[0].num_iterations == 12_985
        covered = [kv_calls for batch, covered, kv_calls in reservations if batch and covered]
        exhausted = [kv_calls for _, covered, kv_calls in reservations if not covered]
        assert covered and set(covered) == {1}
        assert exhausted and min(exhausted) > 1  # the walked slots call one at a time
        assert dict(calls) == {
            "add_sequence": 150,
            "can_admit": 901,
            "can_swap_out": 444,
            "extend_sequence": 150,
            "extend_state": 1_263,
            "free_sequence": 150,
            "grow_states": 494,
            "reserve_decode_slots": 484,
            "sequence": 458,
            "shares_blocks": 1_309,
            "swap_in": 222,
            "swap_out": 222,
            "swapped_sequence": 2_052,
            "truncate_sequence": 222,
        }
        assert sum(calls.values()) == 8_521
        assert calls["extend_sequence"] == calls["add_sequence"]


class TestCompareMode:
    """``--compare A B`` lists the leaves that differ, counts and simulated values before
    wall-clock ones, and fails only on a leaf that is not wall-clock."""

    A = {
        "mode": "fast",
        "trace_simulation": {
            "harness": {"wall_time_s": 0.05, "iterations_per_s": 120000.0},
            "simulated": {"iterations": 6000, "p99_ttft_s": 0.5},
        },
        "tracing": {"harness": {"off_vs_baseline_ratio": 0.9}, "events": 41},
    }

    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_wall_clock_only_differences_pass(self, bench, tmp_path, capsys):
        b = json.loads(json.dumps(self.A))
        b["trace_simulation"]["harness"]["wall_time_s"] = 0.07
        b["tracing"]["harness"]["off_vs_baseline_ratio"] = 0.8
        assert bench.compare_payloads(self.A, b) == ([], [
            ("$.trace_simulation.harness.wall_time_s", 0.05, 0.07),
            ("$.tracing.harness.off_vs_baseline_ratio", 0.9, 0.8),
        ])
        with pytest.raises(SystemExit) as exit_info:
            bench.main(["--compare", self._write(tmp_path, "a.json", self.A),
                        self._write(tmp_path, "b.json", b)])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "7 leaves compared: 0 counts or simulated values and 2 wall-clock" in out

    def test_a_simulated_difference_fails_and_is_listed_first(self, bench, tmp_path,
                                                              capsys):
        b = json.loads(json.dumps(self.A))
        b["trace_simulation"]["harness"]["iterations_per_s"] = 90000.0
        b["trace_simulation"]["simulated"]["iterations"] = 6001
        del b["tracing"]["events"]
        simulated, wall_clock = bench.compare_payloads(self.A, b)
        assert simulated == [
            ("$.trace_simulation.simulated.iterations", 6000, 6001),
            ("$.tracing.events", 41, "<absent>"),
        ]
        assert wall_clock == [
            ("$.trace_simulation.harness.iterations_per_s", 120000.0, 90000.0),
        ]
        with pytest.raises(SystemExit) as exit_info:
            bench.main(["--compare", self._write(tmp_path, "a.json", self.A),
                        self._write(tmp_path, "b.json", b)])
        assert exit_info.value.code == 1
        out = capsys.readouterr().out
        assert out.index("simulated.iterations: 6000 -> 6001") < out.index(
            "harness.iterations_per_s: 120000.0 -> 90000.0")


_GOLDEN_JSON = os.path.join(os.path.dirname(__file__), "golden", "bench_scheduler_fast.json")


def _assert_no_leaf_moved(bench, golden, sections):
    moved, _ = bench.compare_payloads(golden, sections)
    assert not moved, (
        f"{len(moved)} counts or simulated values moved from "
        f"tests/golden/bench_scheduler_fast.json:\n{bench.difference_lines(moved)}"
    )


class TestFastSchedulerGolden:
    """Every count and simulated value of the six scheduler sections of the ``--fast``
    payload, pinned.  The fast-forward equivalence suite runs ``step()`` on both of its
    sides, so it cannot see ``step()`` itself change; this golden can.

    The golden holds the sections with their wall-clock leaves (``WALL_CLOCK_LEAVES``)
    dropped, as ``json.dump(bench.without_wall_clock(sections), fh, indent=2)`` writes
    them.  A change that moves a leaf on purpose rewrites the file that way and says why
    each leaf moved."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(_GOLDEN_JSON, encoding="utf-8") as fh:
            return json.load(fh)

    def test_no_leaf_moved(self, bench, golden, monkeypatch):
        """Each spec is served once: 14 runs (trace_simulation 1, mixed_phase 2,
        preemption_ab 3, scheduling_ab 4, cluster_ab 2, prefix_cache 2), each building
        its own engine.  Timed best of several, as ``main`` runs them, they were 26."""
        from repro.serving import ServingEngine

        engines = []
        build = ServingEngine.__init__

        def counted(self, *args, **kwargs):
            engines.append(None)
            build(self, *args, **kwargs)

        monkeypatch.setattr(ServingEngine, "__init__", counted)
        _, sections = bench.scheduler_sections(bench.SECTION_SIZES["fast"])
        assert len(engines) == 14
        assert list(sections) == list(golden)
        _assert_no_leaf_moved(bench, golden, bench.without_wall_clock(sections))

    def test_a_moved_leaf_fails_and_is_listed(self, bench, golden):
        sections = json.loads(json.dumps(golden))
        sections["mixed_phase"]["simulated"]["iterations"] += 1
        sections["prefix_cache"]["harness"]["wall_time_s"] = 0.5  # wall-clock: ignored
        with pytest.raises(AssertionError) as failure:
            _assert_no_leaf_moved(bench, golden, sections)
        iterations = golden["mixed_phase"]["simulated"]["iterations"]
        assert "1 counts or simulated values moved" in str(failure.value)
        assert (f"$.mixed_phase.simulated.iterations: {iterations} -> {iterations + 1}"
                in str(failure.value))


class TestLiveAcceptanceFlags:
    def test_ab_flags_hold_at_full_size(self, bench, runs):
        """The four A/B acceptance flags, recomputed at full size from the harness's own
        declarations, not only read from the committed file: the cost-based hybrid never
        loses goodput to recompute-only, SJF cuts p99 TTFT vs. FCFS, disaggregated
        prefill/decode cuts p99 TTFT vs. co-located, and the prefix cache cuts p99 TTFT
        by at least 1.5x."""
        specs = runs["full"]
        assert bench.bench_preemption_ab(specs["preemption_ab"])["hybrid_goodput_ge_recompute"]
        assert bench.bench_scheduling_ab(specs["scheduling_ab"])["sjf_p99_ttft_improves"]
        assert bench.bench_cluster_ab(specs["cluster_ab"])["disagg_p99_ttft_improves"]
        prefix = bench.bench_prefix_cache(*bench.SECTION_SIZES["full"]["prefix"])
        assert prefix["p99_ttft_improves_ge_1_5x"]
