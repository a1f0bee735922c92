"""The sweep engine's contracts: deterministic cells, process-parallel reproducibility,
and a schema-stable consolidated payload.

The sweep is only useful as an experiment platform if a grid cell's result is a pure
function of its parameters: re-running, parallelizing, or *growing* the grid must never
change a surviving cell's numbers.  These tests pin that, plus the payload schema the
benchmark harness and CI artifacts rely on.
"""

import dataclasses
import json

import pytest

from repro.reporting.schema import validate_payload
from repro.sweep import (
    SINGLE_REPLICA,
    SWEEP_SCHEMA,
    SweepGrid,
    cells_identical,
    compute_frontier,
    derive_cell_seed,
    main as sweep_main,
    resolve_cell_profile,
    run_sweep,
    write_sweep_json,
)

SMALL_GRID = SweepGrid(
    systems=("liquidserve",),
    preemption_policies=("recompute", "hybrid"),
    arrival_rates_rps=(20.0,),
    cluster_shapes=(
        SINGLE_REPLICA,
        {"mode": "colocated", "num_replicas": 2, "router": "least-tokens"},
        {"mode": "disaggregated", "num_prefill_replicas": 1, "num_decode_replicas": 1},
    ),
    num_requests=15,
    kv_budget_bytes=2 * 2**30,
    host_kv_budget_bytes=2 * 2**30,
)


@pytest.fixture(scope="module")
def payload():
    return run_sweep(SMALL_GRID, parallel=False)


class TestGridExpansion:
    def test_cell_count_and_order(self):
        cells = SMALL_GRID.cells()
        assert len(cells) == 2 * 3  # preemption x cluster shapes
        assert [c["index"] for c in cells] == list(range(6))

    def test_seeds_keyed_by_parameters_not_position(self):
        """Growing the grid must not reseed surviving cells: seeds derive from the
        parameter key, so every (preemption, shape) combination keeps its seed when a
        scheduling policy is added."""
        grown = dataclasses.replace(SMALL_GRID, scheduling_policies=("fcfs", "sjf"))
        base = {
            (c["scheduling_policy"], c["preemption_policy"], c["cluster"]["mode"],
             c.get("cluster", {}).get("num_replicas")): c["seed"]
            for c in SMALL_GRID.cells()
        }
        grown_map = {
            (c["scheduling_policy"], c["preemption_policy"], c["cluster"]["mode"],
             c.get("cluster", {}).get("num_replicas")): c["seed"]
            for c in grown.cells()
        }
        for key, seed in base.items():
            assert grown_map[key] == seed

    def test_derive_cell_seed_is_stable(self):
        # Pinned value: the seed derivation must stay stable across releases, or every
        # committed sweep JSON silently changes meaning.
        assert derive_cell_seed(0, "model=llama2-7b|system=liquidserve") == (
            derive_cell_seed(0, "model=llama2-7b|system=liquidserve")
        )
        assert derive_cell_seed(0, "a") != derive_cell_seed(0, "b")
        assert derive_cell_seed(0, "a") != derive_cell_seed(1, "a")


class TestDeterminism:
    def test_serial_rerun_is_byte_identical(self, payload):
        again = run_sweep(SMALL_GRID, parallel=False)
        assert cells_identical(payload, again)

    def test_parallel_matches_serial(self, payload):
        parallel = run_sweep(SMALL_GRID, max_workers=2)
        assert cells_identical(payload, parallel)

    def test_cells_identical_detects_differences(self, payload):
        mutated = json.loads(json.dumps(payload))
        mutated["cells"][0]["metrics"]["generated_tokens"] += 1
        assert not cells_identical(payload, mutated)
        # ...but wall-clock noise alone must not count as a difference.
        jittered = json.loads(json.dumps(payload))
        jittered["cells"][0]["wall_time_s"] += 1.0
        assert cells_identical(payload, jittered)


class TestPayloadSchema:
    def test_payload_validates(self, payload):
        validate_payload(payload, SWEEP_SCHEMA)

    def test_every_cell_completed_its_trace(self, payload):
        for cell in payload["cells"]:
            assert cell["metrics"]["completed_requests"] == SMALL_GRID.num_requests
            assert cell["metrics"]["iterations"] > 0

    def test_cluster_cells_actually_fan_out(self, payload):
        labels = {cell["cluster"]["label"] for cell in payload["cells"]}
        assert labels == {"single", "colocated-2", "disaggregated-1p+1d"}

    def test_validator_rejects_mutations(self, payload):
        broken = json.loads(json.dumps(payload))
        del broken["cells"][1]["metrics"]["goodput_rps"]
        with pytest.raises(ValueError, match=r"cells\[1\].metrics.goodput_rps"):
            validate_payload(broken, SWEEP_SCHEMA)
        broken = json.loads(json.dumps(payload))
        broken["cells"] = {}
        with pytest.raises(ValueError, match="expected list"):
            validate_payload(broken, SWEEP_SCHEMA)

    def test_write_sweep_json_round_trips(self, payload, tmp_path):
        path = write_sweep_json(payload, str(tmp_path / "sweep.json"))
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        validate_payload(loaded, SWEEP_SCHEMA)
        assert cells_identical(payload, loaded)


class TestBackendAxes:
    """The quant-format x kernel x kv_format axes added by the backend layer."""

    BACKEND_GRID = SweepGrid(
        systems=("trt-fp16",),
        kernels=(None, "liquidgemm"),
        kv_formats=(None, "int4"),
        arrival_rates_rps=(20.0,),
        num_requests=10,
        kv_budget_bytes=2 * 2**30,
    )

    def test_default_axes_leave_existing_grids_untouched(self):
        """A grid without backend overrides expands to the exact pre-axis cells: same
        count, same keys, same seeds — the compatibility contract for committed JSONs."""
        cells = SMALL_GRID.cells()
        assert all(c["kernel"] is None and c["kv_format"] is None for c in cells)
        # Seed must not see the new axes when they are defaulted: key is unchanged.
        expected = derive_cell_seed(
            SMALL_GRID.base_seed,
            "model=llama2-7b|system=liquidserve|scheduling=fcfs"
            "|preemption=recompute|rate=20|cluster=single",
        )
        assert cells[0]["seed"] == expected

    def test_override_cells_get_distinct_seeds(self):
        cells = self.BACKEND_GRID.cells()
        assert len(cells) == 4  # kernels x kv_formats
        assert len({c["seed"] for c in cells}) == 4
        assert {(c["kernel"], c["kv_format"]) for c in cells} == {
            (None, None), (None, "int4"), ("liquidgemm", None), ("liquidgemm", "int4"),
        }

    def test_resolve_cell_profile_applies_overrides(self):
        cells = self.BACKEND_GRID.cells()
        default = resolve_cell_profile(cells[0])
        derived = resolve_cell_profile(cells[-1])
        assert default.kernel == "fp16" and default.kv_format == "fp8"
        assert derived.kernel == "liquidgemm" and derived.kv_format == "int4"
        assert derived.name == "trt-fp16[kernel=liquidgemm,kv_format=int4]"

    def test_sweep_runs_and_reports_effective_backend(self):
        payload = run_sweep(self.BACKEND_GRID, parallel=False)
        validate_payload(payload, SWEEP_SCHEMA)
        by_cfg = {
            (c["kernel"], c["kv_format"]): c["metrics"] for c in payload["cells"]
        }
        # Result rows carry the *effective* names, never None.
        assert ("fp16", "fp8") in by_cfg and ("liquidgemm", "int4") in by_cfg
        # The kernel override must actually change the simulated physics.
        assert (
            by_cfg[("fp16", "fp8")]["throughput_tokens_per_s"]
            != by_cfg[("liquidgemm", "fp8")]["throughput_tokens_per_s"]
        )
        assert payload["grid"]["kernels"] == ["default", "liquidgemm"]
        assert payload["grid"]["kv_formats"] == ["default", "int4"]


class TestFrontier:
    def test_frontier_in_payload_and_schema_valid(self, payload):
        frontier = payload["frontier"]
        assert frontier["num_points"] >= 1
        assert frontier["num_points"] + frontier["dominated_cells"] == payload["num_cells"]

    def test_frontier_is_pareto(self, payload):
        points = payload["frontier"]["points"]
        # Sorted by descending goodput-per-GPU; no point dominates another.
        goodputs = [p["goodput_per_gpu_rps"] for p in points]
        assert goodputs == sorted(goodputs, reverse=True)
        for p in points:
            for q in points:
                if p is q:
                    continue
                dominates = (
                    q["goodput_per_gpu_rps"] >= p["goodput_per_gpu_rps"]
                    and q["accuracy_rmse"] <= p["accuracy_rmse"]
                    and (
                        q["goodput_per_gpu_rps"] > p["goodput_per_gpu_rps"]
                        or q["accuracy_rmse"] < p["accuracy_rmse"]
                    )
                )
                assert not dominates

    def test_gpu_normalization(self, payload):
        by_label = {}
        for point in payload["frontier"]["points"]:
            by_label[point["cluster"]] = point["gpus"]
        for cell in payload["cells"]:
            label = cell["cluster"]["label"]
            if label in by_label:
                expected = {"single": 1, "colocated-2": 2, "disaggregated-1p+1d": 2}[label]
                assert by_label[label] == expected

    def test_compute_frontier_drops_dominated(self):
        rows = [
            {"index": i, "system": "s", "model": "m", "kernel": k, "kv_format": "int8",
             "cluster": {"mode": "single", "label": "single"},
             "metrics": {"goodput_rps": g, "slo_attainment": 1.0}}
            for i, (k, g) in enumerate(
                [("fp16", 1.0), ("liquidgemm", 2.0), ("qserve-w4a8", 1.5)]
            )
        ]
        frontier = compute_frontier(rows, tp_degree=1)
        # fp16 (rmse 0) and liquidgemm (max goodput) survive; qserve is dominated by
        # liquidgemm (its RMSE proxy is higher and its goodput lower).
        kept = {p["kernel"] for p in frontier["points"]}
        assert kept == {"fp16", "liquidgemm"}
        assert frontier["dominated_cells"] == 1


class TestClusterShapes:
    """A cell's label, seed and GPU count follow the shape its ClusterSpec serves."""

    @pytest.mark.parametrize(
        "shape, label",
        [
            (SINGLE_REPLICA, "single"),
            ({"mode": "colocated"}, "colocated-2"),
            ({"mode": "colocated", "num_replicas": 3, "router": "least-tokens"}, "colocated-3"),
            ({"mode": "disaggregated"}, "disaggregated-1p+1d"),
            (
                {"mode": "disaggregated", "num_prefill_replicas": 2, "num_decode_replicas": 3},
                "disaggregated-2p+3d",
            ),
        ],
    )
    def test_labels_and_seeds_in_use_are_unchanged(self, shape, label):
        grid = SweepGrid(cluster_shapes=(shape,))
        assert grid.describe()["cluster_shapes"] == [label]
        assert grid.cells()[0]["seed"] == derive_cell_seed(
            0,
            "model=llama2-7b|system=liquidserve|scheduling=fcfs"
            f"|preemption=recompute|rate=10|cluster={label}",
        )

    def test_unset_replica_count_is_labelled_as_served(self):
        grid = SweepGrid(
            cluster_shapes=({"mode": "colocated", "num_replicas": None},),
            num_requests=5,
            arrival_rates_rps=(20.0,),
        )
        explicit = dataclasses.replace(
            grid, cluster_shapes=({"mode": "colocated", "num_replicas": 2},)
        )
        cell = grid.cells()[0]
        assert cell["spec"].cluster.total_replicas == 2
        assert cell["seed"] == explicit.cells()[0]["seed"]
        payload = run_sweep(grid, parallel=False)
        row = payload["cells"][0]
        assert row["cluster"]["label"] == "colocated-2"
        assert payload["frontier"]["points"][0]["gpus"] == 2
        assert row["metrics"] == run_sweep(explicit, parallel=False)["cells"][0]["metrics"]


class TestCliValidation:
    """Unknown registry names fail fast at argparse time, listing what exists."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--systems", "nope"], "unknown --systems"),
            (["--models", "nope"], "unknown --models"),
            (["--kernels", "nope"], "unknown --kernels"),
            (["--kv-formats", "nope"], "unknown --kv-formats"),
            (["--scheduling", "nope"], "unknown --scheduling"),
            (["--preemption", "nope"], "unknown --preemption"),
        ],
    )
    def test_unknown_names_exit_with_listing(self, argv, fragment, capsys):
        with pytest.raises(SystemExit) as excinfo:
            sweep_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert fragment in err and "available:" in err

    def test_cli_runs_tiny_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        sweep_main(
            [
                "--out", str(out), "--serial", "--num-requests", "5",
                "--systems", "liquidserve", "--scheduling", "fcfs",
                "--preemption", "recompute", "--rates", "20",
                "--kernels", "default", "liquidgemm", "--kv-formats", "default",
            ]
        )
        with open(out, encoding="utf-8") as fh:
            loaded = json.load(fh)
        validate_payload(loaded, SWEEP_SCHEMA)
        assert loaded["num_cells"] == 2


class TestSingleCellAgainstCoreApi:
    def test_single_shape_matches_simulate_serving(self):
        """A sweep cell is the same simulation simulate_serving runs: same trace seed,
        same scheduler — so the headline numbers must agree exactly."""
        from repro.core import simulate_serving

        grid = SweepGrid(num_requests=25, arrival_rates_rps=(20.0,))
        cell = run_sweep(grid, parallel=False)["cells"][0]
        sim = simulate_serving(
            "liquidserve",
            "llama2-7b",
            num_requests=25,
            arrival_rate_rps=20.0,
            seed=cell["seed"],
        )
        assert cell["metrics"]["generated_tokens"] == sim.stats.generated_tokens
        assert cell["metrics"]["iterations"] == sim.stats.num_iterations
        assert cell["metrics"]["simulated_time_s"] == round(
            sim.stats.simulated_time_s, 6
        )
