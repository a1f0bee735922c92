"""Table 1: peak token-generation throughput under the 80 GB memory constraint.

Regenerates the full system-level comparison: seven serving systems (TRT-FP16/W4A16/W8A8/FP8,
QServe, LiquidServe/wo, LiquidServe) x eight models, input 1024 / output 512 tokens, batch
size swept to find the peak.  Reported exactly as the paper does: tokens/s with the peak batch
size in parentheses, OOM/NA where the configuration cannot run.
"""


from repro.reporting import format_table
from repro.serving import ServingEngine, TABLE1_SYSTEMS

MODELS = ["llama1-30b", "llama2-7b", "llama2-13b", "llama2-70b",
          "llama3-8b", "mistral-7b", "yi-34b", "mixtral-8x7b"]


def build_table1():
    table = {}
    for model in MODELS:
        table[model] = {
            system: ServingEngine(system, model).peak_throughput(input_len=1024, output_len=512)
            for system in TABLE1_SYSTEMS
        }
    return table


def test_table1_peak_throughput(benchmark, emit):
    table = benchmark.pedantic(build_table1, rounds=1, iterations=1)

    rows = []
    for system in TABLE1_SYSTEMS:
        rows.append([system] + [table[model][system].label for model in MODELS])
    speedup_row = ["liquidserve speedup vs best baseline"]
    for model in MODELS:
        liquid = table[model]["liquidserve"].peak_throughput
        baselines = [
            table[model][s].peak_throughput for s in TABLE1_SYSTEMS if s not in ("liquidserve", "liquidserve-wo")
        ]
        best = max(b for b in baselines if b > 0)
        speedup_row.append(f"{liquid / best:.2f}x")
    rows.append(speedup_row)
    text = format_table(
        ["system"] + MODELS, rows,
        title="Table 1 — peak throughput (tokens/s) under 80 GB, input 1024 / output 512",
    )
    emit("table1_peak_throughput", text)

    # Structural assertions matching the paper's table.
    for model in MODELS:
        liquid = table[model]["liquidserve"].peak_throughput
        for system in TABLE1_SYSTEMS:
            if system == "liquidserve":
                continue
            assert liquid >= table[model][system].peak_throughput, (model, system)
    # OOM / NA pattern.
    assert table["llama2-70b"]["trt-fp16"].oom
    assert table["mixtral-8x7b"]["trt-fp16"].oom
    assert table["mixtral-8x7b"]["trt-w8a8"].oom
    # The GEMM kernel's own contribution (LiquidServe vs LiquidServe/wo), paper: 1.13-1.98x.
    # Prefill and decode are both priced under each system's own GEMM kernel, so the
    # kernel's margin holds on every model.
    for model in MODELS:
        ratio = (
            table[model]["liquidserve"].peak_throughput
            / table[model]["liquidserve-wo"].peak_throughput
        )
        assert ratio >= 1.13, model
