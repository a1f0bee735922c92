"""Tests for the GPU hardware specifications (repro.gpu.specs)."""

import pytest

from repro.gpu import A100, H100, H800, Precision, get_gpu, list_gpus


class TestPrecision:
    @pytest.mark.parametrize(
        "precision, bits",
        [("fp32", 32), ("fp16", 16), ("bf16", 16), ("fp8", 8), ("int8", 8), ("int4", 4), ("uint4", 4)],
    )
    def test_bits(self, precision, bits):
        assert Precision.bits(precision) == bits

    def test_bytes_fractional_for_int4(self):
        assert Precision.bytes("int4") == 0.5

    def test_unknown_precision_raises(self):
        with pytest.raises(ValueError):
            Precision.bits("int3")


class TestFigure1Metrics:
    """The specs must carry exactly the Figure 1a numbers the paper's analysis uses."""

    def test_a100_tensor_core_fp16(self):
        assert A100.tensor_core_throughput("fp16") == pytest.approx(312e12)

    def test_a100_tensor_core_int8(self):
        assert A100.tensor_core_throughput("int8") == pytest.approx(624e12)

    def test_a100_tensor_core_int4(self):
        assert A100.tensor_core_throughput("int4") == pytest.approx(1248e12)

    def test_h100_tensor_core_fp16(self):
        assert H100.tensor_core_throughput("fp16") == pytest.approx(989.4e12)

    def test_h100_tensor_core_int8(self):
        assert H100.tensor_core_throughput("int8") == pytest.approx(1978.9e12)

    def test_h100_has_no_int4_tensor_core(self):
        assert not H100.supports_precision("int4")
        with pytest.raises(ValueError):
            H100.tensor_core_throughput("int4")

    def test_cuda_core_int32(self):
        assert A100.cuda_core_int32_tops == pytest.approx(19.5e12)
        assert H100.cuda_core_int32_tops == pytest.approx(33.5e12)

    def test_memory_bandwidth(self):
        assert A100.memory_bandwidth == pytest.approx(2e12)
        assert H100.memory_bandwidth == pytest.approx(3.3e12)

    def test_h800_matches_h100_compute(self):
        assert H800.tensor_core_tops == H100.tensor_core_tops
        assert H800.memory_bandwidth == H100.memory_bandwidth
        assert H800.interconnect_bandwidth < H100.interconnect_bandwidth

    def test_memory_capacity_80gb(self):
        for gpu in (A100, H100, H800):
            assert gpu.memory_capacity == 80 * 2**30


class TestGpuSpecHelpers:
    def test_registry_lookup_case_insensitive(self):
        assert get_gpu("h800") is H800
        assert get_gpu("A100") is A100

    def test_spec_resolves_to_itself(self):
        assert get_gpu(H800) is H800
        custom = H800.with_overrides(name="H800-custom", host_link_bandwidth=1e9)
        assert get_gpu(custom) is custom

    def test_registry_unknown(self):
        with pytest.raises(KeyError):
            get_gpu("B200")

    def test_list_gpus_is_copy(self):
        gpus = list_gpus()
        gpus["fake"] = A100
        assert "fake" not in list_gpus()

    def test_with_overrides_does_not_mutate(self):
        modified = H800.with_overrides(num_sms=10)
        assert modified.num_sms == 10
        assert H800.num_sms == 132

    def test_scaled_bandwidth(self):
        scaled = H800.scaled(bandwidth=2.0)
        assert scaled.memory_bandwidth == pytest.approx(2 * H800.memory_bandwidth)
        assert scaled.tensor_core_throughput("int8") == pytest.approx(
            H800.tensor_core_throughput("int8")
        )

    def test_scaled_tensor_and_cuda(self):
        scaled = H800.scaled(tensor=0.5, cuda=2.0)
        assert scaled.tensor_core_throughput("fp16") == pytest.approx(0.5 * 989.4e12)
        assert scaled.cuda_core_int32_tops == pytest.approx(2 * 33.5e12)
