"""Edge-case coverage for serving metrics: percentile interpolation vs. numpy, single-token
TPOT exclusion, empty populations, and the queue-time decomposition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving import Request, SloSpec, compute_slo_report, percentile, request_metrics


class TestPercentileProperty:
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=50,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_matches_numpy_linear_interpolation(self, values, q):
        ours = percentile(values, q)
        theirs = float(np.percentile(np.array(values), q, method="linear"))
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)

    def test_empty_population_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=50,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_sorted_values_fast_path_matches(self, values, q):
        """percentile(sorted, sorted_values=True) is the sort-once fast path — it must
        agree exactly with the sorting call on the unsorted population."""
        assert percentile(sorted(values), q, sorted_values=True) == percentile(values, q)


class TestSortOnceSloReport:
    """Regression pin for the sort-once slo_report: identical to per-call sorting."""

    def _population(self, seed, n=40):
        rng = np.random.default_rng(seed)
        requests = []
        clock = 0.0
        for i in range(n):
            arrival = clock
            clock += float(rng.exponential(0.05))
            first = arrival + float(rng.exponential(0.2))
            out_tokens = int(rng.integers(1, 50))
            done = first + out_tokens * float(rng.exponential(0.01))
            requests.append(Request(
                request_id=i, prompt_tokens=16, output_tokens=out_tokens,
                arrival_time_s=arrival, first_scheduled_time_s=arrival,
                first_token_time_s=first, completion_time_s=done,
            ))
        return requests

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_matches_per_call_sorting_reference(self, seed):
        requests = self._population(seed)
        report = compute_slo_report(requests, makespan_s=100.0)
        metrics = request_metrics(requests)
        ttfts = [m.ttft_s for m in metrics]
        tpots = [m.tpot_s for m in metrics if m.output_tokens > 1]
        latencies = [m.latency_s for m in metrics]
        # The historical implementation: unsorted populations, percentile sorts per call
        # and the means sum in completion order.
        assert report.mean_ttft_s == sum(ttfts) / len(ttfts)
        assert report.p50_ttft_s == percentile(ttfts, 50)
        assert report.p99_ttft_s == percentile(ttfts, 99)
        assert report.mean_tpot_s == sum(tpots) / len(tpots)
        assert report.p50_tpot_s == percentile(tpots, 50)
        assert report.p99_tpot_s == percentile(tpots, 99)
        assert report.mean_latency_s == sum(latencies) / len(latencies)
        assert report.p50_latency_s == percentile(latencies, 50)
        assert report.p99_latency_s == percentile(latencies, 99)


def completed_request(request_id, *, arrival=0.0, scheduled=None, first=1.0, done=2.0,
                      output_tokens=10):
    return Request(
        request_id=request_id,
        prompt_tokens=16,
        output_tokens=output_tokens,
        arrival_time_s=arrival,
        first_scheduled_time_s=scheduled,
        first_token_time_s=first,
        completion_time_s=done,
        generated=output_tokens,
    )


class TestSingleTokenTpot:
    def test_single_token_request_has_zero_tpot(self):
        metrics = request_metrics([
            completed_request(0, first=1.0, done=1.0, output_tokens=1)
        ])
        assert metrics[0].tpot_s == 0.0

    def test_single_token_requests_excluded_from_tpot_percentiles(self):
        """One-token answers meet any TPOT SLO vacuously but must not drag the TPOT
        distribution toward zero."""
        slow = completed_request(0, first=1.0, done=11.0, output_tokens=11)  # tpot 1.0
        instant = completed_request(1, first=1.0, done=1.0, output_tokens=1)  # tpot 0.0
        report = compute_slo_report([slow, instant], makespan_s=11.0)
        assert report.completed == 2
        assert report.mean_tpot_s == pytest.approx(1.0)
        assert report.p50_tpot_s == pytest.approx(1.0)
        assert report.p99_tpot_s == pytest.approx(1.0)

    def test_single_token_request_still_counts_toward_goodput(self):
        instant = completed_request(0, first=0.5, done=0.5, output_tokens=1)
        report = compute_slo_report([instant], SloSpec(ttft_s=1.0, tpot_s=0.01),
                                    makespan_s=1.0)
        assert report.slo_attained == 1
        assert report.goodput_rps == pytest.approx(1.0)


class TestEmptyPopulation:
    def test_all_fields_degrade_to_zero(self):
        report = compute_slo_report([], makespan_s=5.0)
        assert report.completed == 0
        assert report.attainment == 0.0
        assert report.goodput_rps == 0.0
        assert report.mean_ttft_s == 0.0
        assert report.p50_ttft_s == report.p99_ttft_s == 0.0
        assert report.mean_tpot_s == report.p50_tpot_s == report.p99_tpot_s == 0.0
        assert report.mean_latency_s == report.p50_latency_s == report.p99_latency_s == 0.0
        assert report.mean_queue_time_s == 0.0

    def test_incomplete_requests_are_skipped(self):
        in_flight = Request(0, prompt_tokens=16, output_tokens=8,
                            first_token_time_s=1.0, completion_time_s=None)
        assert request_metrics([in_flight]) == []

    def test_zero_makespan_goodput_guarded(self):
        report = compute_slo_report([], makespan_s=0.0)
        assert report.goodput_rps == 0.0


class TestQueueTime:
    def test_queue_time_measures_arrival_to_first_scheduled(self):
        r = completed_request(0, arrival=1.0, scheduled=1.25, first=2.0, done=3.0)
        [m] = request_metrics([r])
        assert m.queue_time_s == pytest.approx(0.25)
        assert m.ttft_s == pytest.approx(1.0)
        report = compute_slo_report([r], makespan_s=3.0)
        assert report.mean_queue_time_s == pytest.approx(0.25)

    def test_queue_time_never_exceeds_ttft(self):
        rs = [completed_request(i, arrival=0.1 * i, scheduled=0.1 * i + 0.05,
                                first=0.1 * i + 0.5, done=0.1 * i + 1.0)
              for i in range(5)]
        for m in request_metrics(rs):
            assert 0.0 <= m.queue_time_s <= m.ttft_s

    def test_missing_first_scheduled_defaults_to_zero(self):
        """Foreign request-like objects without the timestamp still summarize."""
        class Legacy:
            request_id = 0
            arrival_time_s = 0.0
            first_token_time_s = 1.0
            completion_time_s = 2.0
            output_tokens = 4
        [m] = request_metrics([Legacy()])
        assert m.queue_time_s == 0.0
        assert m.preemptions == 0


_SLOS = [None, SloSpec(), SloSpec(ttft_s=2.0, tpot_s=0.1), SloSpec(ttft_s=0.5, tpot_s=0.02),
         SloSpec(ttft_s=0.05, tpot_s=1.0), SloSpec(ttft_s=1e9, tpot_s=1e9)]


class TestStatsReportsOnePopulation:
    """A scheduler's ``stats()`` summarizes its completed requests once: every
    ``slo_report`` of the snapshot reuses that summary and recounts only the attainment,
    bit-identical to summarizing the requests again."""

    @pytest.fixture(scope="class")
    def stats(self):
        from repro.core import simulate_serving

        return simulate_serving(
            "liquidserve", "llama2-7b", num_requests=80, arrival_rate_rps=40.0, seed=5
        ).stats

    @pytest.mark.parametrize("slo", _SLOS)
    def test_report_equals_a_fresh_summary(self, stats, slo):
        assert stats.slo_report(slo) == compute_slo_report(
            stats.requests, slo, makespan_s=stats.simulated_time_s
        )

    def test_reports_build_no_request_metrics(self, stats, monkeypatch):
        from repro.serving import metrics

        built = []
        monkeypatch.setattr(
            metrics, "request_metrics", lambda rs: built.append(1) or request_metrics(rs)
        )
        for slo in _SLOS:
            stats.slo_report(slo)
        assert built == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_attained_by_counts_met_by_over_the_metrics(self, seed):
        requests = TestSortOnceSloReport()._population(seed)
        requests.append(Request(99, prompt_tokens=16, output_tokens=8,
                                first_token_time_s=0.0, completion_time_s=None))
        for slo in _SLOS[1:]:
            expected = sum(1 for m in request_metrics(requests) if slo.met_by(m))
            assert slo.attained_by(requests) == expected
