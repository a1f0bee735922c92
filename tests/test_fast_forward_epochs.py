"""Fast-forward epoch boundaries: retirements inside a jump, chaining, and parked proofs.

One epoch planner covers decode-only and mixed prefill+decode phases alike.  These unit
tests pin where an epoch may end and what a jump may cover, each against a stepwise twin
driven through the same iterations with :meth:`ContinuousBatchingScheduler.step`:

* the iteration that emits a decode's last token runs *inside* a mixed epoch, which
  retires the request (only a prompt-completing chunk is left to ``step()``);
* after a retirement the jump chains into the next epoch only when nothing is queued;
* with prefix caching, a blocked admission is parked only while no cached block is
  idle, because ``step()`` evicts idle blocks even when admission stays blocked.
"""

from test_fast_forward_equivalence import MB, _run, assert_stats_identical

from repro.serving.engine import ServingEngine
from repro.serving.scheduler import ContinuousBatchingScheduler, Request


def _mixed_with_finishing_decode(max_batch_size=None, queued=False):
    """One decode two tokens from finishing next to a long prefill (4096 tokens, 256
    per chunk): the next mixed epoch ends on the decode's retirement, 14 chunks before
    the prefill completes."""
    scheduler = ContinuousBatchingScheduler(
        ServingEngine("liquidserve", "llama2-7b"), max_batch_size=max_batch_size
    )
    scheduler.submit(Request(request_id=0, prompt_tokens=64, output_tokens=4))
    scheduler.step()  # prefill + first token
    scheduler.submit(Request(request_id=1, prompt_tokens=4096, output_tokens=4))
    scheduler.step()  # admit the long prompt's first chunk; request 0 decodes
    if queued:
        # Parked: the batch is full, so admission cannot happen inside the epoch.
        scheduler.submit(Request(request_id=2, prompt_tokens=32, output_tokens=4))
    assert scheduler._prefilling and len(scheduler._running) == 1
    assert scheduler._running[0].output_tokens - scheduler._running[0].generated == 2
    return scheduler


def _assert_twins_match(fast, step):
    assert fast.clock == step.clock
    assert fast.kv_cache.num_free_blocks == step.kv_cache.num_free_blocks
    assert fast.outstanding_tokens == step.outstanding_tokens
    assert_stats_identical(step.stats(), fast.stats())


class TestMixedEpochRetirement:
    def test_finishing_decode_retires_inside_the_jump(self):
        fast = _mixed_with_finishing_decode()
        step = _mixed_with_finishing_decode()
        advanced = fast.fast_forward()
        # The mixed epoch retires request 0 on its 2nd iteration; with nothing queued the
        # jump then chains through the pure-prefill epoch up to the completing chunk.
        assert advanced == 2 + 12
        assert [r.request_id for r in fast.stats().requests] == [0]
        assert fast._prefilling and not fast._running
        for _ in range(advanced):
            step.step()
        _assert_twins_match(fast, step)
        assert fast.fast_forward() == 0  # the prompt-completing chunk is step()'s
        fast.step()
        step.step()
        _assert_twins_match(fast, step)

    def test_queued_work_stops_the_jump_at_the_retirement(self):
        fast = _mixed_with_finishing_decode(max_batch_size=2, queued=True)
        step = _mixed_with_finishing_decode(max_batch_size=2, queued=True)
        advanced = fast.fast_forward()
        assert advanced == 2  # the freed slot may admit request 2: back to step()
        assert [r.request_id for r in fast.stats().requests] == [0]
        for _ in range(advanced):
            step.step()
        _assert_twins_match(fast, step)
        fast.step()
        step.step()
        assert any(r.request_id == 2 for r in fast._prefilling + fast._running)
        _assert_twins_match(fast, step)


class TestPrefixCacheParkedAdmission:
    def test_blocked_admission_with_idle_cached_blocks_is_not_parked(self):
        """Regression: request 0 is blocked with no free blocks while cached blocks are
        idle.  ``step()`` evicts them (freeing too few to admit it), so the jump must
        not skip that iteration; counting the idle blocks against the shortfall
        instead of asking whether any is idle used to skip the evictions."""
        trace = [
            Request(request_id=rid, prompt_tokens=prompt, output_tokens=output,
                    arrival_time_s=arrival, prefix_group=group,
                    prefix_segments=segments)
            for rid, prompt, output, arrival, group, segments in [
                (0, 33, 1, 1.26171875, 0, ()),
                (1, 170, 25, 1.203125, 0, ((0, 48),)),
                (2, 49, 1, 0.0, 1, ((1, 48),)),
                (3, 195, 32, 1.1875, 2, ((2, 128),)),
                (4, 513, 24, 1.19921875, 0, ((0, 512),)),
            ]
        ]
        kwargs = dict(
            prefix_caching=True,
            kv_budget_bytes=256 * MB,
            host_kv_budget_bytes=0,
            preemption_policy="recompute",
            scheduling_policy="fcfs",
        )
        sched_a, stepwise = _run(trace, fast_forward=False, **kwargs)
        sched_b, fast = _run(trace, fast_forward=True, **kwargs)
        assert stepwise.prefix_blocks_evicted > 0
        assert sched_a.clock == sched_b.clock
        assert_stats_identical(stepwise, fast)
