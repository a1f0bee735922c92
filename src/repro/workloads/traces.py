"""Request-trace generation: arrival processes and length distributions.

The request-level scheduler simulation (:mod:`repro.serving.scheduler`) is only as meaningful
as the traffic fed into it.  This module generates synthetic traces in the style used by the
serving-systems literature:

* **Arrival processes** — Poisson (memoryless, CV=1) and Gamma-interarrival (CV != 1 models
  burstier or smoother-than-Poisson traffic, the knob used by e.g. the DistServe/Sarathi
  evaluations);
* **Length distributions** — constant, uniform, and the log-normal long-tail shape that
  ShareGPT-derived workloads exhibit (most prompts short, a heavy tail of very long ones),
  with presets calibrated to the commonly reported ShareGPT statistics.

Everything is deterministic under a seed, so benchmarks and tests are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..serving.scheduler import Request

__all__ = [
    "ArrivalProcess",
    "LengthDistribution",
    "SHAREGPT_PROMPTS",
    "SHAREGPT_OUTPUTS",
    "generate_trace",
    "WorkloadSpec",
    "sharegpt_trace",
    "merge_traces",
    "multi_turn_chat_trace",
    "rag_trace",
    "agent_swarm_trace",
    "tenant_mix_trace",
]


@dataclass(frozen=True)
class ArrivalProcess:
    """Request arrival-time generator at a mean rate of ``rate_rps`` requests/second.

    ``cv`` is the coefficient of variation of the inter-arrival times: 1.0 gives a Poisson
    process (exponential gaps); >1 burstier, <1 smoother.  Non-unit CVs use Gamma-distributed
    inter-arrivals with shape ``1/cv**2``.
    """

    rate_rps: float
    cv: float = 1.0

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.cv <= 0:
            raise ValueError("cv must be positive")

    @staticmethod
    def poisson(rate_rps: float) -> "ArrivalProcess":
        return ArrivalProcess(rate_rps=rate_rps, cv=1.0)

    @staticmethod
    def gamma(rate_rps: float, cv: float) -> "ArrivalProcess":
        return ArrivalProcess(rate_rps=rate_rps, cv=cv)

    def sample(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        """Cumulative arrival times (seconds, starting at the first gap) for ``num_requests``."""
        if num_requests < 0:
            raise ValueError("num_requests must be non-negative")
        mean_gap = 1.0 / self.rate_rps
        if math.isclose(self.cv, 1.0):
            gaps = rng.exponential(mean_gap, size=num_requests)
        else:
            shape = 1.0 / (self.cv ** 2)
            scale = mean_gap / shape
            gaps = rng.gamma(shape, scale, size=num_requests)
        return np.cumsum(gaps)


@dataclass(frozen=True)
class LengthDistribution:
    """Token-length generator: ``constant``, ``uniform`` or long-tail ``lognormal``.

    For ``lognormal``, ``median`` and ``sigma`` parameterize the underlying normal
    (``exp(mu)`` is the median; larger ``sigma`` fattens the tail).  Samples are clamped to
    ``[minimum, maximum]`` so a trace cannot contain degenerate or unbounded requests.
    """

    kind: str                       # "constant" | "uniform" | "lognormal"
    median: float = 256.0           # constant value / lognormal median
    sigma: float = 1.0              # lognormal shape
    low: int = 1                    # uniform lower bound (inclusive)
    high: int = 1024                # uniform upper bound (exclusive)
    minimum: int = 1
    maximum: int = 8192

    def __post_init__(self):
        if self.kind not in ("constant", "uniform", "lognormal"):
            raise ValueError(f"unknown length distribution kind {self.kind!r}")
        if self.minimum < 1 or self.maximum < self.minimum:
            raise ValueError("need 1 <= minimum <= maximum")
        # Only the active kind's parameters are validated: e.g. the uniform bounds keep
        # their defaults (and stay unchecked) when kind="lognormal".
        if self.kind == "uniform" and not 1 <= self.low < self.high:
            raise ValueError(
                f"uniform bounds must satisfy 1 <= low < high (high is exclusive), "
                f"got low={self.low}, high={self.high}"
            )
        if self.kind == "lognormal":
            if self.sigma <= 0:
                raise ValueError(f"lognormal sigma must be positive, got sigma={self.sigma}")
            if self.median <= 0:
                raise ValueError(f"lognormal median must be positive, got median={self.median}")

    @staticmethod
    def constant(value: int) -> "LengthDistribution":
        return LengthDistribution(kind="constant", median=float(value))

    @staticmethod
    def uniform(low: int, high: int) -> "LengthDistribution":
        return LengthDistribution(kind="uniform", low=low, high=high)

    @staticmethod
    def lognormal(median: float, sigma: float, maximum: int = 8192) -> "LengthDistribution":
        return LengthDistribution(kind="lognormal", median=median, sigma=sigma, maximum=maximum)

    def sample(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        if num_requests < 0:
            raise ValueError("num_requests must be non-negative")
        if self.kind == "constant":
            lengths = np.full(num_requests, self.median)
        elif self.kind == "uniform":
            lengths = rng.integers(self.low, self.high, size=num_requests).astype(float)
        else:
            lengths = rng.lognormal(mean=math.log(self.median), sigma=self.sigma,
                                    size=num_requests)
        return np.clip(np.rint(lengths), self.minimum, self.maximum).astype(int)


#: ShareGPT-like long-tail presets: short median prompts/answers with a heavy upper tail
#: (the shape reported for ShareGPT-derived serving benchmarks).
SHAREGPT_PROMPTS = LengthDistribution.lognormal(median=180.0, sigma=1.1, maximum=4096)
SHAREGPT_OUTPUTS = LengthDistribution.lognormal(median=160.0, sigma=0.9, maximum=2048)


def generate_trace(
    num_requests: int,
    arrivals: ArrivalProcess,
    prompt_lengths: LengthDistribution,
    output_lengths: LengthDistribution,
    seed: int = 0,
    start_id: int = 0,
    priorities: Optional[Sequence[int]] = None,
    num_priority_levels: int = 1,
    shared_prefix_tokens: int = 0,
    prefix_group: Optional[int] = None,
) -> List["Request"]:
    """Generate a reproducible request trace for the continuous-batching scheduler.

    ``priorities`` assigns each request an explicit scheduling priority (higher = more
    important; consumed by the 'priority' scheduling policy).  Without it,
    ``num_priority_levels > 1`` samples levels uniformly from ``0..num_priority_levels-1``
    — drawn *after* the length samples, so traces keep their historical lengths and
    arrival times under the same seed.

    ``shared_prefix_tokens > 0`` prepends a common system prompt of that many tokens to
    every request (prompts shorter than ``shared_prefix_tokens + 1`` are stretched to
    fit), tagged as a shareable prefix segment so a prefix-caching scheduler serves it
    from cache after the first prefill.  ``prefix_group`` namespaces the sharing (see
    :class:`~repro.serving.scheduler.Request.prefix_group`); both default to off, leaving
    historical traces byte-identical.
    """
    # Imported here: workloads must stay importable from repro.serving.engine (shapes).
    from ..serving.scheduler import Request

    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if num_priority_levels < 1:
        raise ValueError("num_priority_levels must be >= 1")
    if priorities is not None and len(priorities) != num_requests:
        raise ValueError(
            f"priorities has {len(priorities)} entries for {num_requests} requests"
        )
    if shared_prefix_tokens < 0:
        raise ValueError("shared_prefix_tokens must be non-negative")
    rng = np.random.default_rng(seed)
    arrival_times = arrivals.sample(num_requests, rng)
    prompts = prompt_lengths.sample(num_requests, rng)
    outputs = output_lengths.sample(num_requests, rng)
    if priorities is None:
        if num_priority_levels > 1:
            priorities = rng.integers(0, num_priority_levels, size=num_requests)
        else:
            priorities = np.zeros(num_requests, dtype=int)
    segments: Tuple[Tuple[int, int], ...] = ()
    if shared_prefix_tokens > 0:
        segments = ((0, shared_prefix_tokens),)
    return [
        Request(
            request_id=start_id + i,
            prompt_tokens=max(int(prompts[i]), shared_prefix_tokens + 1)
            if shared_prefix_tokens else int(prompts[i]),
            output_tokens=int(outputs[i]),
            arrival_time_s=float(arrival_times[i]),
            priority=int(priorities[i]),
            prefix_group=prefix_group,
            prefix_segments=segments,
        )
        for i in range(num_requests)
    ]


def merge_traces(*traces: Sequence["Request"], reassign_ids: bool = True) -> List["Request"]:
    """Fan multiple request streams into one arrival-ordered trace (cluster workloads).

    The cluster router consumes a single time-ordered stream, but realistic multi-tenant
    traffic is generated per tenant (different rates, length mixes, priorities).  This
    merges any number of traces by arrival time.  With ``reassign_ids`` (default) every
    request is copied and renumbered ``0..n-1`` so the merged trace satisfies the cluster's
    unique-id requirement even when the inputs were generated independently; with
    ``reassign_ids=False`` the caller guarantees uniqueness (e.g. via ``start_id``) and the
    original objects are returned.

    Renumbering preserves every trace-owned field — in particular ``prefix_group`` and
    ``prefix_segments`` ride along on the copy, so merged multi-tenant traces keep their
    shareable prefixes (and their per-tenant isolation) intact: prefix identity is carried
    by the stable group id, never by the request id.
    """
    import copy

    merged = sorted(
        (r for trace in traces for r in trace),
        key=lambda r: (r.arrival_time_s, r.request_id),
    )
    if not reassign_ids:
        ids = [r.request_id for r in merged]
        if len(set(ids)) != len(ids):
            raise ValueError(
                "merged traces contain duplicate request ids; pass reassign_ids=True "
                "or generate the inputs with disjoint start_id ranges"
            )
        return merged
    renumbered = []
    for i, request in enumerate(merged):
        clone = copy.copy(request)
        clone.request_id = i
        renumbered.append(clone)
    return renumbered


@dataclass(frozen=True)
class WorkloadSpec:
    """One generated trace, declared once: the workload half of a serving run.

    Arrivals are Poisson at ``arrival_rate_rps`` (Gamma when ``arrival_cv != 1``); lengths
    are the ShareGPT presets unless ``prompt_lengths`` / ``output_lengths`` override them;
    ``num_priority_levels > 1`` samples request priorities (for the 'priority' scheduling
    policy) and ``shared_prefix_tokens > 0`` stamps every request with a common shareable
    system prompt (see :func:`generate_trace`).  :meth:`trace` is deterministic under
    ``seed``.
    """

    num_requests: int = 500
    arrival_rate_rps: float = 10.0
    arrival_cv: float = 1.0
    prompt_lengths: Optional[LengthDistribution] = None
    output_lengths: Optional[LengthDistribution] = None
    seed: int = 0
    num_priority_levels: int = 1
    shared_prefix_tokens: int = 0

    def trace(self) -> List["Request"]:
        """Generate the trace this spec describes."""
        return generate_trace(
            self.num_requests,
            ArrivalProcess(rate_rps=self.arrival_rate_rps, cv=self.arrival_cv),
            self.prompt_lengths or SHAREGPT_PROMPTS,
            self.output_lengths or SHAREGPT_OUTPUTS,
            seed=self.seed,
            num_priority_levels=self.num_priority_levels,
            shared_prefix_tokens=self.shared_prefix_tokens,
        )


def sharegpt_trace(num_requests: int, rate_rps: float, seed: int = 0,
                   cv: float = 1.0, num_priority_levels: int = 1) -> List["Request"]:
    """A ShareGPT-like long-tail trace with Poisson (or Gamma, ``cv != 1``) arrivals."""
    return WorkloadSpec(num_requests, rate_rps, cv, seed=seed,
                        num_priority_levels=num_priority_levels).trace()


# ---------------------------------------------------------------------- shared prefixes
#: Default message/answer shapes of the shared-prefix generators: chat-style short
#: messages with moderate tails (the shareable context, not the tails, dominates tokens).
CHAT_MESSAGES = LengthDistribution.lognormal(median=60.0, sigma=0.8, maximum=512)
CHAT_REPLIES = LengthDistribution.lognormal(median=120.0, sigma=0.8, maximum=1024)


def multi_turn_chat_trace(
    num_conversations: int,
    turns_per_conversation: int,
    rate_rps: float,
    *,
    system_prompt_tokens: int = 512,
    message_lengths: LengthDistribution = CHAT_MESSAGES,
    reply_lengths: LengthDistribution = CHAT_REPLIES,
    think_time_s: float = 5.0,
    cv: float = 1.0,
    seed: int = 0,
    start_id: int = 0,
    priority: int = 0,
    prefix_group: Optional[int] = 0,
) -> List["Request"]:
    """Multi-turn chat sharing one system prompt across every conversation.

    Turn ``t`` of a conversation re-sends the whole history — system prompt, every prior
    (message, reply) pair, and the new message — so its prompt is exactly the previous
    turn's prompt plus that turn's reply and the new message.  The segment stream encodes
    this: turn ``t+1``'s segments *extend* turn ``t``'s, so a prefix cache that saw turn
    ``t`` complete serves everything but the newest tokens, and the shared system-prompt
    segment additionally hits across conversations (the radix tree branches below it).
    Turns are spaced by exponential think times after the conversation's Poisson start.
    """
    if num_conversations < 1 or turns_per_conversation < 1:
        raise ValueError("need >= 1 conversation with >= 1 turn")
    if system_prompt_tokens < 1:
        raise ValueError("system_prompt_tokens must be >= 1")
    rng = np.random.default_rng(seed)
    starts = ArrivalProcess(rate_rps=rate_rps, cv=cv).sample(num_conversations, rng)
    shape = (num_conversations, turns_per_conversation)
    messages = message_lengths.sample(num_conversations * turns_per_conversation, rng)
    messages = messages.reshape(shape)
    replies = reply_lengths.sample(num_conversations * turns_per_conversation, rng)
    replies = replies.reshape(shape)
    gaps = rng.exponential(max(think_time_s, 1e-9), size=shape)

    requests: List["Request"] = []
    next_id = start_id
    # Segment-id layout: 0 is the shared system prompt; conversation c's turn t owns ids
    # 1 + 2*(c*turns + t) (message) and 2 + 2*(c*turns + t) (reply).
    for c in range(num_conversations):
        arrival = float(starts[c])
        history: List[Tuple[int, int]] = [(0, system_prompt_tokens)]
        for t in range(turns_per_conversation):
            message_seg = 1 + 2 * (c * turns_per_conversation + t)
            history.append((message_seg, int(messages[c, t])))
            prompt = sum(tokens for _, tokens in history)
            requests.append(_make_request(
                request_id=next_id,
                prompt_tokens=prompt,
                output_tokens=int(replies[c, t]),
                arrival_time_s=arrival,
                priority=priority,
                prefix_group=prefix_group,
                prefix_segments=tuple(history),
            ))
            next_id += 1
            history.append((message_seg + 1, int(replies[c, t])))
            arrival += float(gaps[c, t])
    requests.sort(key=lambda r: (r.arrival_time_s, r.request_id))
    return requests


def rag_trace(
    num_requests: int,
    rate_rps: float,
    *,
    template_tokens: int = 1024,
    num_templates: int = 4,
    question_lengths: LengthDistribution = CHAT_MESSAGES,
    output_lengths: LengthDistribution = CHAT_REPLIES,
    cv: float = 1.0,
    seed: int = 0,
    start_id: int = 0,
    priority: int = 0,
    prefix_group: Optional[int] = 0,
) -> List["Request"]:
    """Retrieval-augmented generation over a small pool of shared prompt templates.

    Every request prepends one of ``num_templates`` fixed instruction+context templates
    (chosen uniformly) to its private question, so the radix tree holds one chain per
    template and steady-state admissions hit ``template_tokens`` of cached prefix.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if template_tokens < 1 or num_templates < 1:
        raise ValueError("need template_tokens >= 1 and num_templates >= 1")
    rng = np.random.default_rng(seed)
    arrival_times = ArrivalProcess(rate_rps=rate_rps, cv=cv).sample(num_requests, rng)
    questions = question_lengths.sample(num_requests, rng)
    outputs = output_lengths.sample(num_requests, rng)
    templates = rng.integers(0, num_templates, size=num_requests)
    return [
        _make_request(
            request_id=start_id + i,
            prompt_tokens=template_tokens + int(questions[i]),
            output_tokens=int(outputs[i]),
            arrival_time_s=float(arrival_times[i]),
            priority=priority,
            prefix_group=prefix_group,
            prefix_segments=((int(templates[i]), template_tokens),),
        )
        for i in range(num_requests)
    ]


def agent_swarm_trace(
    num_swarms: int,
    agents_per_swarm: int,
    steps_per_swarm: int,
    rate_rps: float,
    *,
    base_context_tokens: int = 512,
    step_tokens: int = 256,
    scratch_lengths: LengthDistribution = CHAT_MESSAGES,
    output_lengths: LengthDistribution = CHAT_REPLIES,
    step_interval_s: float = 2.0,
    cv: float = 1.0,
    seed: int = 0,
    start_id: int = 0,
    priority: int = 0,
    prefix_group: Optional[int] = 0,
) -> List["Request"]:
    """Agent swarms re-prefixing a growing shared tool transcript every step.

    Each swarm keeps one transcript (task context plus ``step_tokens`` of tool output
    appended per step); at every step *all* of its agents issue a request whose prompt is
    the whole transcript so far plus a private scratchpad.  The transcript segments are
    shareable, so without a prefix cache the swarm re-prefills the same transcript
    ``agents_per_swarm`` times per step — the workload production prefix caches were
    built for.
    """
    if num_swarms < 1 or agents_per_swarm < 1 or steps_per_swarm < 1:
        raise ValueError("need >= 1 swarm, agent and step")
    if base_context_tokens < 1 or step_tokens < 1:
        raise ValueError("base_context_tokens and step_tokens must be >= 1")
    rng = np.random.default_rng(seed)
    starts = ArrivalProcess(rate_rps=rate_rps, cv=cv).sample(num_swarms, rng)
    shape = (num_swarms, steps_per_swarm, agents_per_swarm)
    scratch = scratch_lengths.sample(num_swarms * steps_per_swarm * agents_per_swarm, rng)
    scratch = scratch.reshape(shape)
    outputs = output_lengths.sample(
        num_swarms * steps_per_swarm * agents_per_swarm, rng
    ).reshape(shape)
    jitter = rng.exponential(0.1, size=shape)

    requests: List["Request"] = []
    next_id = start_id
    # Segment-id layout: swarm w's transcript piece for step s is w*(steps+1) + s
    # (s = 0 is the base context).
    for w in range(num_swarms):
        transcript: List[Tuple[int, int]] = [
            (w * (steps_per_swarm + 1), base_context_tokens)
        ]
        for s in range(steps_per_swarm):
            if s > 0:
                transcript.append((w * (steps_per_swarm + 1) + s, step_tokens))
            shared = sum(tokens for _, tokens in transcript)
            step_start = float(starts[w]) + s * step_interval_s
            for a in range(agents_per_swarm):
                requests.append(_make_request(
                    request_id=next_id,
                    prompt_tokens=shared + int(scratch[w, s, a]),
                    output_tokens=int(outputs[w, s, a]),
                    arrival_time_s=step_start + float(jitter[w, s, a]),
                    priority=priority,
                    prefix_group=prefix_group,
                    prefix_segments=tuple(transcript),
                ))
                next_id += 1
    requests.sort(key=lambda r: (r.arrival_time_s, r.request_id))
    return requests


def tenant_mix_trace(
    requests_per_tenant: int,
    rate_rps: float,
    *,
    num_tenants: int = 3,
    kinds: Sequence[str] = ("chat", "rag", "agents"),
    priorities: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> List["Request"]:
    """A multi-tenant mix: per-tenant workload kind, priority and isolated prefix group.

    Tenant ``t`` runs ``kinds[t % len(kinds)]`` traffic at ``rate_rps`` with priority
    ``priorities[t]`` (default: the tenant index, so later tenants outrank earlier ones
    under the 'priority' policy) and ``prefix_group = t`` — tenants never share cached
    prefixes with each other, only within themselves.  The streams are merged by arrival
    time with ids renumbered; :func:`merge_traces` preserves the group tags.
    """
    if requests_per_tenant < 1 or num_tenants < 1:
        raise ValueError("need >= 1 request per tenant and >= 1 tenant")
    if priorities is not None and len(priorities) != num_tenants:
        raise ValueError(f"priorities has {len(priorities)} entries for {num_tenants} tenants")
    traces: List[List["Request"]] = []
    for t in range(num_tenants):
        kind = kinds[t % len(kinds)]
        priority = int(priorities[t]) if priorities is not None else t
        common = dict(seed=seed + t, priority=priority, prefix_group=t)
        if kind == "chat":
            turns = 4
            conversations = max(1, requests_per_tenant // turns)
            traces.append(multi_turn_chat_trace(
                conversations, turns, rate_rps / turns, **common
            ))
        elif kind == "rag":
            traces.append(rag_trace(requests_per_tenant, rate_rps, **common))
        elif kind == "agents":
            agents, steps = 4, 3
            swarms = max(1, requests_per_tenant // (agents * steps))
            traces.append(agent_swarm_trace(
                swarms, agents, steps, rate_rps / (agents * steps), **common
            ))
        else:
            raise ValueError(f"unknown tenant kind {kind!r}; known: chat, rag, agents")
    return merge_traces(*traces)


def _make_request(**kwargs) -> "Request":
    from ..serving.scheduler import Request

    return Request(**kwargs)
