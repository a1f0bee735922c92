"""Pluggable request routers for the multi-replica serving cluster.

A :class:`~repro.serving.cluster.ServingCluster` fronts N replicas with one router, the
way a Ray-Serve-style deployment fronts replica pools with a load balancer.  The router
answers two questions:

* :meth:`RouterPolicy.select` — which replica admits a **new request** (in disaggregated
  mode the cluster restricts the candidates to the prefill pool);
* :meth:`RouterPolicy.select_decode` — which replica receives a **migrated sequence**
  (disaggregated mode only: the decode pool, after the KV handoff).

Policies see replicas as read-only load surfaces: each candidate exposes
``replica_id`` plus its scheduler's ``outstanding_tokens`` (queued + in-flight work,
maintained incrementally by the scheduler so polling it per dispatch is O(1) per replica),
``kv_load`` (device pool utilization), ``num_resident`` and ``queue_depth``.  Ties always
break on ``replica_id`` so simulations stay deterministic.

Routers may be stateful (round-robin keeps a cursor), so :func:`get_router_policy` returns
a fresh instance per cluster — one router must never be shared between clusters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Type, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .cluster import Replica
    from .scheduler import Request

__all__ = [
    "RouterPolicy",
    "RoundRobinRouter",
    "LeastOutstandingTokensRouter",
    "LeastKvLoadRouter",
    "CacheAffinityRouter",
    "DisaggregatedRouter",
    "ROUTER_POLICIES",
    "get_router_policy",
]


def _require_candidates(replicas: Sequence["Replica"]) -> Sequence["Replica"]:
    if not replicas:
        raise ValueError("no candidate replicas to route to")
    return replicas


def _least_tokens(replicas: Sequence["Replica"]) -> "Replica":
    """The replica with the least queued + in-flight token work (ties: lowest id)."""
    return min(_require_candidates(replicas),
               key=lambda r: (r.scheduler.outstanding_tokens, r.replica_id))


def _least_kv(replicas: Sequence["Replica"]) -> "Replica":
    """The replica with the emptiest KV pool (ties: token work, then lowest id)."""
    return min(
        _require_candidates(replicas),
        key=lambda r: (r.scheduler.kv_load, r.scheduler.outstanding_tokens, r.replica_id),
    )


class RouterPolicy:
    """Chooses the replica that serves each request (and each migrated sequence)."""

    name = "base"

    def select(self, replicas: Sequence["Replica"], request: "Request") -> "Replica":
        """The replica that admits ``request`` (prefill pool in disaggregated mode)."""
        raise NotImplementedError

    def select_decode(self, replicas: Sequence["Replica"], request: "Request") -> "Replica":
        """The replica that receives a migrated sequence (decode pool).

        Defaults to the same rule as :meth:`select`; disaggregation-aware policies
        override it with a decode-phase-appropriate load signal.
        """
        return self.select(replicas, request)


class RoundRobinRouter(RouterPolicy):
    """Cycle through the candidate replicas, ignoring load (the data-parallel default).

    Admissions and decode migrations advance independent cursors: in disaggregated mode
    the two candidate pools are disjoint, and a shared counter would let one event stream
    park the other on a fixed replica instead of cycling.
    """

    name = "round-robin"

    def __init__(self):
        self._cursor = 0
        self._decode_cursor = 0

    def select(self, replicas, request):
        choice = _require_candidates(replicas)[self._cursor % len(replicas)]
        self._cursor += 1
        return choice

    def select_decode(self, replicas, request):
        choice = _require_candidates(replicas)[self._decode_cursor % len(replicas)]
        self._decode_cursor += 1
        return choice


class LeastOutstandingTokensRouter(RouterPolicy):
    """Send each request to the replica with the least queued + in-flight token work.

    Outstanding tokens (remaining prefill positions plus remaining output tokens across
    every queued, resident and swapped request) track *time to drain* far better than
    request counts do under long-tail length distributions.
    """

    name = "least-tokens"

    def select(self, replicas, request):
        return _least_tokens(replicas)


class LeastKvLoadRouter(RouterPolicy):
    """Send each request to the replica whose device KV pool is emptiest.

    KV headroom is what decides whether an admission prefills immediately or triggers
    preemption churn, so balancing on it protects TPOT under memory pressure.
    """

    name = "least-kv"

    def select(self, replicas, request):
        return _least_kv(replicas)


class CacheAffinityRouter(RouterPolicy):
    """Send each request to the replica whose prefix cache matches it deepest.

    Per-replica prefix caches make placement sticky: a request sharing a system prompt,
    RAG template or agent transcript only benefits if it lands where that prefix was
    prefilled.  The router probes every candidate's cache with the side-effect-free
    :meth:`~repro.serving.prefixcache.PrefixCache.match_tokens` (a binary search of the
    request's memoized key chain against each replica's prefix-closed trie:
    ``ceil(log2(n + 1))`` lookups for an ``n``-block chain) and picks the deepest match;
    ties — including the no-cache / no-match case — fall back to least outstanding
    tokens, so replicas without caches degrade to the least-tokens router.  Decode
    migrations carry their full KV with them, so affinity is irrelevant there and the
    decode pool balances on token work.
    """

    name = "cache-affinity"

    def select(self, replicas, request):
        def rank(replica: "Replica"):
            cache = getattr(replica.scheduler, "prefix_cache", None)
            cached = (
                cache.match_tokens(request, request.prompt_tokens - 1)
                if cache is not None else 0
            )
            return (-cached, replica.scheduler.outstanding_tokens, replica.replica_id)

        return min(_require_candidates(replicas), key=rank)

    def select_decode(self, replicas, request):
        return _least_tokens(replicas)


class DisaggregatedRouter(RouterPolicy):
    """Disaggregation-aware routing: balance prefill on token work, decode on KV headroom.

    New requests go to the prefill replica with the least outstanding tokens (prefill is
    compute-bound, so queued token work predicts its TTFT contribution); migrated
    sequences go to the decode replica with the most KV headroom (decode is
    capacity-bound, so KV pressure predicts preemption churn and TPOT).  In a co-located
    cluster both candidate sets are the full fleet and this degrades gracefully to
    least-outstanding-tokens admission.
    """

    name = "disaggregated"

    def select(self, replicas, request):
        return _least_tokens(replicas)  # same ranking as LeastOutstandingTokensRouter

    def select_decode(self, replicas, request):
        return _least_kv(replicas)  # same ranking as LeastKvLoadRouter


ROUTER_POLICIES: Dict[str, Type[RouterPolicy]] = {
    policy.name: policy
    for policy in (RoundRobinRouter, LeastOutstandingTokensRouter, LeastKvLoadRouter,
                   CacheAffinityRouter, DisaggregatedRouter)
}


def get_router_policy(policy: Union[str, RouterPolicy]) -> RouterPolicy:
    """Resolve a router policy by name ('round-robin', 'least-tokens', 'least-kv',
    'cache-affinity', 'disaggregated'); instances pass through unchanged."""
    if isinstance(policy, RouterPolicy):
        return policy
    key = str(policy).lower()
    if key not in ROUTER_POLICIES:
        raise KeyError(
            f"unknown router policy {policy!r}; known: {sorted(ROUTER_POLICIES)}"
        )
    return ROUTER_POLICIES[key]()
