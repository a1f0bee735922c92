"""Per-layer host-time attribution by wrapping each layer's public callables.

:class:`LayerTracer` finds, by introspection, every public function and every public
method of every class that a layer's modules define, and replaces each with a wrapper that
records one span per call: site (layer and qualified name), start, end and parent span.
Functions that other modules imported by name are patched there too, so a call through
``from .metrics import compute_slo_report`` is measured like a direct one.  A refactor that
merges, renames or adds functions therefore stays measured without editing this file.

Spans live in flat in-memory arrays until :meth:`LayerTracer.write_spans`.  Times are
integer nanoseconds, so a span's self time (its duration minus the time its child spans
cover) is exact.

Not wrapped: properties (attribute reads whose cost lands in the caller's self time) and
generator functions (their body runs after the call returns).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Layer name -> the module or package that defines it.  Layer names are module names.
SERVING_LAYERS = {
    "scheduler": "repro.serving.scheduler",
    "engine": "repro.serving.engine",
    "policies": "repro.serving.policies",
    "kvcache": "repro.serving.kvcache",
    "prefixcache": "repro.serving.prefixcache",
    "router": "repro.serving.router",
    "cluster": "repro.serving.cluster",
    "metrics": "repro.serving.metrics",
}
KERNEL_LAYERS = {
    "quant": "repro.quant",
    "layout": "repro.layout",
    "dequant": "repro.dequant",
    "kernels": "repro.kernels",
}
LAYERS = {**SERVING_LAYERS, **KERNEL_LAYERS}
#: Layer of the stage spans the benchmark opens around the parts of one pass.
BENCH_LAYER = "bench"
#: Modules whose imported names are patched along with the defining module.
_PATCHED_PACKAGES = ("repro", "perfbench")

Observer = Callable[[tuple, object], None]


def _layer_modules(dotted: str) -> List[ModuleType]:
    module = importlib.import_module(dotted)
    modules = [module]
    if hasattr(module, "__path__"):
        for info in pkgutil.walk_packages(module.__path__, dotted + "."):
            modules.append(importlib.import_module(info.name))
    return modules


def _public_callables(module: ModuleType) -> Iterator[Tuple[object, str, object, Callable, str]]:
    """``(owner, attribute, raw value, function, qualified name)`` of each public callable
    ``module`` defines: module functions and methods (plain, static, class) of its classes."""
    for name, value in list(vars(module).items()):
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, name, value, value, name
        elif inspect.isclass(value):
            for attr, raw in list(vars(value).items()):
                if attr.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(fn):
                    yield value, attr, raw, fn, f"{value.__qualname__}.{attr}"


def _site_layer(layer: str, attr: str) -> str:
    # On the numeric path, a dequantization callable belongs to the dequant layer wherever
    # it is defined: the Eq.-12 dequantization the kernel calls lives in repro.quant.
    if layer in KERNEL_LAYERS and "dequant" in attr.lower():
        return "dequant"
    return layer


class LayerTracer:
    """Installs span-recording wrappers over the layers' public callables.

    ``observers`` maps ``"<layer>.<callable name>"`` (e.g. ``"router.select"``) to a
    function called with ``(args, result)`` after each traced call of that name.  It runs
    inside an ``observe`` stage span, so its time counts to the benchmark, not to the
    caller's layer.
    """

    def __init__(self, observers: Optional[Dict[str, Observer]] = None):
        self.observers = dict(observers or {})
        self.site_names: List[str] = []
        self.site_layers: List[str] = []
        self._stage_sites: Dict[str, int] = {}
        #: Per site: sum of the ``int`` results returned and how many of them were 0.
        self.int_results: List[int] = []
        self.zero_results: List[int] = []
        self._site = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: List[int] = [-1]
        self._pass_starts: List[Tuple[int, int]] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ sites and spans
    def _new_site(self, layer: str, name: str) -> int:
        self.site_names.append(name)
        self.site_layers.append(layer)
        self.int_results.append(0)
        self.zero_results.append(0)
        return len(self.site_names) - 1

    def _wrap(self, fn: Callable, site: int, observer: Optional[Observer]) -> Callable:
        sites, parents, starts, ends = self._site, self._parent, self._start, self._end
        stack, clock = self._stack, time.perf_counter_ns
        int_results, zero_results = self.int_results, self.zero_results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(sites)
            sites.append(site)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if type(result) is int:
                int_results[site] += result
                if result == 0:
                    zero_results[site] += 1
            if observer is not None:
                with self.stage("observe"):
                    observer(args, result)
            return result

        return traced

    @contextmanager
    def stage(self, name: str):
        """Record a benchmark stage span; layer spans inside it become its descendants."""
        site = self._stage_sites.get(name)
        if site is None:
            site = self._stage_sites[name] = self._new_site(BENCH_LAYER, f"{BENCH_LAYER}.{name}")
        index = len(self._site)
        self._site.append(site)
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self._end[index] = time.perf_counter_ns()
            self._stack.pop()

    def begin_pass(self, pass_id: int) -> None:
        """Spans recorded from now on carry ``pass_id``."""
        self._pass_starts.append((len(self._site), pass_id))

    # ------------------------------------------------------------------ install / remove
    def _patch(self, owner: object, attr: str, original: object, replacement: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("a LayerTracer installs once")
        wrapped_functions: Dict[int, Tuple[Callable, Callable]] = {}
        seen = set()
        for layer, dotted in LAYERS.items():
            for module in _layer_modules(dotted):
                short = module.__name__.split(".", 1)[-1]
                for owner, attr, raw, fn, qualname in _public_callables(module):
                    if (id(owner), attr) in seen or inspect.isgeneratorfunction(fn):
                        continue
                    seen.add((id(owner), attr))
                    site_layer = _site_layer(layer, attr)
                    site = self._new_site(site_layer, f"{short}.{qualname}")
                    wrapper = self._wrap(fn, site, self.observers.get(f"{site_layer}.{attr}"))
                    if isinstance(raw, staticmethod):
                        replacement: object = staticmethod(wrapper)
                    elif isinstance(raw, classmethod):
                        replacement = classmethod(wrapper)
                    else:
                        replacement = wrapper
                    self._patch(owner, attr, raw, replacement)
                    if owner is module:
                        wrapped_functions[id(fn)] = (fn, wrapper)
        # Names other modules imported (``from .x import f``) still point at the originals.
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".", 1)[0] not in _PATCHED_PACKAGES:
                continue
            for attr, value in list(vars(module).items()):
                entry = wrapped_functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, value, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self) -> List[str]:
        """Patched attributes that do not hold their original value (empty after uninstall)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]

    @property
    def num_patches(self) -> int:
        return len(self._patches)

    @contextmanager
    def installed_for(self, pass_id: int):
        """Install, mark pass ``pass_id``, and always uninstall on exit."""
        try:
            self.install()
            self.begin_pass(pass_id)
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ analysis
    def spans(self) -> "SpanTable":
        return SpanTable(self)

    def write_spans(self, path: str) -> None:
        """Write every recorded span (and its site table) as one compressed NumPy archive."""
        table = self.spans()
        np.savez_compressed(
            path,
            site_names=np.array(self.site_names),
            site_layers=np.array(self.site_layers),
            site=table.site,
            parent=table.parent,
            start_ns=table.start,
            end_ns=table.end,
            pass_id=table.pass_id,
        )


class SpanTable:
    """Array view of a tracer's spans with self times, layers and enclosing stages."""

    def __init__(self, tracer: LayerTracer):
        self.site_names = list(tracer.site_names)
        self.site_layers = list(tracer.site_layers)
        self.int_results = list(tracer.int_results)
        self.zero_results = list(tracer.zero_results)
        self.site = np.frombuffer(tracer._site, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer._parent, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer._start, dtype=np.int64).copy()
        self.end = np.frombuffer(tracer._end, dtype=np.int64).copy()
        n = len(self.site)
        self.pass_id = np.full(n, -1, dtype=np.int32)
        for first, pass_id in tracer._pass_starts:
            self.pass_id[first:] = pass_id
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        cover = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                            minlength=n)
        #: Span duration minus the time its direct children cover (integer ns).
        self.self_ns = self.duration - np.rint(cover).astype(np.int64)
        layer_names = sorted(set(self.site_layers))
        self._layer_index = {name: i for i, name in enumerate(layer_names)}
        site_layer = np.array([self._layer_index[x] for x in self.site_layers], dtype=np.int32)
        self.layer = site_layer[self.site] if n else np.zeros(0, dtype=np.int32)
        parent_layer = np.where(has_parent, self.layer[np.maximum(self.parent, 0)], -1)
        #: True for a span entered from another layer (or from no span at all).
        self.entry = parent_layer != self.layer
        self.stage = self._stages(n)

    def _stages(self, n: int) -> np.ndarray:
        """Site id of each span's nearest enclosing ``bench`` stage span (-1 if none)."""
        bench = self._layer_index.get(BENCH_LAYER)
        stage = np.full(n, -1, dtype=np.int32)
        if bench is not None:
            stage = np.where(self.layer == bench, self.site, stage)
        # Pointer jumping: no stage span lies strictly between a pending span and its
        # ``ancestor``, so taking the ancestor's stage (or jumping past it) keeps the
        # nearest one.
        ancestor = self.parent.copy()
        pending = np.flatnonzero((stage < 0) & (ancestor >= 0))
        while pending.size:
            up = ancestor[pending]
            stage[pending] = stage[up]
            ancestor[pending] = ancestor[up]
            pending = pending[(stage[pending] < 0) & (ancestor[pending] >= 0)]
        return stage

    def _layer_mask(self, layer: str) -> np.ndarray:
        index = self._layer_index.get(layer)
        if index is None:
            return np.zeros(len(self.site), dtype=bool)
        return self.layer == index

    def _stage_mask(self, stage: Optional[str]) -> np.ndarray:
        if stage is None:
            return np.ones(len(self.site), dtype=bool)
        name = f"{BENCH_LAYER}.{stage}"
        if name not in self.site_names:
            return np.zeros(len(self.site), dtype=bool)
        return self.stage == self.site_names.index(name)

    def self_s(self, layer: str, stage: Optional[str] = None) -> float:
        """Host seconds of ``layer``'s own code (children in other layers excluded)."""
        mask = self._layer_mask(layer) & self._stage_mask(stage)
        return float(self.self_ns[mask].sum()) / 1e9

    def entry_calls(self, layer: str) -> int:
        """Calls into ``layer`` from outside it."""
        return int((self._layer_mask(layer) & self.entry).sum())

    def _sites_named(self, layer: str, method: str) -> List[int]:
        return [
            i for i, (name, site_layer) in enumerate(zip(self.site_names, self.site_layers))
            if site_layer == layer and name.rsplit(".", 1)[-1] == method
        ]

    def calls(self, layer: str, method: str) -> int:
        """Calls of every ``layer`` callable whose name is ``method``."""
        sites = self._sites_named(layer, method)
        return int(np.isin(self.site, sites).sum()) if sites else 0

    def int_result_sum(self, layer: str, method: str) -> int:
        return sum(self.int_results[i] for i in self._sites_named(layer, method))

    def zero_result_calls(self, layer: str, method: str) -> int:
        return sum(self.zero_results[i] for i in self._sites_named(layer, method))

    def layers_run(self, stage: Optional[str] = None) -> List[str]:
        """Layers with at least one span (inside ``stage`` if given), ``bench`` excluded."""
        present = set(np.unique(self.layer[self._stage_mask(stage)]).tolist())
        return sorted(
            name for name, i in self._layer_index.items()
            if i in present and name != BENCH_LAYER
        )

    def stages(self) -> List[str]:
        """Names of the stages recorded, in order of first appearance."""
        return [
            name.split(".", 1)[1] for name, layer in zip(self.site_names, self.site_layers)
            if layer == BENCH_LAYER
        ]
