"""Per-layer tracing from outside the program.

Every public function of each omqlab layer module is wrapped at every
binding site, including the ``from .x import f`` copies other modules hold,
so calls are seen whichever module makes them.  A span opens only when the
layer changes, so a layer's self time is its spans' time minus the time of
child spans in other layers.  ``model`` gets no span: its methods run
millions of times, and their cost lands in the caller's self time.
Generator functions are timed across each ``next()``, not at creation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "surface", "entailment", "chase", "homtools", "graphalg",
          "evaluation", "pebble", "treelike", "dllitef")
BINDING_MODULES = LAYERS + ("model",)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.peak = defaultdict(int)
        self._stack: list[list] = []  # [layer, start, time in child spans]

    def enter(self, layer: str) -> bool:
        if self._stack and self._stack[-1][0] == layer:
            return False
        self._stack.append([layer, perf_counter(), 0.0])
        return True

    def leave(self) -> None:
        layer, start, child = self._stack.pop()
        dur = perf_counter() - start
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def metrics(self) -> dict:
        c, p = self.count, self.peak

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update({
            "entailment.saturate_calls": c["saturate"],
            "entailment.normalize_calls": c["normalize"],
            "entailment.consistency_calls": c["is_consistent"],
            "chase.facts_out": c["chase_facts"],
            "chase.max_facts": p["chase_facts"],
            "homtools.searches": c["iter_homomorphisms"],
            "homtools.homs_yielded": c["iter_homomorphisms.yield"],
            "homtools.found_ratio": ratio("iter_homomorphisms.found",
                                          "iter_homomorphisms"),
            "homtools.contractions_yielded": c["contractions.yield"],
            "homtools.max_target_facts": p["target_facts"],
            "graphalg.treewidth_calls": c["treewidth"],
            "graphalg.max_tw_vertices": p["tw_vertices"],
            "graphalg.unravel_facts_out": c["unravel_facts"],
            "evaluation.tw_cq_calls": c["evaluate_tw_cq"],
            "evaluation.tw_cq_true_ratio": ratio("evaluate_tw_cq.true",
                                                 "evaluate_tw_cq"),
            "pebble.evaluate_calls": c["pebble_evaluate"],
            "pebble.evaluate_true_ratio": ratio("pebble_evaluate.true",
                                                "pebble_evaluate"),
            "treelike.approx_calls": c["ucq_k_approximation"],
            "treelike.containment_calls": (c["contains_full_schema"]
                                           + c["contains_dllite_horn"]),
            "treelike.full_decisions": c["decide_tw_equiv_full"],
            "dllitef.id_functional_calls": c["id_functional"],
            "surface.bytes_in": c["bytes_in"],
        })
        return out


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _observe(tr: Tracer, name: str, args, kwargs, result) -> None:
    """Size counters taken at the layer boundary, after the call."""
    c, p = tr.count, tr.peak
    c[name] += 1
    if name in ("oblivious_chase", "chase_of_cq", "canonical_model"):
        db = result.database if name == "canonical_model" else result.facts
        n = len(db.facts)
        c["chase_facts"] += n
        p["chase_facts"] = max(p["chase_facts"], n)
    elif name == "treewidth":
        p["tw_vertices"] = max(p["tw_vertices"], len(_arg(args, kwargs, 0, "g").vertices))
    elif name in ("k_unravel", "unravel1_at"):
        c["unravel_facts"] += len(result.database.facts)
    elif name in ("evaluate_tw_cq", "pebble_evaluate") and result:
        c[name + ".true"] += 1
    elif name.startswith("parse_"):
        text = _arg(args, kwargs, 0, "text")
        if isinstance(text, str):
            c["bytes_in"] += len(text.encode())
    elif name == "iter_homomorphisms":
        target = _arg(args, kwargs, 1, "target")
        p["target_facts"] = max(p["target_facts"], len(target.facts))


def _wrap_function(tr: Tracer, layer: str, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr.calls[layer] += 1
        opened = tr.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            if opened:
                tr.leave()
        _observe(tr, name, args, kwargs, result)
        return result
    return traced


def _wrap_generator(tr: Tracer, layer: str, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr.calls[layer] += 1
        _observe(tr, name, args, kwargs, None)
        inner = fn(*args, **kwargs)
        yielded = 0
        while True:
            opened = tr.enter(layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                if opened:
                    tr.leave()
            if yielded == 0:
                tr.count[name + ".found"] += 1
            yielded += 1
            tr.count[name + ".yield"] += 1
            yield item
    return traced


def install(tr: Tracer) -> int:
    """Replace every public layer function, at every binding site in the
    package, by a traced wrapper; returns the number of functions wrapped."""
    mods = {m: importlib.import_module(f"omqlab.{m}") for m in BINDING_MODULES}
    wrapped = {}
    for layer in LAYERS:
        mod = mods[layer]
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrap = (_wrap_generator if inspect.isgeneratorfunction(fn)
                    else _wrap_function)
            wrapped[id(fn)] = wrap(tr, layer, name, fn)
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, name, wrapped[id(value)])
    return len(wrapped)
