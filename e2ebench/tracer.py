"""Span tracing of the solver's layers, installed from outside ``src/``.

A :class:`Tracer` wraps the public entry point of each layer and
records one span per call: ``(id, parent, name, layer, start, end,
request)``.  It patches the name every ``repro`` module binds — the
defining module's attribute, each ``from x import f`` copy, and the
class attribute for methods — so calls from any caller are seen, and
it restores every binding on exit.  Spans are recorded only while a
request is active (:attr:`Tracer.request` is not ``None``), so set-up
and the correctness checks leave no trace.

A layer's self time is its span's duration minus the time its direct
child spans cover; calls are strictly nested (one thread), so the
self times of one request add up to the wall of its root span.  Spans
are kept in memory in completion order and written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["LAYERS", "Tracer"]


def _formulation_size(counters, args, _result):
    model = args[0].model
    counters["vars"] += model.num_variables
    counters["rows"] += model.num_constraints


def _presolve_rows(counters, _args, result):
    # presolve_model memoizes per bound profile on the model: count
    # each reduction once, however many rungs fetch it.  The references
    # keep ids unique; they are dropped when the request ends.
    seen = counters.setdefault("_seen", {})
    if id(result) not in seen:
        seen[id(result)] = result
        counters["rows_dropped"] += result.stats.rows_before - result.stats.rows_after


def _search_outcome(counters, _args, result):
    counters["timeouts"] += result.status.value == "timeout"
    counters["nodes"] += result.node_count


def _portfolio_outcome(counters, _args, result):
    chain = result.fallback_chain
    counters["solves"] += 1
    counters["rungs"] += len(chain)
    counters["fallbacks"] += len(chain) > 1
    counters["wasted_s"] += sum(a.runtime_seconds for a in chain[:-1])
    counters["proven"] += result.status.value in ("optimal", "infeasible")


def _batch_outcome(counters, _args, result):
    counters["jobs"] += result.num_variants * result.num_jobs
    counters["scalar_fallbacks"] += int(result.scalar_fallback.sum())


#: (layer, module, attribute path, counter hook) of every traced entry
#: point.  ``milp.model`` is the dispatch glue of ``MilpModel.solve``
#: (standard form, cut sources, presolve restore) between the layers
#: it routes to.
TARGETS = (
    ("let", "repro.let.grouping", "let_groups", None),
    ("let", "repro.let.grouping", "communications_at", None),
    ("let", "repro.let.grouping", "active_instants", None),
    ("core.formulation", "repro.core.formulation",
     "LetDmaFormulation.__init__", _formulation_size),
    ("milp.model", "repro.milp.model", "MilpModel.solve", None),
    ("milp.presolve", "repro.milp.presolve", "presolve_model", _presolve_rows),
    ("milp.cuts", "repro.milp.cuts", "solve_with_cut_layer", None),
    ("milp.scipy_backend", "repro.milp.scipy_backend", "solve_with_highs",
     _search_outcome),
    ("milp.branch_and_bound", "repro.milp.branch_and_bound",
     "solve_with_branch_and_bound", _search_outcome),
    ("runtime.portfolio", "repro.runtime.portfolio", "solve_with_portfolio",
     _portfolio_outcome),
    ("core.heuristic", "repro.core.heuristic", "greedy_allocation", None),
    ("core.solution", "repro.core.solution", "extract_result", None),
    ("api", "repro.api", "execute", None),
    ("core.verifier", "repro.core.verifier", "verify_allocation", None),
    ("sim.timeline", "repro.sim.timeline", "proposed_timeline_skeleton", None),
    ("sim.timeline", "repro.sim.timeline", "TimelineSkeleton.materialize", None),
    ("faults", "repro.faults.batch", "evaluate_robustness_batch", None),
    ("faults", "repro.faults.streams", "site_uniforms_np", None),
    ("sim.batch", "repro.sim.batch", "simulate_batch", _batch_outcome),
    ("sim.batch", "repro.sim.batch", "build_job_table", None),
)

#: Every traced layer, in pipeline order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

#: Layers whose spans mean an exact search ran (not the certificate).
SEARCH_LAYERS = ("milp.scipy_backend", "milp.branch_and_bound")


class Tracer:
    """Records layer spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.request: int | None = None
        self.spans: list = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self.missing: set[str] = set()
        self.hook_errors: list[str] = []
        self._stack: list[int] = [-1]  # open span ids; -1: no parent
        self._ids = itertools.count()
        self._restore: list = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, module_name, path, hook in TARGETS:
            try:
                self._install(layer, module_name, path, hook)
            except (ImportError, AttributeError, KeyError):
                # A renamed entry point drops one layer from the trace,
                # never the run; it is reported as a missing entry point.
                self.missing.add(f"{module_name}.{path}")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.counters["milp.presolve"].pop("_seen", None)

    def _install(self, layer, module_name, path, hook) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:  # a method: patch the class attribute
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(layer, path, original, hook))
            return
        original = getattr(module, attr)
        traced = self._wrap(layer, path, original, hook)
        for name, loaded in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for bound, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, bound, original, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def _wrap(self, layer, name, fn, hook):
        tracer = self
        counters = self.counters[layer]
        spans = self.spans
        stack = self._stack
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = tracer.request
            if request is None:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, layer, start, end, request))
            if hook is not None:
                # A counter must never change what the program does: an
                # error here would reach the caller (the portfolio would
                # take it for a failed rung).
                try:
                    hook(counters, args, result)
                except Exception as exc:  # recorded and reported
                    tracer.hook_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    # -- analysis -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``{"self_s": total self seconds, "calls": n}``,
        a span's self time being its duration minus its children's."""
        covered = defaultdict(float)
        for _id, parent, _n, _l, start, end, _r in self.spans:
            covered[parent] += end - start
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for span_id, _p, _n, layer, start, end, _r in self.spans:
            totals[layer]["self_s"] += end - start - covered[span_id]
            totals[layer]["calls"] += 1
        return totals

    def requests_in(self, *layers: str) -> set[int]:
        """Requests during which any of ``layers`` ran."""
        return {s[6] for s in self.spans if s[3] in layers}

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines (one span a line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span_id, parent, name, layer, start, end, request in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "start": start, "end": end,
                    "request": request,
                }) + "\n")
