"""Spans and counters recorded around the program's public functions.

The tracer replaces a function at the module or class attribute through
which the program calls it (for example `ipcamo.attack.sat_solve`, which
`dip_attack` looks up at call time) with a wrapper that records a span:
name, start, end and parent. Spans stay in memory until the run ends.
Wrappers pass straight through while the tracer is inactive, and
`uninstall` puts every original back.

`covert` and `cli` get no spans: `covert` is table lookups inside
`keyize_netlist` and the repair step, and `cli` is JSON I/O around the
same calls the workloads make directly.
"""
from __future__ import annotations

import functools
import time
from collections import Counter

# Per-layer metrics in report order, with their units.
LAYER_METRICS = {
    "vae.encode_calls": "count", "vae.encode_s": "s",
    "vae.decode_calls": "count", "vae.decode_s": "s",
    "vae.loss_s": "s", "vae.steps": "count", "vae.epochs": "count",
    "vae.decode_gap": "prob",
    "autodiff.backward_calls": "count", "autodiff.backward_s": "s",
    "autodiff.adam_s": "s", "autodiff.tape_nodes_per_step": "count",
    "aig.from_tensors_s": "s",
    "camouflage.pipeline_self_s": "s", "camouflage.p_distinct": "count",
    "camouflage.fix_actions": "count", "camouflage.cells": "count",
    "camouflage.placements_fi": "count", "camouflage.placements_fb": "count",
    "camouflage.placements_ut_a": "count", "camouflage.placements_ut_b": "count",
    "gatelevel.evaluate_calls": "count", "gatelevel.evaluate_s": "s",
    "gatelevel.topo_order_calls": "count",
    "gatelevel.simplify_calls": "count", "gatelevel.simplify_s": "s",
    "attack.equivalence_calls": "count", "attack.equivalence_s": "s",
    "attack.equivalence_sat_calls": "count",
    "attack.keyize_s": "s", "attack.key_bits": "count",
    "attack.tseitin_calls": "count", "attack.tseitin_s": "s",
    "attack.oracle_calls": "count", "attack.oracle_s": "s",
    "attack.dip_iterations": "count",
    "cnf.solve_calls": "count", "cnf.solve_s": "s",
    "cnf.vars_max": "count", "cnf.clauses_max": "count",
    "cnf.conflicts": "count", "cnf.decisions": "count",
    "cnf.propagations": "count",
    "cnf.decisions_per_s": "1/s", "cnf.propagations_per_s": "1/s",
    "ged.calls": "count", "ged.s": "s", "ged.s_max": "s", "ged.timeouts": "count",
    "evaluation.study_self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
}

# Span name -> (calls metric, total-seconds metric); either may be None.
_SPAN_TOTALS = {
    "vae.encode_tensors": ("vae.encode_calls", "vae.encode_s"),
    "vae.decode_tensors": ("vae.decode_calls", "vae.decode_s"),
    "vae.loss_tensors": (None, "vae.loss_s"),
    "vae.adam_step": ("vae.steps", "autodiff.adam_s"),
    "autodiff.backward": ("autodiff.backward_calls", "autodiff.backward_s"),
    "aig.from_tensors": (None, "aig.from_tensors_s"),
    "gatelevel.evaluate": ("gatelevel.evaluate_calls", "gatelevel.evaluate_s"),
    "gatelevel.topo_order": ("gatelevel.topo_order_calls", None),
    "gatelevel.simplify": ("gatelevel.simplify_calls", "gatelevel.simplify_s"),
    "attack.equivalence_check": ("attack.equivalence_calls", "attack.equivalence_s"),
    "attack.keyize_netlist": (None, "attack.keyize_s"),
    "attack.tseitin_encode": ("attack.tseitin_calls", "attack.tseitin_s"),
    "attack.oracle": ("attack.oracle_calls", "attack.oracle_s"),
    "cnf.sat_solve": ("cnf.solve_calls", "cnf.solve_s"),
    "ged.graph_edit_distance": ("ged.calls", "ged.s"),
}
# Span name -> self-time metric (duration minus time covered by child spans).
_SPAN_SELF = {
    "camouflage.camouflage_pipeline": "camouflage.pipeline_self_s",
    "evaluation.ged_lsd_study": "evaluation.study_self_s",
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording one span per call while active; `on_result(tracer,
        args, result)` adds counters read from the call's inputs and output."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def layer_metrics(self) -> dict[str, float]:
        """Totals, self times and counters over every recorded span."""
        out = {name: 0 for name in LAYER_METRICS}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ged_max = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            calls, total = _SPAN_TOTALS.get(name, (None, None))
            if calls:
                out[calls] += 1
            if total:
                out[total] += dur
            if name in _SPAN_SELF:
                out[_SPAN_SELF[name]] += dur - child[i]
            if name == "ged.graph_edit_distance":
                ged_max = max(ged_max, dur)
        out["ged.s_max"] = ged_max
        out.update(self.counts)
        if out["cnf.solve_s"] > 0:
            out["cnf.decisions_per_s"] = out["cnf.decisions"] / out["cnf.solve_s"]
            out["cnf.propagations_per_s"] = out["cnf.propagations"] / out["cnf.solve_s"]
        out["trace.spans"] = len(self.spans)
        return out


def _after_pipeline(tr: Tracer, args, nl) -> None:
    c = tr.counts
    c["camouflage.fix_actions"] += sum(1 for e in nl.fix_log if e["action"] is not None)
    c["camouflage.cells"] += nl.appearance_view.cell_count()
    for p in nl.placements:
        c["camouflage.placements_" + p.kind.name.lower()] += 1


def _after_keyize(tr: Tracer, args, kn) -> None:
    tr.counts["attack.key_bits"] += kn.n_key_bits


def _after_solve(tr: Tracer, args, res) -> None:
    c = tr.counts
    cnf = args[0]
    c["cnf.vars_max"] = max(c["cnf.vars_max"], cnf.n_vars)
    c["cnf.clauses_max"] = max(c["cnf.clauses_max"], len(cnf.clauses))
    c["cnf.conflicts"] += res.conflicts
    c["cnf.decisions"] += res.decisions
    c["cnf.propagations"] += res.propagations
    if tr.in_span("attack.equivalence_check"):
        c["attack.equivalence_sat_calls"] += 1


def _after_dip(tr: Tracer, args, trace) -> None:
    tr.counts["attack.dip_iterations"] += trace.iterations


def _after_train(tr: Tracer, args, result) -> None:
    tr.counts["vae.epochs"] += len(result[1])


def _after_ged(tr: Tracer, args, ged) -> None:
    if ged is None:
        tr.counts["ged.timeouts"] += 1


def install(tr: Tracer) -> None:
    """Wrap every traced function of every layer."""
    from ipcamo import attack, autodiff, camouflage, evaluation, gatelevel, vae

    tr.patch(vae, "encode_tensors", "vae.encode_tensors")
    tr.patch(vae, "decode_tensors", "vae.decode_tensors")
    tr.patch(vae, "loss_tensors", "vae.loss_tensors")
    tr.patch(vae, "adam_step", "vae.adam_step")
    tr.patch(vae, "train", "vae.train", _after_train)
    tr.patch(autodiff.Tensor, "backward", "autodiff.backward")
    tr.patch(camouflage, "from_tensors", "aig.from_tensors")
    tr.patch(camouflage, "camouflage_pipeline", "camouflage.camouflage_pipeline",
             _after_pipeline)
    tr.patch(gatelevel.Circuit, "evaluate", "gatelevel.evaluate")
    tr.patch(gatelevel.Circuit, "topo_order", "gatelevel.topo_order")
    tr.patch(gatelevel, "simplify", "gatelevel.simplify")
    tr.patch(attack, "simplify", "gatelevel.simplify")
    tr.patch(attack, "equivalence_check", "attack.equivalence_check")
    tr.patch(attack, "keyize_netlist", "attack.keyize_netlist", _after_keyize)
    tr.patch(attack, "tseitin_encode", "attack.tseitin_encode")
    tr.patch(attack, "sat_solve", "cnf.sat_solve", _after_solve)
    tr.patch(attack, "dip_attack", "attack.dip_attack", _after_dip)
    tr.patch(evaluation, "graph_edit_distance", "ged.graph_edit_distance", _after_ged)
    tr.patch(evaluation, "ged_lsd_study", "evaluation.ged_lsd_study")
