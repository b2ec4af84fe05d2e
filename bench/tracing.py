"""Per-layer tracing for the benchmark's traced runs.

`Tracer.install()` replaces each traced `epk` function, wherever an `epk`
module binds it, with a wrapper that records a span (name, start, end,
parent) or bumps a counter, so calls made inside the program are seen as
well as the benchmark's own.  `uninstall()` puts the originals back;
nothing is wrapped in untraced rounds or runs.
Spans are kept in memory and written out by `Tracer.write`.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List

# Every module that binds a traced function must be loaded before install().
from epk import cli, formulas, frames, model, semantics, serialize, updates  # noqa: F401

# (module, function) pairs timed as spans, in report order.
SPANNED = [
    ("cli", "main"),
    ("serialize", "load_model"),
    ("serialize", "save_model"),
    ("serialize", "dumps_model"),
    ("model", "KripkeModel.build"),
    ("formulas", "parse"),
    ("semantics", "holds_at"),
    ("semantics", "holds_for_agent"),
    ("semantics", "holds_globally"),
    ("frames", "classify_model"),
    ("frames", "check_properties"),
    ("model", "reachable_from"),
    ("model", "prune_unreachable"),
    ("model", "replicate_with_lineage"),
    ("updates", "update_offline"),
    ("updates", "update_online"),
    ("updates", "lie_offline"),
    ("updates", "lie_online"),
]
HOLDS = ("holds_at", "holds_for_agent", "holds_globally")
COUNTS = ["serialize.bytes_read", "serialize.bytes_written", "semantics.presence_at.calls",
          "updates.edges_out", "updates.states_discarded"]


def span_names() -> List[str]:
    names = [f"{m}.{f}" for m, f in SPANNED]
    names += [f"semantics.eval_{kind}.{f}" for kind in ("belief", "agency") for f in HOLDS]
    return names


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    out += [(c, "bytes" if "bytes" in c else "count") for c in COUNTS]
    out += [("tracing.spans", "count"), ("tracing.overhead_pct", "%")]
    return out


def _has_agency(f) -> bool:
    """Whether a program formula contains C or P (walked without recursion)."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (formulas.CertainAgent, formulas.PossibleAgent)):
            return True
        stack.extend(getattr(g, a) for a in ("sub", "left", "right") if hasattr(g, a))
    return False


def _epk_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "epk" or name.startswith("epk."))]


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, tag]
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self._undo: List[Callable[[], None]] = []

    # -------------------------------------------------------------- wrappers

    def _spanned(self, name: str, fn, after=None, tag_of=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tag_of(args, kwargs) if tag_of else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_load(self, args, kwargs, result):
        self.counts["serialize.bytes_read"] += os.path.getsize(kwargs.get("path", args[0] if args else ""))

    def _after_save(self, args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else "")
        self.counts["serialize.bytes_written"] += os.path.getsize(path)

    def _after_update(self, args, kwargs, result):
        self.counts["updates.edges_out"] += sum(len(r) for r in result.model.relations.values())
        self.counts["updates.states_discarded"] += len(result.discarded_states)

    @staticmethod
    def _holds_tag(args, kwargs):
        f = kwargs["f"] if "f" in kwargs else args[-1]
        return "agency" if _has_agency(f) else "belief"

    # -------------------------------------------------------------- install

    def _rebind(self, original, replacement) -> None:
        """Point every epk module attribute bound to `original` at `replacement`."""
        for mod in _epk_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append(lambda mod=mod, attr=attr: setattr(mod, attr, original))

    def install(self) -> None:
        after = {"load_model": self._after_load, "save_model": self._after_save,
                 "update_offline": self._after_update, "update_online": self._after_update,
                 "lie_offline": self._after_update, "lie_online": self._after_update}
        for mod_name, fn_name in SPANNED:
            name = f"{mod_name}.{fn_name}"
            if fn_name == "KripkeModel.build":
                cls = model.KripkeModel
                original = cls.__dict__["build"]
                cls.build = classmethod(self._spanned(name, original.__func__))
                self._undo.append(lambda cls=cls, original=original: setattr(cls, "build", original))
                continue
            original = getattr(sys.modules[f"epk.{mod_name}"], fn_name)
            tag_of = self._holds_tag if fn_name in HOLDS else None
            self._rebind(original, self._spanned(name, original, after.get(fn_name), tag_of))
        self._rebind(semantics.presence_at,
                     self._counted("semantics.presence_at.calls", semantics.presence_at))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -------------------------------------------------------------- report

    def metrics(self, rounds: int) -> Dict[str, float]:
        """Every per-layer figure, per traced round: the spans and counts
        of `rounds` identical rounds, divided by their number."""
        child_s = [0.0] * len(self.spans)
        for (_n, start, end, parent, _t) in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for k, (name, start, end, _p, tag) in enumerate(self.spans):
            keys = [name]
            if tag:
                keys.append(name.replace("semantics.", f"semantics.eval_{tag}.", 1))
            for key in keys:
                out[f"{key}.calls"] += 1
                out[f"{key}.total_s"] += end - start
                out[f"{key}.self_s"] += end - start - child_s[k]
        for c in COUNTS:
            out[c] = self.counts[c]
        out["tracing.spans"] = len(self.spans)
        return {name: value / rounds for name, value in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, tag) in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")
