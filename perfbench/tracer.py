"""Per-layer tracing of symsum from the outside.

`Tracer.install` replaces each traced function by a wrapper at every name
a `symsum` module holds it under, so the wrapper sits where the caller
looks the function up (`symsum.script.tokenize`, `symsum.rewrite.apply_rule`,
`symsum.rewrite.expr_invariants`, `symsum.core.label_pool`, ...).  Each
wrapped call records a span `(name, start, end, parent, op)`; a recursive
layer records one span for its outermost call and counts the calls made
inside it as visits.  Node constructors and `AreaValue.__post_init__` are
only counted.  `uninstall` puts every original back.

Spans stay in memory until `write_spans`; `layer_times` turns them into
total and self time per layer (self = duration minus direct child spans).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, function, layer): one span per call
SPANS = (
    ("symsum.script", "tokenize", "script.tokenize"),
    ("symsum.script", "parse", "script.parse"),
    ("symsum.script", "build_script", "script.build_script"),
    ("symsum.rewrite", "check_equiv", "rewrite.check_equiv"),
    ("symsum.rewrite", "apply_rule", "rewrite.apply_rule"),
    ("symsum.script", "render_trace_text", "script.render"),
    ("symsum.script", "render_trace_json", "script.render"),
    ("symsum.cli", "main", "cli.main"),
)

# layer -> functions sharing one recursion: the outermost call of any of
# them opens the span, every call counts as a visit
RECURSIVE = {
    "core.label_pool": (("symsum.core", "label_pool"),),
    "invariants.expr_invariants": (("symsum.invariants", "expr_invariants"),),
    "sums.apply_shifts": (("symsum.sums", "apply_shifts"), ("symsum.sums", "_shift_walk")),
}

NODE_CLASSES = ("AtomNode", "PairSum", "FourSum", "BlowUp", "Thin", "Thicken", "Desing")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op)
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- installing -------------------------------------------------

    def install(self) -> None:
        for modname, fname, layer in SPANS:
            mod = sys.modules.get(modname)
            if mod is not None:
                fn = getattr(mod, fname)
                self._patch_everywhere(fn, self._span_wrapper(layer, fn))
        for layer, members in RECURSIVE.items():
            depth = [0]
            for modname, fname in members:
                fn = getattr(sys.modules[modname], fname)
                self._patch_everywhere(fn, self._recursive_wrapper(layer, fn, depth))
        core = sys.modules["symsum.core"]
        for cls_name in NODE_CLASSES:
            cls = getattr(core, cls_name)
            self._patch_attr(cls, "__init__", self._count_wrapper("core.nodes_created", cls.__init__))
        areas = sys.modules["symsum.areas"]
        self._patch_attr(
            areas.AreaValue,
            "__post_init__",
            self._count_wrapper("areas.AreaValue.created", areas.AreaValue.__post_init__),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _patch_attr(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "symsum" and not modname.startswith("symsum."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch_attr(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------

    def _span_wrapper(self, layer, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            nodes_before = counts["core.nodes_created"]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[layer + ".raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, tracer.op)
                counts[layer + ".nodes"] += counts["core.nodes_created"] - nodes_before
            if layer == "script.tokenize":
                counts["script.tokenize.tokens"] += len(result) - 1  # without eof
            elif layer == "script.render":
                counts["script.render.bytes"] += len(result.encode("utf-8"))
            return result

        return wrapper

    def _recursive_wrapper(self, layer, fn, depth):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self
        visits = layer + ".visits"

        def wrapper(*args):
            counts[visits] += 1
            if depth[0]:
                return fn(*args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            depth[0] = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                end = clock()
                depth[0] = 0
                stack.pop()
                spans[idx] = (layer, start, end, parent, tracer.op)

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------

    def merge(self, spans, counts) -> None:
        """Add the spans and counts another process recorded for the current op."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, self.op))
        self.counts.update(counts)

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Total seconds, self seconds and span count per layer."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
            calls[name] += 1
        return total, own, calls

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
