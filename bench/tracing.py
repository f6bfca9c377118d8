"""Spans and counters recorded from outside the package.

``Tracer.install()`` replaces each traced public function by a timing
wrapper at every ``river_banks.*`` module attribute bound to it, in this
process only: ``from x import y`` leaves a second binding (``bott_cohomology``
lives in ``bott``, ``tables``, ``boij_soderberg``, ``golden`` and the package
itself), and each one must be wrapped for internal calls to be seen.

A span is (id, parent id, op number, name, start, end).  Spans stay in memory
and are written out when the run ends; per-name call counts and self time
(duration minus the time covered by child spans) are kept exactly even after
the stored span list reaches its cap.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

MAX_STORED_SPANS = 200_000

# (module, function, name of the extra counter hook or None)
TRACED = (
    ("kunneth", "product_line_cohomology", "nonzero"),
    ("partitions", "lr_expand", "lr_expand"),
    ("partitions", "schur_dim", None),
    ("bott", "bott_cohomology", "nonzero"),
    ("bott", "chi_polynomial", None),
    ("tables", "render_ascii", None),
    ("tables", "regularity_profile", None),
    ("tables", "is_natural", None),
    ("tables", "table_to_json", None),
    ("tables", "parse_ascii", None),
    ("tables", "literal_from_json", None),
    ("boij_soderberg", "decompose", "decompose"),
    ("bounds", "tensor_homogeneous", None),
    ("bounds", "check_sharpness", None),
    ("bounds", "lr_witness", None),
    ("bounds", "check_tensor_bounds", None),
    ("bounds", "unobstructed_criterion", None),
    ("expr", "table_from_expr", None),
    ("exterior", "kernel_dim", None),
    ("golden", "verify", None),
    ("cli", "main", None),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "river_banks" or name.startswith("river_banks."))]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.op = -1
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._entry_depth = 0

    # --- spans ---------------------------------------------------------

    def span(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            before = self._before(hook)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(name, span_id, parent, frame, start, end)
            if hook:
                self._after(name, hook, before, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, span_id, parent, frame, start, end):
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((span_id, parent, self.op, name, start, end))
        else:
            self.dropped += 1

    def op_span(self, name, fn, *args):
        """Root span of one timed op; every span opened inside shares its op number."""
        self.op += 1
        return self.span(name, fn)(*args)

    # --- counter hooks -------------------------------------------------

    def _before(self, hook):
        if hook == "lr_expand":
            from river_banks.partitions import _lr_classical
            return _lr_classical.cache_info().misses
        return None

    def _after(self, name, hook, before, result):
        if hook == "nonzero":
            self.counts[f"{name}.nonzero"] += bool(result)
        elif hook == "lr_expand":
            from river_banks.partitions import _lr_classical
            self.counts["lr_expand.terms"] += len(result)
            if _lr_classical.cache_info().misses > before:
                self.counts["lr_expand.tableaux"] += sum(result.values())
        elif hook == "decompose":
            self.counts["decompose.steps"] += len(result.terms)

    def entry_counter(self, fn):
        """Counts CohomologyTable.entry calls made from outside the tables layer.

        Entries a table asks of its own inner tables (dual, twist, sum) are
        nested calls and are not counted again.
        """
        def entry(table, i, d):
            if not self.enabled or self._entry_depth:
                return fn(table, i, d)
            self._entry_depth += 1
            try:
                value = fn(table, i, d)
            finally:
                self._entry_depth -= 1
            self.counts["entry.calls"] += 1
            if value:
                self.counts["entry.nonzero"] += 1
            return value

        entry.__wrapped__ = fn
        return entry

    # --- installation --------------------------------------------------

    def install(self):
        """Wrap every binding of every traced function in the loaded package modules."""
        import importlib

        from river_banks.tables import CohomologyTable

        modules = _package_modules()
        for module, func, hook in TRACED:
            name = f"river_banks.{module}"
            if name not in sys.modules:
                continue
            original = getattr(importlib.import_module(name), func)
            wrapped = self.span(f"{module}.{func}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        CohomologyTable.entry = self.entry_counter(CohomologyTable.entry)
