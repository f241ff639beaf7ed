"""In-process span tracer for one traced benchmark repetition.

The tracer replaces public functions of the ``hooksq`` modules with wrappers
that record a span per call: name, start, end, parent span and the id of the
benchmark item that was running.  Each name is patched in the module that
looks it up at call time (``cli`` imports ``decompose_oracle`` and
``full_table`` by name, so those are patched in ``hooksq.cli``).  Spans stay
in memory and are written out once the repetition ends.  Private kernel
internals such as ``_apply_block_sum`` stay untraced; the row and column
symmetrizer spans stand in for them.

Timers are process-local (``time.perf_counter``); nothing traces the system.
"""

from __future__ import annotations

import json
from time import perf_counter

# Functions patched, as (module, attribute, span name).  The comment on each
# group names the caller whose lookup the patch intercepts.
PATCHES = (
    # the benchmark's own sweep loop
    ("hooksq.tableaux", "verify_skew_symmetry", "tableaux.verify_skew_symmetry"),
    # verify_skew_symmetry
    ("hooksq.tableaux", "apply_symmetrizer", "tableaux.apply_symmetrizer"),
    ("hooksq.tableaux", "project_to_standard", "tableaux.project_to_standard"),
    # apply_symmetrizer
    ("hooksq.tableaux", "apply_row_symmetrizer", "tableaux.apply_row_symmetrizer"),
    ("hooksq.tableaux", "apply_column_antisymmetrizer", "tableaux.apply_column_antisymmetrizer"),
    # the benchmark's own tables loop
    ("hooksq.cli", "main", "cli.main"),
    # cli.cmd_decompose
    ("hooksq.cli", "decompose_oracle", "characters.decompose_oracle"),
    ("hooksq.cli", "full_table", "closed_form.full_table"),
    # decompose_oracle and hook_rep_character
    ("hooksq.characters", "irreducible_character", "characters.irreducible_character"),
    ("hooksq.characters", "square_characters", "characters.square_characters"),
    ("hooksq.characters", "inner_product", "characters.inner_product"),
    # irreducible_character
    ("hooksq.characters", "mn_character", "characters.mn_character"),
)

# Generators the benchmark's set-up consumes; one span per next() call.
GENERATOR_PATCHES = (
    ("hooksq.verify", "balanced_colorings", "verify.balanced_colorings"),
    ("hooksq.verify", "first_row_constrained_colorings", "verify.first_row_constrained_colorings"),
)

# Sizes of arguments or results counted at the layer boundary.
TERM_COUNTERS = {
    "tableaux.apply_row_symmetrizer": ("terms_out", lambda args, result: len(result.terms)),
    "tableaux.apply_column_antisymmetrizer": ("terms_out", lambda args, result: len(result.terms)),
    "tableaux.project_to_standard": ("terms_in", lambda args, result: len(args[0].terms)),
}

# Per-layer metrics: name -> (unit, better).  Every traced run reports all of
# them; a layer the workload never reaches reads 0.
PER_LAYER = {
    "tableaux.apply_column_antisymmetrizer.busy_s": ("s", "lower"),
    "tableaux.apply_column_antisymmetrizer.terms_out": ("count", "lower"),
    "tableaux.apply_row_symmetrizer.busy_s": ("s", "lower"),
    "tableaux.apply_row_symmetrizer.terms_out": ("count", "lower"),
    "tableaux.apply_symmetrizer.calls": ("count", "lower"),
    "tableaux.apply_symmetrizer.busy_s": ("s", "lower"),
    "tableaux.apply_symmetrizer.calls_per_item": ("calls/item", "lower"),
    "tableaux.project_to_standard.calls": ("count", "lower"),
    "tableaux.project_to_standard.busy_s": ("s", "lower"),
    "tableaux.project_to_standard.terms_in": ("count", "lower"),
    "tableaux.verify_skew_symmetry.calls": ("count", "lower"),
    "tableaux.verify_skew_symmetry.self_s": ("s", "lower"),
    "verify.colorings.count": ("count", "lower"),
    "verify.colorings.busy_s": ("s", "lower"),
    "characters.inner_product.calls": ("count", "lower"),
    "characters.inner_product.busy_s": ("s", "lower"),
    "characters.irreducible_character.busy_s": ("s", "lower"),
    "characters.irreducible_character.hit_ratio": ("ratio", "higher"),
    "characters.mn_character.calls": ("count", "lower"),
    "characters.square_characters.busy_s": ("s", "lower"),
    "characters.decompose_oracle.self_s": ("s", "lower"),
    "partitions.Partition.new.calls": ("count", "lower"),
    "closed_form.full_table.busy_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.untraced_items_per_s": ("1/s", "higher"),
    "trace.traced_items_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Per-layer metrics that are exact counts: two traced runs of one seed must
# agree on them.
DETERMINISTIC = tuple(
    name
    for name, (unit, _) in PER_LAYER.items()
    if unit in ("count", "calls/item")
)


class Tracer:
    """Spans and counters of one repetition, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or None, item id]
        self.stack: list[int] = []
        self.item = None  # id of the running item; None during set-up and checks
        self.counters: dict[str, int] = {}
        self._undo: list = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.item])
        self.stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn):
        counter = TERM_COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                suffix, measure = counter
                self._count(f"{name}.{suffix}", measure(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self._count("verify.colorings.count")
                yield value

        return traced

    def install(self):
        """Patch every traced name; undone by :meth:`uninstall`."""
        import importlib

        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        for module_name, attr, span in GENERATOR_PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap_generator(span, original))

        # Partition constructions are counted, not spanned: there are millions.
        partition_cls = importlib.import_module("hooksq.partitions").Partition
        original_new = partition_cls.__new__

        def counted_new(cls, parts=()):
            if self.item is not None:
                self._count("partitions.Partition.new.calls")
            return original_new(cls, parts)

        self._undo.append((partition_cls, "__new__", original_new))
        partition_cls.__new__ = counted_new

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                    )
                    + "\n"
                )

    def layer_metrics(self, items: int, irreducible_cache) -> dict:
        """Per-layer metrics of the spans and counters recorded so far.

        ``irreducible_cache`` is the ``cache_info()`` of the original
        ``irreducible_character``, read when the item loop ended.
        """
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        covered: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + duration
            if parent is not None:
                parent_name = self.spans[parent][0]
                covered[parent_name] = covered.get(parent_name, 0.0) + duration
        # No traced function calls itself, so summed durations never overlap.

        def self_s(name):
            return busy.get(name, 0.0) - covered.get(name, 0.0)

        lookups = irreducible_cache.hits + irreducible_cache.misses
        symmetrizer_calls = calls.get("tableaux.apply_symmetrizer", 0)
        return {
            "tableaux.apply_column_antisymmetrizer.busy_s": busy.get("tableaux.apply_column_antisymmetrizer", 0.0),
            "tableaux.apply_column_antisymmetrizer.terms_out": self.counters.get("tableaux.apply_column_antisymmetrizer.terms_out", 0),
            "tableaux.apply_row_symmetrizer.busy_s": busy.get("tableaux.apply_row_symmetrizer", 0.0),
            "tableaux.apply_row_symmetrizer.terms_out": self.counters.get("tableaux.apply_row_symmetrizer.terms_out", 0),
            "tableaux.apply_symmetrizer.calls": symmetrizer_calls,
            "tableaux.apply_symmetrizer.busy_s": busy.get("tableaux.apply_symmetrizer", 0.0),
            "tableaux.apply_symmetrizer.calls_per_item": symmetrizer_calls / items if items else 0.0,
            "tableaux.project_to_standard.calls": calls.get("tableaux.project_to_standard", 0),
            "tableaux.project_to_standard.busy_s": busy.get("tableaux.project_to_standard", 0.0),
            "tableaux.project_to_standard.terms_in": self.counters.get("tableaux.project_to_standard.terms_in", 0),
            "tableaux.verify_skew_symmetry.calls": calls.get("tableaux.verify_skew_symmetry", 0),
            "tableaux.verify_skew_symmetry.self_s": self_s("tableaux.verify_skew_symmetry"),
            "verify.colorings.count": self.counters.get("verify.colorings.count", 0),
            "verify.colorings.busy_s": busy.get("verify.balanced_colorings", 0.0)
            + busy.get("verify.first_row_constrained_colorings", 0.0),
            "characters.inner_product.calls": calls.get("characters.inner_product", 0),
            "characters.inner_product.busy_s": busy.get("characters.inner_product", 0.0),
            "characters.irreducible_character.busy_s": busy.get("characters.irreducible_character", 0.0),
            "characters.irreducible_character.hit_ratio": irreducible_cache.hits / lookups if lookups else 0.0,
            "characters.mn_character.calls": calls.get("characters.mn_character", 0),
            "characters.square_characters.busy_s": busy.get("characters.square_characters", 0.0),
            "characters.decompose_oracle.self_s": self_s("characters.decompose_oracle"),
            "partitions.Partition.new.calls": self.counters.get("partitions.Partition.new.calls", 0),
            "closed_form.full_table.busy_s": busy.get("closed_form.full_table", 0.0),
            "cli.main.self_s": self_s("cli.main"),
        }
