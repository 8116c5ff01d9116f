"""Span tracing installed on phl from outside the package.

``Tracer.install`` wraps the public functions of each traced module, and a
few methods that carry construction and monad cost, then rebinds every name
under which a phl module imported the original (``lifting.search_maps`` is
``core.search_maps``), so calls between modules are traced too.  Each call
becomes a span (name, start, end, parent) kept in flat arrays until
``write_spans``.  A generator returned by a wrapped function is wrapped as
well: each ``__next__`` is its own span named ``<function>.next``.

Self time of a span is its duration minus the duration of its child spans.
A metric group (``core.colimit_s``: coproduct, pushout, product,
product_map) accumulates the time during which at least one of its spans is
open, so nested or recursive calls are not counted twice.
"""

from __future__ import annotations

import inspect
import types
from array import array
from time import perf_counter

LAYERS = (
    "core", "cylinder", "homotopy", "lifting", "monads",
    "witnesses", "equivalence", "simplicial", "documents", "cli",
)

# Label formatters and the guard lookup run once per cell; wrapping them
# would mostly measure the wrapper.
UNTRACED = {"core.pair_label", "core.resolve_guard", "monads.word_label", "monads.path_label"}

METHODS = (
    ("core", "PresheafMap", "__init__"),
    ("core", "PresheafMap", "then"),
    ("cylinder", "CylinderData", "cylinder"),
    ("cylinder", "CylinderData", "tensor_map"),
    ("lifting", "LiftingProblem", "__post_init__"),
    ("monads", "FreeMonoidMonad", "apply"),
    ("monads", "FreeMonoidMonad", "on_map"),
    ("monads", "FreeMonoidMonad", "mult"),
    ("monads", "FreeCategoryMonad", "apply"),
    ("monads", "FreeCategoryMonad", "on_map"),
    ("monads", "FreeCategoryMonad", "mult"),
)

# metric -> span names whose open time it accumulates
GROUPS = {
    "core.search_setup_s": ("core.search_maps",),
    "core.search_s": ("core.search_maps.next",),
    "core.map_build_s": ("core.PresheafMap.__init__",),
    "core.colimit_s": ("core.coproduct", "core.pushout", "core.product", "core.product_map"),
    "core.iso_s": ("core.arrows_isomorphic",),
    "cylinder.cylinder_s": ("cylinder.CylinderData.cylinder",),
    "cylinder.corner_s": ("cylinder.corner_full", "cylinder.corner_endpoint"),
    "homotopy.find_s": ("homotopy.find_homotopy",),
    "homotopy.classes_s": ("homotopy.homotopy_classes",),
    "lifting.rlp_s": ("lifting.has_rlp",),
    "lifting.solve_s": ("lifting.solve_lift",),
    "lifting.anodyne_s": ("lifting.generate_anodyne",),
    "monads.apply_s": ("monads.FreeMonoidMonad.apply", "monads.FreeCategoryMonad.apply"),
    "monads.laws_s": ("monads.check_monad_laws",),
    "witnesses.retract_s": ("witnesses.m2_retract_set",),
    "witnesses.tower_s": ("witnesses.m2_tower_graph",),
    "equivalence.tweq_s": ("equivalence.is_t_weak_equivalence",),
    "equivalence.alt_we_s": ("equivalence.alternative_we_check",),
    "simplicial.nerve_s": ("simplicial.nerve",),
    "simplicial.horn_s": ("simplicial.horn_filler",),
    "simplicial.tau0_s": ("simplicial.tau0_classes",),
    "documents.parse_s": ("documents.parse_document",),
    "documents.emit_s": (
        "documents.canonical_json", "documents.object_to_document",
        "documents.map_to_document", "documents.monoid_to_document",
        "documents.category_to_document", "documents.family_to_document",
        "documents.algebra_to_document",
    ),
}


def _family_sizes(family):
    return {
        "lifting.anodyne_entries": len(family.entries),
        "lifting.anodyne_pre_dedup": sum(family.pre_dedup_counts.values()),
    }


# span name -> counters read off the returned value
OBSERVERS = {
    "lifting.has_rlp": lambda v: {"lifting.squares_checked": v.squares_checked},
    "lifting.solve_lift": lambda v: {"lifting.lifts_found": int(v is not None)},
    "homotopy.find_homotopy": lambda v: {"homotopy.found": int(v is not None)},
    "lifting.generate_anodyne": _family_sizes,
    "monads.check_monad_laws": lambda v: {"monads.assoc_checked": v.assoc_checked},
    "simplicial.horn_filler": lambda v: {"simplicial.horn_instances": len(v.instances)},
}


class Tracer:
    """In-memory span recorder with per-name and per-group aggregates."""

    def __init__(self):
        self.labels = []
        self._ids = {}
        self._groups_of = []
        self.group_names = list(GROUPS)
        self.group_time = [0.0] * len(GROUPS)
        self._group_depth = [0] * len(GROUPS)
        self.calls = []
        self.self_time = []
        self.counters = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []

    def _label_id(self, label):
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.labels)
            self.labels.append(label)
            self._groups_of.append(
                tuple(g for g, members in enumerate(GROUPS.values()) if label in members)
            )
            self.calls.append(0)
            self.self_time.append(0.0)
        return nid

    def _open(self, nid):
        self.calls[nid] += 1
        for g in self._groups_of[nid]:
            self._group_depth[g] += 1
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())

    def _close(self):
        now = perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = now
        duration = now - self.start[idx]
        nid = self.name[idx]
        self.self_time[nid] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        for g in self._groups_of[nid]:
            self._group_depth[g] -= 1
            if not self._group_depth[g]:
                self.group_time[g] += duration

    def count(self, counters):
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, label, fn):
        nid = self._label_id(label)
        next_id = self._label_id(label + ".next")
        observe = OBSERVERS.get(label)
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if observe is not None:
                tracer.count(observe(result))
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(next_id, label, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _iterate(self, nid, label, gen):
        yielded = label + ".yielded"
        counters = self.counters
        while True:
            self._open(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close()
            counters[yielded] = counters.get(yielded, 0) + 1
            yield item

    def install(self, phl):
        """Wrap the traced functions of the namespace ``phl`` (one attribute
        per module) and rebind every phl module name that refers to them."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for m in vars(phl).values() if isinstance(m, types.ModuleType)]
        replaced = {}
        for layer in LAYERS:
            module = getattr(phl, layer)
            for attr, value in sorted(vars(module).items()):
                label = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and label not in UNTRACED
                ):
                    replaced[id(value)] = (value, self._wrap(label, value))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(getattr(phl, layer), cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def calls_of(self, label):
        nid = self._ids.get(label)
        return 0 if nid is None else self.calls[nid]

    def group(self, metric):
        return self.group_time[self.group_names.index(metric)]

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(
            t for label, t in zip(self.labels, self.self_time) if label.startswith(prefix)
        )

    def span_count(self):
        return len(self.start)

    def write_spans(self, path):
        """One line per span: name, start and end (seconds since the first
        span), and the parent's line number (-1 for a root span)."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\n")
            for nid, start, end, parent in zip(self.name, self.start, self.end, self.parent):
                out.write(
                    f"{self.labels[nid]}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n"
                )
