"""Outside-in tracer for the benchmark's traced runs.

The tracer wraps the library's public functions from the outside: no file
under ``src/`` changes.  ``from .x import f`` copies the name ``f`` into the
importing module, so a call made through the importer would miss a wrapper
placed only on the defining module; every namespace that binds the
function therefore gets the wrapper.

Each call records a span (name, start, end, parent, tag) in memory; the
tag is the job key on an operation's root span and the coefficient ring on
a cup-ring span.
A span's self time is its duration minus the time its child spans cover.
Size counters are read from the returned objects inside a span of their
own, ``perfbench.counters``, so the cost of counting is charged to the
tracer and not to the layer being measured.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# layer (module) -> public functions traced in it
LAYERS = {
    "coefficients": (
        "sparse_column_reduction",
        "integer_elementary_divisors",
        "field_reduce",
        "smith_normal_form",
    ),
    "simplicial": (
        "cup_ring_of_complex",
        "chain_complex_of",
        "mapping_cylinder",
        "glue_along",
    ),
    "oracle": ("verify_descriptor", "simplicial_model", "assemble_chain_complex"),
    "graded": ("gcps_cohomology", "pairing_invariants", "compare_invariants"),
    "descriptor": ("parse_descriptor", "validate", "base_cohomology"),
    "calculus": (
        "homology_of_descriptor",
        "cohomology_ring_of_descriptor",
        "realize_plan",
    ),
}
# layer -> classes whose constructor is traced (span name <layer>.<Class>)
CONSTRUCTORS = {"graded": ("PresentedGradedRing",)}

ROOT = "perfbench.op"
COUNTING = "perfbench.counters"
# spans of the benchmark's own code; all others are library layers
OWN_SPANS = (ROOT, COUNTING)
CUP_RING = "simplicial.cup_ring_of_complex"
COLUMN_REDUCTION = "coefficients.sparse_column_reduction"
RING_NAMES = {"Z": "Z", "Q": "Q", "Z/2": "Z2", "Z/3": "Z3"}
MODEL_DEGREES = range(6)


def _nnz(rows) -> int:
    total = 0
    for row in rows:
        if isinstance(row, dict):
            total += sum(1 for v in row.values() if v)
        else:
            total += len(row) - row.count(0)
    return total


def _max_bits(vectors) -> int:
    return max(
        (max(map(int.bit_length, vec.values()), default=0) for vec in vectors),
        default=0,
    )


def _count_column_reduction(counters, args, result, _before):
    counters[COLUMN_REDUCTION + ".nnz_in"] += _nnz(args[0])
    counters[COLUMN_REDUCTION + ".pivots"] += result.rank
    bits = COLUMN_REDUCTION + ".max_bits"
    counters[bits] = max(
        counters[bits], _max_bits(result.kernel_cols), _max_bits(result.kernel_dual_rows)
    )


def _count_divisors(counters, _args, result, _before):
    counters["coefficients.integer_elementary_divisors.divisors"] += len(result)


def _chain_not_built(args):
    return getattr(args[0], "_chain", None) is None


def _count_boundaries(counters, _args, cx, built):
    # chain_complex_of caches its result on the complex: count each build once
    if not built:
        return
    for m in cx.boundaries:
        counters["simplicial.boundary_nnz"] += _nnz(m)
        counters["simplicial.boundary_dense_cells"] += len(m) * (len(m[0]) if m else 0)


def _count_model(counters, _args, K, _before):
    per_degree = Counter(len(s) - 1 for s in K.simplices)
    counters["oracle.model_simplices"] += sum(per_degree.values())
    for k, c in per_degree.items():
        counters[f"oracle.model_simplices.d{k}"] += c


# span name -> (hook run before the call, hook reading the returned object)
COUNTER_HOOKS = {
    COLUMN_REDUCTION: (None, _count_column_reduction),
    "coefficients.integer_elementary_divisors": (None, _count_divisors),
    "simplicial.chain_complex_of": (_chain_not_built, _count_boundaries),
    "oracle.simplicial_model": (None, _count_model),
}


def _ring_tag(args, kwargs):
    R = args[1] if len(args) > 1 else kwargs.get("R")
    return RING_NAMES.get(getattr(R, "label", None))


def span_names() -> list[str]:
    names = list(OWN_SPANS)
    for layer, fns in LAYERS.items():
        names += [f"{layer}.{fn}" for fn in fns]
    for layer, classes in CONSTRUCTORS.items():
        names += [f"{layer}.{cls}" for cls in classes]
    return names


def counter_names() -> list[str]:
    return [
        COLUMN_REDUCTION + ".nnz_in",
        COLUMN_REDUCTION + ".pivots",
        COLUMN_REDUCTION + ".max_bits",
        "coefficients.integer_elementary_divisors.divisors",
        "simplicial.boundary_nnz",
        "simplicial.boundary_dense_cells",
        "oracle.model_simplices",
    ] + [f"oracle.model_simplices.d{k}" for k in MODEL_DEGREES]


class Tracer:
    """Spans and counters for calls into the library's layers.

    ``install`` wraps; ``uninstall`` restores.  Wrappers record only while
    ``active`` is set, so the benchmark's own correctness checks, which
    call the same functions, stay out of the trace.
    """

    def __init__(self, modules):
        self.modules = modules  # every loaded module of the library
        self.spans: list[list] = []  # [name, start, end, parent, tag, self]
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._child: list[float] = []
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, tag, 0.0])
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def exit(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        duration = end - span[1]
        self._stack.pop()
        span[5] = duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        before, after = COUNTER_HOOKS.get(name, (None, None))
        tagger = _ring_tag if name == CUP_RING else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            idx = tracer.enter(name, tagger(args, kwargs) if tagger else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if after:
                cidx = tracer.enter(COUNTING)
                try:
                    after(tracer.counters, args, result, state)
                finally:
                    tracer.exit(cidx)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, fns in LAYERS.items():
            mod = self.modules[layer]
            for fn_name in fns:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        for layer, classes in CONSTRUCTORS.items():
            for cls_name in classes:
                cls = getattr(self.modules[layer], cls_name)
                init = cls.__init__
                cls.__init__ = self._wrap(f"{layer}.{cls_name}", init)
                self._restore.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict:
        """Per-name self time and calls over spans[first:last], plus the
        inclusive time of each cup-ring span and of the column reductions
        under it, by coefficient ring."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        by_ring: Counter = Counter()
        ring_of = {}
        for i in range(first, last):
            name, start, end, parent, tag, own = self.spans[i]
            self_s[name] += own
            calls[name] += 1
            ring = tag if name == CUP_RING else ring_of.get(parent)
            ring_of[i] = ring
            if ring is not None and name in (CUP_RING, COLUMN_REDUCTION):
                by_ring[f"{name}.{ring}.s"] += end - start
        return {"self_s": self_s, "calls": calls, "by_ring": by_ring}

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span, gzip-compressed."""
        columns = ["name", "start", "end", "parent", "tag", "self_s"]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, columns=columns)) + "\n")
            for name, start, end, parent, tag, own in self.spans:
                fh.write(
                    json.dumps([name, start, end, parent, tag, own], separators=(",", ":"))
                    + "\n"
                )


def library_modules() -> dict:
    """Loaded modules of the library, keyed by their short name."""
    prefix = "reeb_bubble."
    return {
        name[len(prefix):]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith(prefix) and mod is not None
    }
