"""Outside-in span tracer for the indres package.

The tracer wraps the public functions and public methods of every
``indres.*`` module from the outside; it changes no file of the package.
Each wrapped call is a span named ``<module>.<qualname>`` (for example
``groupcore.PermGroup.rows_in``).  Because modules bind each other's
functions with ``from .groupcore import normalizer``, a wrapper is rebound
in every ``indres.*`` namespace that holds the original, not only in its
home module; otherwise calls made through the imported name would escape.

Spans are aggregated in memory (calls, total time, self time, where self
time is the span's duration minus the time covered by its child spans)
and written once, as JSON, when the traced program ends.

Private helpers (leading underscore) are not spans: their time counts
toward the public caller.  Methods of the small value types listed in
``VALUE_TYPES`` are not spans either; they run in the innermost loops, so
wrapping them would cost more than the work they do.
"""

import functools
import inspect
import json
import sys
import weakref
from time import perf_counter

PACKAGE = "indres"

# Modules whose public callables become spans.  ``oracles`` is left out:
# no benchmark workload calls it.
MODULES = ("blocks", "catalog", "chartab", "classfun", "cli",
           "correspondence", "groupcore", "lattice")

VALUE_TYPES = {
    "blocks": ("F2Field", "FpField"),
    "chartab": ("Cyclotomic",),
    "classfun": ("VirtualCharacter",),
    "groupcore": ("Permutation",),
}


class _Seen:
    """Tells whether an object was returned by an earlier call.

    A call that returns an object some earlier call returned is a cache
    hit, whatever the cache looks like inside the program.  Weak references
    are used where the type allows, so tracing keeps nothing alive; other
    objects (plain lists) are held, which keeps their ids unique.
    """

    def __init__(self):
        self._refs = {}

    def first_time(self, obj):
        ref = self._refs.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        try:
            ref = weakref.ref(obj)
        except TypeError:
            ref = (lambda o: lambda: o)(obj)
        self._refs[id(obj)] = ref
        return True


def _counter_hooks():
    """Per-span counters: span name -> (before(args), after(args, result, state)).

    Each ``after`` returns a dict of counter increments, keyed by the
    stat name that follows the span name in the metric.
    """
    seen_tables, seen_res, seen_elem = _Seen(), _Seen(), _Seen()

    def table_for(args, result, _):
        return {"hits": 0 if seen_tables.first_time(result) else 1}

    def restriction_matrix(args, result, _):
        if not seen_res.first_time(result):
            return {}
        big, small = args[0], args[1]
        return {"misses": 1, "cyclo_products": big.k * small.k * small.k}

    def elements(args, result, _):
        return {"rows": len(result)} if seen_elem.first_time(result) else {}

    def insert(args, result, rank_before):
        return {"raised_rank": int(args[0].rank > rank_before)}

    return {
        "correspondence.table_for": (None, table_for),
        "classfun.restriction_matrix": (None, restriction_matrix),
        "groupcore.PermGroup.elements": (None, elements),
        "groupcore.PermGroup.rows_in": (
            None, lambda args, result, _: {"rows": len(args[1])}),
        "groupcore.qualifying_elementary_subgroups": (
            None, lambda args, result, _: {"subgroups": len(result)}),
        "lattice.IntLattice.insert": (lambda args: args[0].rank, insert),
    }


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counters = {}  # "<span>.<stat>" -> int
        self._stack = []  # child time accumulated by each open span
        self._hooks = _counter_hooks()

    def wrap(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        before, after = self._hooks.get(name, (None, None))
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = before(args) if before else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
            if after:
                for stat, n in after(args, result, state).items():
                    key = f"{name}.{stat}"
                    counters[key] = counters.get(key, 0) + n
            return result

        return span

    def install(self):
        """Wrap every public function and method, rebinding each everywhere."""
        modules = {short: sys.modules[f"{PACKAGE}.{short}"] for short in MODULES}
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replaced = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and attr not in VALUE_TYPES.get(short, ()):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(ns, attr, wrapper)

    def _wrap_methods(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, (staticmethod, classmethod)):
                setattr(cls, attr, type(obj)(self.wrap(name, obj.__func__)))

    def dump(self, path):
        data = {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
