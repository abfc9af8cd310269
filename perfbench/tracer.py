"""Wrap spancalc's public functions from outside the program and time them.

A *timed* wrapper records calls and self time (inclusive time minus the
time spent in timed children).  A *count* wrapper only counts calls, for
functions too hot to time without distorting their callers.  The work a
wrapper does to derive a metric from a call's arguments or result runs
outside every clock.

Each name is bound in every spancalc namespace that holds it, so the
``from .spans import ...`` copies in ``cli``, ``fock`` and ``hecke`` see
the wrapper too.  A name the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.absent: list[str] = []
        self.seq = 0            # wrapped calls so far, to detect nested calls
        self._stack: list[list[float]] = []
        self._excluded = 0.0    # time spent deriving metrics, kept off clocks
        self.kept: list = []    # results that end-of-run metrics inspect

    # -- wrappers --------------------------------------------------------

    def _post(self, post, stats, args, kwargs, result, seq0):
        if post is not None:
            start = perf_counter()
            post(stats, args, kwargs, result, self.seq != seq0)
            self._excluded += perf_counter() - start

    def timed(self, name: str, fn, post=None):
        stats = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.seq += 1
            seq0 = self.seq
            frame = [0.0]
            self._stack.append(frame)
            excluded0 = self._excluded
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                inclusive = perf_counter() - start - (self._excluded - excluded0)
                self._stack.pop()
                stats["calls"] += 1
                stats["self_s"] += inclusive - frame[0]
                if self._stack:
                    self._stack[-1][0] += inclusive
            self._post(post, stats, args, kwargs, result, seq0)
            return result
        return wrapper

    def count(self, name: str, fn, post=None):
        stats = self.stats[name]
        if inspect.isgeneratorfunction(fn):
            def counted(gen):
                for item in gen:
                    stats["yields"] += 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.seq += 1
                stats["calls"] += 1
                self._post(post, stats, args, kwargs, None, self.seq)
                return counted(fn(*args, **kwargs))
        elif post is None:
            # kept minimal: groupoid.compose passes here 1e6 times per op
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.seq += 1
                stats["calls"] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.seq += 1
                stats["calls"] += 1
                result = fn(*args, **kwargs)
                self._post(post, stats, args, kwargs, result, self.seq)
                return result
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, name: str, target: str, kind: str, post=None) -> None:
        """Wrap ``module:qualname`` (e.g. ``spancalc.hall:HallAlgebra.product``)
        with a ``timed`` or ``count`` wrapper whose stats go under ``name``."""
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = getattr(self, kind)(name, fn, post)
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        if isinstance(owner, type):
            namespaces = [owner]
        else:
            namespaces = [m for key, m in list(sys.modules.items())
                          if key == "spancalc" or key.startswith("spancalc.")]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is raw or value is fn:
                    setattr(ns, key, wrapper)

    def report(self) -> dict:
        return {"stats": {k: dict(v) for k, v in self.stats.items()},
                "absent": self.absent}


# -- what the benchmark wraps, and the metrics derived from calls ---------------

def _add(field, value_of):
    def post(stats, args, kwargs, result, nested):
        stats[field] += value_of(args, kwargs, result)
    return post


def _hit(stats, args, kwargs, result, nested):
    # a cache hit makes no nested call into the work it caches
    stats["hits"] += not nested


def _projected_morphisms(f, g) -> int:
    """Morphisms of the literal weak pullback of f and g, from public
    accessors: sum over (t, s) of |Hom(f t, g s)| |out(t)| |out(s)|."""
    T, S, B = f.domain, g.domain, f.codomain
    out_t = [len(T.mor_from(t)) for t in range(T.n_objects)]
    out_s = [len(S.mor_from(s)) for s in range(S.n_objects)]
    return sum(len(B.hom(f.obj_map[t], g.obj_map[s])) * out_t[t] * out_s[s]
               for t in range(T.n_objects) for s in range(S.n_objects))


def _pullback(stats, args, kwargs, result, nested):
    P = result[0]
    stats["objects_built"] += P.n_objects
    stats["morphisms_built"] += P.n_morphisms
    stats["morphisms_projected"] += _projected_morphisms(*args[:2])


def _hom_candidates(args, kwargs, result):
    algebra, src, dst = args[:3]
    return algebra.q ** sum(a * b for a, b in zip(src.dims, dst.dims))


def _group_order(stats, args, kwargs, result, nested):
    stats["group_order"] = max(stats["group_order"], result.group.order)


def timed_targets(tracer: Tracer) -> list[tuple]:
    """(metric prefix, module:qualname, wrapper kind, post) for the timed pass."""
    def keep(stats, args, kwargs, result, nested):
        tracer.kept.append(result)

    return [
        ("cli.main", "spancalc.cli:main", "timed", None),
        ("groupoid.to_json", "spancalc.groupoid:FiniteGroupoid.to_json",
         "timed", _add("pairs", lambda a, k, r: len(r["compose"]))),
        ("groupoid.from_json", "spancalc.groupoid:FiniteGroupoid.from_json",
         "timed", _add("pairs", lambda a, k, r: len(a[0]["compose"]))),
        ("groupoid.iso_classes", "spancalc.groupoid:iso_classes", "timed",
         _add("morphisms_scanned", lambda a, k, r: a[0].n_morphisms)),
        ("groupoid.validate_groupoid", "spancalc.groupoid:validate_groupoid",
         "timed", None),
        ("spans.weak_pullback", "spancalc.spans:weak_pullback", "timed",
         _pullback),
        ("spans.weak_pullback_literal", "spancalc.spans:_weak_pullback_literal",
         "count", None),
        ("spans.weak_pullback_skeletal",
         "spancalc.spans:_weak_pullback_skeletal", "count", None),
        ("spans.compose_spans", "spancalc.spans:compose_spans", "timed", None),
        ("spans.degroupoidify_span", "spancalc.spans:degroupoidify_span",
         "timed", None),
        ("spans.span_to_json", "spancalc.spans:span_to_json", "timed", None),
        ("spans.span_from_json", "spancalc.spans:span_from_json", "timed",
         None),
        ("fock.build_E", "spancalc.fock:build_E", "timed", keep),
        ("fock.verify_ccr", "spancalc.fock:verify_ccr", "timed", None),
        ("hecke.flag_geometry", "spancalc.hecke:flag_geometry", "timed", None),
        ("hecke.build_group", "spancalc.hecke:build_group", "timed",
         _group_order),
        ("hecke.bruhat_orbits", "spancalc.hecke:bruhat_orbits", "timed", None),
        ("hecke.hecke_structure_constants",
         "spancalc.hecke:hecke_structure_constants", "timed", None),
        ("hecke.verify_hecke_relations",
         "spancalc.hecke:verify_hecke_relations", "timed", None),
        ("actions.weak_quotient", "spancalc.actions:weak_quotient", "timed",
         _add("points", lambda a, k, r: a[0].n_points)),
        ("actions.GroupAction.orbits", "spancalc.actions:GroupAction.orbits",
         "timed", None),
        ("hall.all_matrices", "spancalc.hall:all_matrices", "count", None),
        ("hall.classes", "spancalc.hall:HallAlgebra.classes", "timed", _hit),
        ("hall.product", "spancalc.hall:HallAlgebra.product", "timed", _hit),
        ("hall.ses_pairs", "spancalc.hall:HallAlgebra.ses_pairs", "timed",
         None),
        ("hall.hom_tuples", "spancalc.hall:HallAlgebra.hom_tuples", "count",
         _add("candidates", _hom_candidates)),
        ("hall.product_via_span", "spancalc.hall:HallAlgebra.product_via_span",
         "timed", None),
        ("hall.subrep_spaces", "spancalc.hall:HallAlgebra.subrep_spaces",
         "timed", None),
        ("hall.aut_elements", "spancalc.hall:HallAlgebra.aut_elements",
         "timed", None),
        ("hall.check_associativity",
         "spancalc.hall:HallAlgebra.check_associativity", "timed", None),
    ]


# the hottest calls, counted in a pass of their own
COUNT_TARGETS = [
    ("groupoid.compose", "spancalc.groupoid:FiniteGroupoid.compose", "count",
     None),
    ("hall.mat_mul", "spancalc.hall:mat_mul", "count", None),
]


def table_entries(kept) -> int:
    """Dense composition-table entries held by the truncated groupoids built."""
    seen = set()
    total = 0
    for E in kept:
        levels = getattr(E, "levels", None)
        if levels is None or id(levels) in seen:
            continue
        seen.add(id(levels))
        total += sum(len(t) for t in getattr(levels, "_comp_table", ()) or ()
                     if t is not None)
    return total
