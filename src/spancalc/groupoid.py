"""Explicit finite groupoids, functors, isomorphism classes and exact cardinality.

A finite groupoid is stored as indexed tables: objects are ``0..n_objects-1``,
morphisms are ``0..n_morphisms-1`` with source/target object indices, an
identity morphism per object, an inverse per morphism, and a composition map
``compose(f, g)`` defined exactly when ``tgt(f) == src(g)`` (read "f then g").

Cardinality is the sum over isomorphism classes of ``1/|Aut|``, an exact
rational.  All operations here are pure; groupoids are immutable after
construction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

from .exact import _check_cap, greedy_generators

Rational = Fraction


def same_groupoid(a: "FiniteGroupoid", b: "FiniteGroupoid") -> bool:
    """Identity or full structural equality of the index tables, and of
    the composition tables when both hold them as dicts."""
    return a is b or (a.n_objects == b.n_objects and a.src == b.src
                      and a.tgt == b.tgt and a.identity == b.identity
                      and a.inverse == b.inverse
                      and (a._compose_map is None or b._compose_map is None
                           or a._compose_map == b._compose_map))


class FiniteGroupoid:
    """A groupoid with explicitly indexed objects and morphisms.

    ``compose`` may be a dict keyed by composable pairs ``(f, g) -> h`` or a
    callable; structured groupoids such as weak pullbacks use callables so
    that large composition tables are never materialized.
    """

    __slots__ = ("n_objects", "src", "tgt", "identity", "inverse",
                 "_compose_map", "_compose_fn", "_hom_index", "_from_index",
                 "_aut_gens", "_classes")

    def __init__(
        self,
        n_objects: int,
        src: Sequence[int],
        tgt: Sequence[int],
        identity: Sequence[int],
        inverse: Sequence[int],
        compose: dict[tuple[int, int], int] | Callable[[int, int], int],
    ):
        self.n_objects = n_objects
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.identity = tuple(identity)
        self.inverse = tuple(inverse)
        if callable(compose):
            self._compose_map = None
            self._compose_fn = compose
        else:
            self._compose_map = compose
            self._compose_fn = None
        self._hom_index: dict[tuple[int, int], list[int]] | None = None
        self._from_index: list[list[int]] | None = None
        self._aut_gens: dict[int, list[int]] = {}
        self._classes: IsoClassTable | None = None

    @property
    def n_morphisms(self) -> int:
        return len(self.src)

    def compose(self, f: int, g: int) -> int:
        """Composite "f then g"; requires tgt(f) == src(g)."""
        if self.tgt[f] != self.src[g]:
            raise ValueError(f"morphisms {f} (tgt {self.tgt[f]}) and {g} "
                             f"(src {self.src[g]}) are not composable")
        if self._compose_map is not None:
            return self._compose_map[(f, g)]
        return self._compose_fn(f, g)

    def _homs(self) -> dict[tuple[int, int], list[int]]:
        if self._hom_index is None:
            index: dict[tuple[int, int], list[int]] = {}
            for m in range(self.n_morphisms):
                index.setdefault((self.src[m], self.tgt[m]), []).append(m)
            self._hom_index = index
        return self._hom_index

    def hom(self, x: int, y: int) -> list[int]:
        return self._homs().get((x, y), [])

    def aut(self, x: int) -> list[int]:
        return self.hom(x, x)

    def aut_generators(self, x: int) -> list[int]:
        """A greedy generating set of Aut(x) in index order, at most
        log2 |Aut(x)| long (``exact.greedy_generators``); cached."""
        gens = self._aut_gens.get(x)
        if gens is None:
            gens = self._aut_gens[x] = greedy_generators(
                self.aut(x), self.identity[x], self.compose)[0]
        return gens

    def composites(self) -> Iterator[tuple[int, int, int]]:
        """Each composable pair with its composite, (f, g, f;g), in order of
        f, then of g."""
        for f in range(self.n_morphisms):
            for g in self.mor_from(self.tgt[f]):
                yield f, g, self.compose(f, g)

    def mor_from(self, x: int) -> list[int]:
        if self._from_index is None:
            index: list[list[int]] = [[] for _ in range(self.n_objects)]
            for m in range(self.n_morphisms):
                index[self.src[m]].append(m)
            self._from_index = index
        return self._from_index[x]

    def __repr__(self) -> str:
        return (f"FiniteGroupoid({self.n_objects} objects, "
                f"{self.n_morphisms} morphisms)")

    # -- JSON interchange --------------------------------------------------

    def to_json(self) -> dict:
        pairs = sum(
            len(self.mor_from(self.tgt[f])) for f in range(self.n_morphisms)
        )
        _check_cap("composition table serialization", pairs)
        return {
            "objects": self.n_objects,
            "morphisms": [{"src": self.src[m], "tgt": self.tgt[m]}
                          for m in range(self.n_morphisms)],
            "identity": list(self.identity),
            "compose": [list(c) for c in self.composites()],
            "inverse": list(self.inverse),
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteGroupoid":
        """Read the JSON form and check it against the groupoid axioms.

        It first parses: a count or index that is not an int, a ``compose``
        entry that is not three of them, or a pair listed twice in
        ``compose`` is a ``ValueError``.  Then ``validate_groupoid`` is the
        one structural check: a file that parses but is not a groupoid is
        a ``Violations`` error, whose message is the first violation and
        which carries the full list.
        """
        mor = data["morphisms"]
        n_objects = data["objects"]
        src = tuple(map(itemgetter("src"), mor))
        tgt = tuple(map(itemgetter("tgt"), mor))
        identity = tuple(data["identity"])
        inverse = tuple(data["inverse"])
        if type(n_objects) is not int:      # a bool is not one either
            raise ValueError(f"objects={n_objects!r} is not an integer")
        for name, values in (("src", src), ("tgt", tgt),
                             ("identity", identity), ("inverse", inverse)):
            if not _all_ints(values):
                bad = next(i for i, v in enumerate(values)
                           if type(v) is not int)
                raise ValueError(f"{name}[{bad}]={values[bad]!r} is not an "
                                 f"integer")
        entries = data["compose"]
        compose = {}
        for i, entry in enumerate(entries):
            if type(entry) is list and len(entry) == 3:
                f, h, fh = entry
                if type(f) is int and type(h) is int and type(fh) is int:
                    compose[f, h] = fh
                    continue
            raise ValueError(f"compose[{i}]={entry!r} is not [f, g, h]")
        if len(compose) != len(entries):
            counts = Counter((e[0], e[1]) for e in entries)
            f, h = next(pair for pair, n in counts.items() if n > 1)
            raise ValueError(f"compose lists the pair ({f}, {h}) twice")
        g = FiniteGroupoid(n_objects, src, tgt, identity, inverse, compose)
        violations = validate_groupoid(g)
        if violations:
            raise Violations(violations)
        return g


class Violations(ValueError):
    """Groupoid axiom violations of a parsed file; the message is the
    first of ``violations``."""

    def __init__(self, violations: list[str]):
        super().__init__(violations[0])
        self.violations = violations


def _all_ints(values) -> bool:
    """Whether every value is an int (a bool is not), at C speed."""
    return set(map(type, values)) <= {int}


def _right_generators(g: FiniteGroupoid,
                      table: dict[tuple[int, int], int]) -> list[int]:
    """Morphisms from which composing on the right, starting at the
    identities, reaches every morphism of ``g`` through ``table``, the
    composite of every composable pair.

    Seeded, per component, with a morphism from its least object to each
    other object and one back; any morphism still unreached joins in index
    order, which in a groupoid at least doubles the reached part of the
    component's automorphism group.
    """
    reached = set(g.identity)
    ending_at = [[i] for i in g.identity]     # reached morphisms by target
    gens: list[int] = []
    gens_from: list[list[int]] = [[] for _ in range(g.n_objects)]

    def add(s: int) -> None:
        gens.append(s)
        gens_from[g.src[s]].append(s)
        todo = [table[(h, s)] for h in ending_at[g.src[s]]]
        while todo:
            h = todo.pop()
            if h not in reached:
                reached.add(h)
                ending_at[g.tgt[h]].append(h)
                todo.extend(table[(h, t)] for t in gens_from[g.tgt[h]])

    classes = iso_classes(g)
    for x, cls in enumerate(classes.class_of):
        r = classes.representative[cls]
        if x != r:
            for m in g.hom(r, x)[:1] + g.hom(x, r)[:1]:
                if m not in reached:
                    add(m)
    for m in range(g.n_morphisms):
        if m not in reached:
            add(m)
    return gens


def _index_fault(name: str, values: tuple, length: int,
                 bound: int) -> str | None:
    """What keeps ``values`` from being ``length`` ints in 0..bound-1,
    if anything."""
    if len(values) != length:
        return f"{name} has {len(values)} entries, expected {length}"
    if _all_ints(values) and (not values
                              or 0 <= min(values) and max(values) < bound):
        return None
    bad = next(i for i, v in enumerate(values)
               if type(v) is not int or not 0 <= v < bound)
    return f"{name}[{bad}]={values[bad]!r} is out of range 0..{bound - 1}"


class GroupoidFunctor(NamedTuple):
    """A functor between finite groupoids, as object and morphism index maps."""

    domain: FiniteGroupoid
    codomain: FiniteGroupoid
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]

    def then(self, other: "GroupoidFunctor") -> "GroupoidFunctor":
        """Composite functor: self followed by other."""
        if not same_groupoid(self.codomain, other.domain):
            raise ValueError("functors not composable")
        return GroupoidFunctor(
            self.domain, other.codomain,
            tuple(other.obj_map[o] for o in self.obj_map),
            tuple(other.mor_map[m] for m in self.mor_map),
        )

    def validate(self) -> list[str]:
        """Faults that keep the maps from being a functor, reported and
        never raised; empty if there are none.

        First maps of the wrong size or with entries that are not indices
        of the codomain, then morphisms sent outside the images of their
        endpoints, then composites of the domain that are not preserved
        (so, between groupoids, identities and inverses too); each stage
        runs only when the ones before found nothing.  Composites are
        looked up in the composition tables when the groupoids hold them.
        """
        dom, cod = self.domain, self.codomain
        obj_map, mor_map = self.obj_map, self.mor_map
        errors = [e for e in (
            _index_fault("object map", obj_map, dom.n_objects,
                         cod.n_objects),
            _index_fault("morphism map", mor_map, dom.n_morphisms,
                         cod.n_morphisms)) if e]
        if errors:
            return errors
        ends = zip(mor_map, dom.src, dom.tgt)
        errors = [f"morphism map[{m}]={fm} goes from {cod.src[fm]} to "
                  f"{cod.tgt[fm]}, not from {obj_map[s]} to {obj_map[t]}"
                  for m, (fm, s, t) in enumerate(ends)
                  if cod.src[fm] != obj_map[s] or cod.tgt[fm] != obj_map[t]]
        if errors:
            return errors
        table = dom._compose_map
        if table is None:
            table = {(f, g): h for f, g, h in dom.composites()}
        cod_table = cod._compose_map
        if cod_table is None:
            images = {(mor_map[f], mor_map[g]) for f, g in table}
            cod_table = {(a, b): cod.compose(a, b) for a, b in images}
        return [f"morphism map does not preserve the composite of {f} and {g}"
                for (f, g), h in table.items()
                if cod_table[mor_map[f], mor_map[g]] != mor_map[h]]

    def to_json(self) -> dict:
        return {"objects": list(self.obj_map), "morphisms": list(self.mor_map)}

    @staticmethod
    def from_json(data: dict, domain: FiniteGroupoid,
                  codomain: FiniteGroupoid) -> "GroupoidFunctor":
        """Read the JSON form; a ``ValueError`` with the first fault that
        ``validate`` reports, if it reports any."""
        functor = GroupoidFunctor(domain, codomain, tuple(data["objects"]),
                                  tuple(data["morphisms"]))
        faults = functor.validate()
        if faults:
            raise ValueError(faults[0])
        return functor


class IsoClassTable(NamedTuple):
    """Partition of a groupoid's objects into isomorphism classes.

    Classes are numbered in increasing order of their minimal object index,
    which is also the chosen representative.  For an action groupoid S//G
    the classes are the orbits and ``aut_order`` the stabilizer orders.
    """

    class_of: tuple[int, ...]
    representative: tuple[int, ...]
    aut_order: tuple[int, ...]
    class_size: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.representative)

    @property
    def cardinality(self) -> Rational:
        """Groupoid cardinality: sum of 1/|Aut| over the classes, exact."""
        return sum((Fraction(1, a) for a in self.aut_order), Fraction(0))


def iso_classes(g: FiniteGroupoid) -> IsoClassTable:
    """Iso classes, by one scan of the objects in order: each object not
    yet classed starts a class, the targets of the morphisms out of it,
    and its automorphisms are those that end at it; cached on ``g``.
    Precondition: identities, inverses and composites have the right
    endpoints, so the morphisms out of an object reach its whole class;
    ``validate_groupoid`` checks them before ``_right_generators`` calls
    this."""
    if g._classes is not None:
        return g._classes
    class_of = [-1] * g.n_objects
    reps: list[int] = []
    auts: list[int] = []
    sizes: list[int] = []
    for x in range(g.n_objects):
        if class_of[x] < 0:
            targets = [g.tgt[m] for m in g.mor_from(x)]
            members = set(targets)
            for y in members:
                class_of[y] = len(reps)
            reps.append(x)
            auts.append(targets.count(x))
            sizes.append(len(members))
    g._classes = IsoClassTable(tuple(class_of), tuple(reps), tuple(auts),
                               tuple(sizes))
    return g._classes


def cardinality(g: FiniteGroupoid) -> Rational:
    """Sum of 1/|Aut| over isomorphism classes, exact."""
    return iso_classes(g).cardinality


# a validation scan stops once it has found this many violations
MAX_VIOLATIONS = 50


class _Enough(Exception):
    """Stops a validation scan once it holds enough violations."""


def validate_groupoid(g: FiniteGroupoid) -> list[str]:
    """Check the groupoid axioms; return violations (empty if valid).

    Violations are data, not errors: each entry names the broken axiom and
    the witnessing indices.  Index ranges are checked first, and nothing
    else is checked when one fails; every composite is checked for range
    and endpoints before it is used.  Associativity is checked only when
    everything else holds, by Light's test, which reports violating
    triples with the middle factor in a generating set rather than every
    violating triple.
    """
    errors: list[str] = []
    n_obj, n_mor = g.n_objects, g.n_morphisms

    def report(msg: str) -> None:
        errors.append(msg)
        if len(errors) >= MAX_VIOLATIONS:
            raise _Enough

    def is_index(v, bound: int) -> bool:
        return type(v) is int and 0 <= v < bound

    bad_pairs: set[tuple[int, int]] = set()
    compose_map, compose_fn = g._compose_map, g._compose_fn

    def comp(f: int, h: int) -> int | None:
        """compose(f, h), for a composable pair, if it is a morphism from
        src(f) to tgt(h); each failing pair is reported once."""
        if (f, h) in bad_pairs:
            return None
        try:
            r = compose_fn(f, h) if compose_map is None else compose_map[f, h]
            if type(r) is int and 0 <= r < n_mor and g.src[r] == g.src[f] \
                    and g.tgt[r] == g.tgt[h]:
                return r
            msg = f"compose({f},{h})={r} has wrong endpoints"
        except (KeyError, IndexError, TypeError, ValueError):
            msg = f"compose({f},{h}) raised for a composable pair"
        bad_pairs.add((f, h))
        report(msg)
        return None

    def scan() -> None:
        if len(g.identity) != n_obj or len(g.inverse) != n_mor:
            report(f"{len(g.identity)} identities and {len(g.inverse)} "
                   f"inverses for {n_obj} objects and {n_mor} morphisms")
            return
        for m in range(n_mor):
            if not (is_index(g.src[m], n_obj) and is_index(g.tgt[m], n_obj)):
                report(f"morphism {m} has out-of-range endpoints")
            if not is_index(g.inverse[m], n_mor):
                report(f"inverse[{m}]={g.inverse[m]} is not a morphism")
        for x in range(n_obj):
            if not is_index(g.identity[x], n_mor):
                report(f"identity[{x}]={g.identity[x]} is not a morphism")
        if errors:
            return
        for x in range(n_obj):
            i = g.identity[x]
            if g.src[i] != x or g.tgt[i] != x:
                report(f"identity of object {x} has endpoints "
                       f"({g.src[i]}, {g.tgt[i]})")

        # composability: defined exactly when tgt(f) == src(g)
        if g._compose_map is not None:
            for f, h in g._compose_map:
                if not (is_index(f, n_mor) and is_index(h, n_mor)) or \
                        g.tgt[f] != g.src[h]:
                    report(f"compose({f},{h}) defined for a pair that is "
                           "not composable")
            for f in range(n_mor):
                for h in g.mor_from(g.tgt[f]):
                    if (f, h) not in g._compose_map:
                        bad_pairs.add((f, h))
                        report(f"compose({f},{h}) undefined for a "
                               "composable pair")

        # every composite once; None where it is missing or misplaced
        table = {(f, h): comp(f, h)
                 for f in range(n_mor) for h in g.mor_from(g.tgt[f])}
        for f in range(n_mor):
            r = table.get((f, g.identity[g.tgt[f]]))
            if r is not None and r != f:
                report(f"compose({f}, id) != {f}")
            r = table.get((g.identity[g.src[f]], f))
            if r is not None and r != f:
                report(f"compose(id, {f}) != {f}")
            inv = g.inverse[f]
            if g.src[inv] != g.tgt[f] or g.tgt[inv] != g.src[f]:
                report(f"inverse[{f}]={inv} has wrong endpoints")
                continue
            r = table[(f, inv)]
            if r is not None and r != g.identity[g.src[f]]:
                report(f"compose({f}, inverse) is not the identity")
            r = table[(inv, f)]
            if r is not None and r != g.identity[g.tgt[f]]:
                report(f"compose(inverse, {f}) is not the identity")

        if errors:
            return
        # Light's test, which needs the laws above: the middle factors h
        # with (f;h);k = f;(h;k) for all f, k include the identities and
        # are closed under composition, so testing h over a set that
        # reaches every morphism by composing on the right from the
        # identities decides associativity, at a small multiple of the
        # table's cost rather than one step per composable triple
        into: list[list[int]] = [[] for _ in range(n_obj)]
        for m in range(n_mor):
            into[g.tgt[m]].append(m)
        for h in _right_generators(g, table):
            ks = g.mor_from(g.tgt[h])
            hks = [table[(h, k)] for k in ks]
            for f in into[g.src[h]]:
                fh = table[(f, h)]
                lefts = [table[(fh, k)] for k in ks]
                if lefts != [table[(f, hk)] for hk in hks]:
                    for k, left, hk in zip(ks, lefts, hks):
                        if left != table[(f, hk)]:
                            report(f"associativity fails on ({f},{h},{k})")

    try:
        scan()
    except _Enough:
        pass
    return errors
