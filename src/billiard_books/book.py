"""Billiard books: leaves (confocal disks and annuli) glued by permutations.

A book is a finite set of leaves, each a full elliptic disk or an annulus
between two confocal ellipses, plus one gluing permutation per shared
boundary ellipse.  Leaves are closed sets; the arrival-owner convention
(a point on a boundary belongs to the leaf it arrived from) keeps event
handling deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable

from .conics import ConfocalFamily

PARAM_TOL = 1e-12  # tolerance when matching leaf boundaries to gluing keys
TIE_TOL = 1e-9  # two boundary hits closer than this count as a tie


def _same(x: float, y: float) -> bool:
    """Whether two parameters name the same ellipse: the one place that
    compares with PARAM_TOL."""
    return abs(x - y) <= PARAM_TOL


class BookError(Exception):
    pass


class NotABoundary(BookError):
    pass


class SchemaError(BookError):
    """Malformed book/game JSON; message carries the offending path."""


class Rule(Enum):
    R1 = "R1"  # plain wall reflection, same leaf
    R2 = "R2"  # reflection onto the image leaf (same side)
    R3 = "R3"  # straight crossing onto the image leaf (opposite sides)


class EventSide(Enum):
    FROM_INSIDE = "FromInside"
    FROM_OUTSIDE = "FromOutside"
    PASS_THROUGH = "PassThrough"


@dataclass(frozen=True)
class Leaf:
    """One sheet of the book.

    ``outer`` is the parameter of the enclosing boundary ellipse (the leaf
    lies within it); ``inner`` is the hole's parameter for an annulus and
    None for a disk.  Smaller parameter = larger ellipse, so a well-formed
    annulus has outer < inner.
    """

    id: int
    outer: float
    inner: float | None = None

    @property
    def is_disk(self) -> bool:
        return self.inner is None

    def boundary_params(self) -> tuple[float, ...]:
        if self.inner is None:
            return (self.outer,)
        return (self.outer, self.inner)


def disk(leaf_id: int, lam: float) -> Leaf:
    return Leaf(leaf_id, lam)


def annulus(leaf_id: int, lam_outer: float, lam_inner: float) -> Leaf:
    return Leaf(leaf_id, lam_outer, lam_inner)


def boundary_side(leaf: Leaf, ellipse_param: float) -> EventSide:
    """The side of the ellipse a reflection from the leaf comes from there:
    FromInside on its outer ellipse, FromOutside on its hole."""
    if _same(leaf.outer, ellipse_param):
        return EventSide.FROM_INSIDE
    if leaf.inner is not None and _same(leaf.inner, ellipse_param):
        return EventSide.FROM_OUTSIDE
    raise NotABoundary(f"{ellipse_param} is not a boundary of leaf {leaf.id}")


def _walk_cycles(seeds: Iterable, successor: Callable, error: Exception) -> list[list[tuple]]:
    """The cycles of a permutation of states, each walked from the first
    seed on it, in seed order.

    ``successor(state)`` returns the next state and the extras met on the
    way to it; each cycle is a list of (state, extras) pairs.  A walk that
    meets a state walked before, by itself or an earlier cycle, before it
    comes back to its seed raises ``error``: the map is not a permutation.
    """
    walked: set = set()
    cycles: list[list[tuple]] = []
    for seed in seeds:
        if seed in walked:
            continue
        walk: list[tuple] = []
        cur = seed
        while not walk or cur != seed:
            if cur in walked:
                raise error
            walked.add(cur)
            nxt, extras = successor(cur)
            walk.append((cur, extras))
            cur = nxt
        cycles.append(walk)
    return cycles


@dataclass(frozen=True)
class GluingPermutation:
    """Permutation of the leaves sharing one boundary ellipse."""

    ellipse: float
    mapping: dict[int, int]

    @staticmethod
    def from_cycles(ellipse: float, cycles: Iterable[Iterable[int]]) -> "GluingPermutation":
        mapping: dict[int, int] = {}
        for cyc in cycles:
            cyc = list(cyc)
            mapping.update(zip(cyc, cyc[1:] + cyc[:1]))
        return GluingPermutation(ellipse, mapping)

    def image(self, leaf_id: int) -> int:
        return self.mapping.get(leaf_id, leaf_id)

    def cycles(self) -> list[list[int]]:
        """Disjoint cycles, each rotated to start at its least element and
        sorted by that element; fixed points omitted.  Raises BookError when
        the mapping is not a permutation."""
        walks = _walk_cycles(
            sorted(self.mapping),
            lambda leaf_id: (self.image(leaf_id), ()),
            BookError(f"gluing at {self.ellipse} is not a permutation"),
        )
        return [[leaf_id for leaf_id, _ in walk] for walk in walks if len(walk) > 1]

    def inverse(self) -> "GluingPermutation":
        return GluingPermutation(self.ellipse, {v: k for k, v in self.mapping.items()})


@dataclass(frozen=True)
class BilliardBook:
    """Leaves glued along ellipses; each table of it is a cached property."""

    family: ConfocalFamily
    leaves: tuple[Leaf, ...]
    gluings: tuple[GluingPermutation, ...] = ()

    @cached_property
    def _by_id(self) -> dict[int, Leaf]:
        return {lf.id: lf for lf in self.leaves}

    def leaf(self, leaf_id: int) -> Leaf:
        return self._by_id[leaf_id]

    def leaf_ids_on_ellipse(self, ellipse_param: float) -> list[int]:
        return [
            lf.id
            for lf in self.leaves
            if any(_same(p, ellipse_param) for p in lf.boundary_params())
        ]

    def gluing_for(self, ellipse_param: float) -> GluingPermutation | None:
        for g in self.gluings:
            if _same(g.ellipse, ellipse_param):
                return g
        return None

    @cached_property
    def boundary_values(self) -> tuple[float, ...]:
        """Distinct boundary parameters over all leaves, ascending."""
        vals: list[float] = []
        for p in dict.fromkeys(p for lf in self.leaves for p in lf.boundary_params()):
            if not any(_same(p, q) for q in vals):  # exact repeats are gone already
                vals.append(p)
        return tuple(sorted(vals))

    @cached_property
    def _walls(self) -> tuple[dict[int, tuple[tuple, ...]], list[tuple[tuple, ...]]]:
        """The book's one wall table, (leaf id -> its walls, next scans),
        built in one pass over the leaves.  A leaf has one wall (e, a - e,
        b - e, rule, event side, leaf after, next scan, ends) per boundary
        parameter e, with ``transition``'s answer there, each boundary
        value's gluing looked up once.  Next scan indexes the list of the
        walls of the leaf after that a chord from the wall can end on, in
        scan order (an index, so the table holds no reference cycle); ends
        marks a hole, a hit on which ends a scan.  A chord leaving a hole
        outward cannot meet it again, so only the outer wall is listed; one
        entering from the outer wall meets the hole first, if at all, so it
        is listed first, unless the two ellipses come within TIE_TOL (at the
        major axis), where the tie rule must see both.  Any other scan lists
        every wall of the leaf after, in its order, the hole last."""
        a, b = self.family.a, self.family.b
        gluing_at: dict[float, GluingPermutation | None] = {}
        holes: dict[int, float | None] = {}
        walls: dict[int, tuple[tuple, ...]] = {}
        entered: list[tuple[float, int]] = []  # (e, leaf after) at each next scan's index
        for lf in self.leaves:
            here = self._by_id[lf.id]  # transition's leaf: the last one with this id
            hole = holes[lf.id] = (
                lf.inner if lf.inner is not None and -math.inf < lf.outer < lf.inner < b else None)
            row = []
            for e in lf.boundary_params():
                if e in gluing_at:
                    gluing = gluing_at[e]
                else:
                    gluing = gluing_at[e] = self.gluing_for(e)
                rule, side, leaf_after = _rule(self, here, e, gluing)
                row.append((e, a - e, b - e, rule, side, leaf_after, len(entered), e == hole))
                entered.append((e, leaf_after))
            walls[lf.id] = tuple(row)
        scans = []
        for e, leaf_after in entered:
            walls_after = walls[leaf_after]
            hole = holes[leaf_after]
            if e == hole:
                walls_after = walls_after[:1]
            elif hole is not None and e == self._by_id[leaf_after].outer and (
                math.sqrt(a - e) - math.sqrt(a - hole) > TIE_TOL
            ):
                walls_after = walls_after[::-1]
            scans.append(walls_after)
        return walls, scans


def _rule(book: BilliardBook, leaf: Leaf, ellipse: float,
          gluing: GluingPermutation | None) -> tuple[Rule, EventSide, int]:
    """``transition`` at one of ``leaf``'s boundary ellipses, given the
    book's gluing there (None when there is none)."""
    side = boundary_side(leaf, ellipse)
    leaf_id = leaf.id
    image = leaf_id if gluing is None else gluing.image(leaf_id)
    if image == leaf_id:
        return Rule.R1, side, leaf_id
    if boundary_side(book.leaf(image), ellipse) is side:
        return Rule.R2, side, image
    return Rule.R3, EventSide.PASS_THROUGH, image


def transition(book: BilliardBook, leaf_id: int, ellipse: float) -> tuple[Rule, EventSide, int]:
    """The rule a particle on ``leaf_id`` meets at one of its boundary
    ellipses: (rule, event side, leaf after).

    R1 when the ellipse is unglued there or the gluing fixes the leaf, R2
    when the image leaf sits on the same side of the ellipse, R3 (a
    pass-through) when it sits on the opposite side.  It is the only place
    a gluing decides a rule (through ``_rule``, which the wall table shares),
    and it keeps no state: fields 4-6 of each wall in ``BilliardBook._walls``
    hold its answer at that leaf boundary.  A missing image leaf raises
    KeyError, an ellipse off the leaf or its image NotABoundary.
    """
    return _rule(book, book.leaf(leaf_id), ellipse, book.gluing_for(ellipse))


def _known_leaf(book: BilliardBook, leaf_id: int) -> Leaf:
    """The book's leaf ``leaf_id``; BookError when it has none."""
    leaf = book._by_id.get(leaf_id)
    if leaf is None:
        raise BookError(f"the book has no leaf {leaf_id}")
    return leaf


def make_book(
    family: ConfocalFamily,
    leaves: Iterable[Leaf],
    gluings: Iterable[tuple[float, Iterable[Iterable[int]]]] = (),
) -> BilliardBook:
    """Convenience constructor taking gluings in cycle notation."""
    return BilliardBook(
        family,
        tuple(leaves),
        tuple(GluingPermutation.from_cycles(e, cycles) for e, cycles in gluings),
    )


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def validate_book(book: BilliardBook) -> list[Violation]:
    """All structural violations; an empty list means the book is valid."""
    out: list[Violation] = []
    if not book.leaves:  # the JSON form needs a leaf
        out.append(Violation("Empty", "book has no leaves"))
    b = book.family.b

    seen_ids: set[int] = set()
    for lf in book.leaves:
        if lf.id in seen_ids:
            out.append(Violation("DuplicateId", f"leaf id {lf.id} repeated"))
        seen_ids.add(lf.id)
        if not all(math.isfinite(p) for p in lf.boundary_params()):
            out.append(Violation("NotFinite", f"leaf {lf.id}: non-finite {lf.boundary_params()}"))
        elif lf.is_disk:
            if not lf.outer < b:
                msg = f"leaf {lf.id}: disk parameter {lf.outer} >= b={b}"
                out.append(Violation("BadLeafOrder", msg))
        elif not (lf.outer < lf.inner < b):
            msg = f"leaf {lf.id}: annulus needs outer < inner < b, got ({lf.outer}, {lf.inner})"
            out.append(Violation("BadLeafOrder", msg))

    seen_ellipses: list[float] = []
    for g in book.gluings:
        if any(_same(g.ellipse, e) for e in seen_ellipses):
            out.append(Violation("BadDomain", f"two gluings keyed by ellipse {g.ellipse}"))
        seen_ellipses.append(g.ellipse)

        near = [(lf.id, p) for lf in book.leaves for p in lf.boundary_params()
                if _same(p, g.ellipse)]
        expected = {lid for lid, _ in near}
        domain = set(g.mapping)
        if domain != expected:
            missing = sorted(expected - domain)
            extra = sorted(domain - expected)
            out.append(
                Violation(
                    "BadDomain",
                    f"gluing at {g.ellipse}: domain mismatch (missing {missing}, extra {extra})",
                )
            )
        # transition matches each leaf's own parameter on its image leaf
        ps = [p for _, p in near]
        if ps and not _same(min(ps), max(ps)):
            msg = f"gluing at {g.ellipse}: leaf boundaries {min(ps)} and {max(ps)} differ"
            out.append(Violation("BadDomain", f"{msg} by more than {PARAM_TOL}"))
        if sorted(g.mapping.values()) != sorted(g.mapping):
            out.append(Violation("NotBijective", f"gluing at {g.ellipse} is not a permutation"))
    return out


def invert_gluings(book: BilliardBook) -> BilliardBook:
    """Same leaves, every gluing permutation inverted.  The inverse of a book
    compiled from a game realizes the reversed game."""
    return BilliardBook(book.family, book.leaves, tuple(g.inverse() for g in book.gluings))


# ---------------------------------------------------------------------------
# JSON round trip (schema shipped as book.schema.json)
# ---------------------------------------------------------------------------

def book_to_dict(book: BilliardBook) -> dict:
    leaves = []
    for lf in sorted(book.leaves, key=lambda lf: lf.id):
        if lf.is_disk:
            leaves.append({"id": lf.id, "disk": lf.outer})
        else:
            leaves.append({"id": lf.id, "annulus": [lf.outer, lf.inner]})
    gluings = []
    for g in sorted(book.gluings, key=lambda g: g.ellipse):
        # a fixed point is written as a 1-cycle, or the loaded gluing would miss it
        fixed = [[k] for k, v in g.mapping.items() if k == v]
        gluings.append({"ellipse": g.ellipse, "cycles": sorted(g.cycles() + fixed)})
    return {
        "family": {"a": book.family.a, "b": book.family.b},
        "leaves": leaves,
        "gluings": gluings,
    }


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


_NUMBER = (int, float)


def _is(value: object, kind: type | tuple[type, ...]) -> bool:
    """``isinstance`` for a JSON value: a bool is neither a number nor an integer."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _int(value: object, path: str) -> int:
    """A JSON integer as JSON Schema counts one: an int or an integral float."""
    ok = _is(value, int) or _is(value, float) and value.is_integer()
    _expect(ok, path, "expected an integer")
    return int(value)


def _object(data: object, path: str, fields: tuple[str, ...]) -> dict:
    """``data`` as an object with no field outside ``fields``."""
    _expect(isinstance(data, dict), path, "expected an object")
    assert isinstance(data, dict)
    unknown = set(data) - set(fields)
    _expect(not unknown, path, f"unknown fields {sorted(unknown)}")
    return data


def _family(data: dict) -> ConfocalFamily:
    """The ``family`` object of a book or game document."""
    fam = _object(data.get("family"), "$.family", ("a", "b"))
    for key in ("a", "b"):
        _expect(_is(fam.get(key), _NUMBER), f"$.family.{key}", "expected a number")
    try:
        return ConfocalFamily(float(fam["a"]), float(fam["b"]))
    except ValueError as err:
        raise SchemaError(f"$.family: {err}") from err


def book_from_dict(data: object) -> BilliardBook:
    data = _object(data, "$", ("family", "leaves", "gluings"))
    family = _family(data)

    raw_leaves = data.get("leaves")
    _expect(isinstance(raw_leaves, list) and raw_leaves, "$.leaves", "expected a non-empty array")
    leaves: list[Leaf] = []
    for i, item in enumerate(raw_leaves):
        path = f"$.leaves[{i}]"
        item = _object(item, path, ("id", "disk", "annulus"))
        leaf_id = _int(item.get("id"), f"{path}.id")
        kinds = [k for k in ("disk", "annulus") if k in item]
        _expect(len(kinds) == 1, path, "expected exactly one of 'disk'/'annulus'")
        if kinds[0] == "disk":
            _expect(_is(item["disk"], _NUMBER), f"{path}.disk", "expected a number")
            leaves.append(Leaf(leaf_id, float(item["disk"])))
        else:
            arr = item["annulus"]
            ok = isinstance(arr, list) and len(arr) == 2 and all(_is(x, _NUMBER) for x in arr)
            _expect(ok, f"{path}.annulus", "expected [outer, inner] numbers")
            leaves.append(Leaf(leaf_id, float(arr[0]), float(arr[1])))

    raw_gluings = data.get("gluings", [])
    _expect(isinstance(raw_gluings, list), "$.gluings", "expected an array")
    gluings: list[GluingPermutation] = []
    for i, item in enumerate(raw_gluings):
        path = f"$.gluings[{i}]"
        item = _object(item, path, ("ellipse", "cycles"))
        _expect(_is(item.get("ellipse"), _NUMBER), f"{path}.ellipse", "expected a number")
        cycles = item.get("cycles")
        _expect(isinstance(cycles, list), f"{path}.cycles", "expected an array of arrays")
        for j, cyc in enumerate(cycles):
            _expect(isinstance(cyc, list), f"{path}.cycles[{j}]", "expected an array of leaf ids")
        cycles = [[_int(x, f"{path}.cycles[{j}][{k}]") for k, x in enumerate(cyc)]
                  for j, cyc in enumerate(cycles)]
        flat = [x for cyc in cycles for x in cyc]
        _expect(len(flat) == len(set(flat)), f"{path}.cycles", "cycles overlap")
        gluings.append(GluingPermutation.from_cycles(float(item["ellipse"]), cycles))

    return BilliardBook(family, tuple(leaves), tuple(gluings))


def dumps_book(book: BilliardBook) -> str:
    return json.dumps(book_to_dict(book), indent=2, sort_keys=True)


def loads_book(text: str) -> BilliardBook:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"invalid JSON: {err}") from err
    return book_from_dict(data)


def save_book(book: BilliardBook, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_book(book) + "\n")


def load_book(path: str) -> BilliardBook:
    with open(path, encoding="utf-8") as fh:
        return loads_book(fh.read())
