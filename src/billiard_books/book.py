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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .conics import ConfocalFamily

PARAM_TOL = 1e-12  # tolerance when matching leaf boundaries to gluing keys


class BookError(Exception):
    pass


class NotABoundary(BookError):
    pass


class SchemaError(BookError):
    """Malformed book/game JSON; message carries the offending path."""


class Side(Enum):
    WITHIN = "Within"
    OUTSIDE = "Outside"


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


def boundary_side(leaf: Leaf, ellipse_param: float, tol: float = PARAM_TOL) -> Side:
    """Which side of the ellipse the leaf occupies at that boundary."""
    if abs(leaf.outer - ellipse_param) <= tol:
        return Side.WITHIN
    if leaf.inner is not None and abs(leaf.inner - ellipse_param) <= tol:
        return Side.OUTSIDE
    raise NotABoundary(f"{ellipse_param} is not a boundary of leaf {leaf.id}")


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
            for i, leaf_id in enumerate(cyc):
                mapping[leaf_id] = cyc[(i + 1) % len(cyc)]
        return GluingPermutation(ellipse, mapping)

    def image(self, leaf_id: int) -> int:
        return self.mapping.get(leaf_id, leaf_id)

    def cycles(self, include_fixed: bool = False) -> list[list[int]]:
        """Disjoint cycles, each rotated to start at its least element and
        sorted by that element; fixed points omitted unless requested."""
        seen: set[int] = set()
        out: list[list[int]] = []
        for start in sorted(self.mapping):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            cur = self.mapping[start]
            while cur != start:
                cyc.append(cur)
                seen.add(cur)
                cur = self.mapping[cur]
            if len(cyc) > 1 or include_fixed:
                out.append(cyc)
        return out

    def inverse(self) -> "GluingPermutation":
        return GluingPermutation(self.ellipse, {v: k for k, v in self.mapping.items()})


@dataclass(frozen=True)
class BilliardBook:
    family: ConfocalFamily
    leaves: tuple[Leaf, ...]
    gluings: tuple[GluingPermutation, ...] = ()
    _by_id: dict[int, Leaf] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_id", {lf.id: lf for lf in self.leaves})

    def leaf(self, leaf_id: int) -> Leaf:
        return self._by_id[leaf_id]

    def leaf_ids_on_ellipse(self, ellipse_param: float, tol: float = PARAM_TOL) -> list[int]:
        return [
            lf.id
            for lf in self.leaves
            if any(abs(p - ellipse_param) <= tol for p in lf.boundary_params())
        ]

    def gluing_for(self, ellipse_param: float, tol: float = PARAM_TOL) -> GluingPermutation | None:
        for g in self.gluings:
            if abs(g.ellipse - ellipse_param) <= tol:
                return g
        return None

    def boundary_values(self) -> list[float]:
        """Distinct boundary parameters over all leaves, ascending."""
        vals: list[float] = []
        for lf in self.leaves:
            for p in lf.boundary_params():
                if all(abs(p - q) > PARAM_TOL for q in vals):
                    vals.append(p)
        return sorted(vals)


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
                out.append(
                    Violation("BadLeafOrder", f"leaf {lf.id}: disk parameter {lf.outer} >= b={b}")
                )
        elif not (lf.outer < lf.inner < b):
            out.append(
                Violation(
                    "BadLeafOrder",
                    f"leaf {lf.id}: annulus needs outer < inner < b, got ({lf.outer}, {lf.inner})",
                )
            )

    seen_ellipses: list[float] = []
    for g in book.gluings:
        if any(abs(g.ellipse - e) <= PARAM_TOL for e in seen_ellipses):
            out.append(Violation("BadDomain", f"two gluings keyed by ellipse {g.ellipse}"))
        seen_ellipses.append(g.ellipse)

        expected = set(book.leaf_ids_on_ellipse(g.ellipse))
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
        if sorted(g.mapping.values()) != sorted(g.mapping):
            out.append(Violation("NotBijective", f"gluing at {g.ellipse} is not a permutation"))
    return out


def invert_gluings(book: BilliardBook) -> BilliardBook:
    """Same leaves, every gluing permutation inverted.  The inverse of a book
    compiled from a game realizes the reversed game."""
    return BilliardBook(book.family, book.leaves, tuple(g.inverse() for g in book.gluings))


def glued_return_leaf(
    book: BilliardBook, ellipse_param: float, outer_leaf_id: int
) -> int | None:
    """Follow the gluing chain entered from ``outer_leaf_id`` across the
    ellipse until it re-emerges on a leaf outside the ellipse.

    Returns the exit leaf id, or None when the outer leaf is not glued there
    (no inner sheet to traverse).  This is the combinatorial core of the
    grazing-limit continuity test.
    """
    g = book.gluing_for(ellipse_param)
    if g is None or outer_leaf_id not in g.mapping:
        return None
    cur = g.image(outer_leaf_id)
    if cur == outer_leaf_id:
        return None
    for _ in range(len(g.mapping) + 1):
        if boundary_side(book.leaf(cur), ellipse_param) is Side.OUTSIDE:
            return cur
        cur = g.image(cur)
    raise BookError(f"gluing chain at {ellipse_param} does not exit")  # pragma: no cover


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
    gluings = [
        {"ellipse": g.ellipse, "cycles": g.cycles()}
        for g in sorted(book.gluings, key=lambda g: g.ellipse)
    ]
    return {
        "family": {"a": book.family.a, "b": book.family.b},
        "leaves": leaves,
        "gluings": gluings,
    }


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def book_from_dict(data: object) -> BilliardBook:
    _expect(isinstance(data, dict), "$", "expected an object")
    assert isinstance(data, dict)
    unknown = set(data) - {"family", "leaves", "gluings"}
    _expect(not unknown, "$", f"unknown fields {sorted(unknown)}")

    fam = data.get("family")
    _expect(isinstance(fam, dict), "$.family", "expected an object")
    for key in ("a", "b"):
        _expect(
            isinstance(fam.get(key), (int, float)), f"$.family.{key}", "expected a number"
        )
    try:
        family = ConfocalFamily(float(fam["a"]), float(fam["b"]))
    except ValueError as err:
        raise SchemaError(f"$.family: {err}") from err

    raw_leaves = data.get("leaves")
    _expect(isinstance(raw_leaves, list) and raw_leaves, "$.leaves", "expected a non-empty array")
    leaves: list[Leaf] = []
    for i, item in enumerate(raw_leaves):
        path = f"$.leaves[{i}]"
        _expect(isinstance(item, dict), path, "expected an object")
        _expect(isinstance(item.get("id"), int), f"{path}.id", "expected an integer")
        kinds = [k for k in ("disk", "annulus") if k in item]
        _expect(len(kinds) == 1, path, "expected exactly one of 'disk'/'annulus'")
        unknown = set(item) - {"id", "disk", "annulus"}
        _expect(not unknown, path, f"unknown fields {sorted(unknown)}")
        if kinds[0] == "disk":
            _expect(isinstance(item["disk"], (int, float)), f"{path}.disk", "expected a number")
            leaves.append(Leaf(item["id"], float(item["disk"])))
        else:
            arr = item["annulus"]
            _expect(
                isinstance(arr, list)
                and len(arr) == 2
                and all(isinstance(x, (int, float)) for x in arr),
                f"{path}.annulus",
                "expected [outer, inner] numbers",
            )
            leaves.append(Leaf(item["id"], float(arr[0]), float(arr[1])))

    raw_gluings = data.get("gluings", [])
    _expect(isinstance(raw_gluings, list), "$.gluings", "expected an array")
    gluings: list[GluingPermutation] = []
    for i, item in enumerate(raw_gluings):
        path = f"$.gluings[{i}]"
        _expect(isinstance(item, dict), path, "expected an object")
        _expect(
            isinstance(item.get("ellipse"), (int, float)), f"{path}.ellipse", "expected a number"
        )
        cycles = item.get("cycles")
        _expect(isinstance(cycles, list), f"{path}.cycles", "expected an array of arrays")
        for j, cyc in enumerate(cycles):
            _expect(
                isinstance(cyc, list) and all(isinstance(x, int) for x in cyc),
                f"{path}.cycles[{j}]",
                "expected an array of leaf ids",
            )
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
