import math

import pytest

from billiard_books import (
    BilliardBook,
    GluingPermutation,
    Leaf,
    SchemaError,
    Side,
    annulus,
    boundary_side,
    disk,
    dumps_book,
    invert_gluings,
    loads_book,
    make_book,
    validate_book,
)
from billiard_books.book import NotABoundary, book_from_dict, book_to_dict


def codes(violations):
    return sorted(v.code for v in violations)


def test_catalog_books_valid(books):
    for name, book in books.items():
        assert validate_book(book) == [], name


def test_missing_domain_leaf(family):
    # the third disk shares the boundary but is absent from the gluing
    book = BilliardBook(
        family,
        (annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)),
        (GluingPermutation.from_cycles(2.0, [[1, 2]]),),
    )
    assert "BadDomain" in codes(validate_book(book))


def test_bad_leaf_order(family):
    book = BilliardBook(family, (Leaf(1, 2.0, 0.0),))
    assert codes(validate_book(book)) == ["BadLeafOrder"]
    book = BilliardBook(family, (disk(1, 5.0),))
    assert codes(validate_book(book)) == ["BadLeafOrder"]


def test_non_finite_leaf(family):
    book = BilliardBook(family, (disk(1, -math.inf), annulus(2, -math.inf, 2.0)))
    assert codes(validate_book(book)) == ["NotFinite", "NotFinite"]
    # -Infinity is valid JSON to Python's json module
    text = '{"family": {"a": 9.0, "b": 4.0}, "leaves": [{"id": 1, "disk": -Infinity}]}'
    assert codes(validate_book(loads_book(text))) == ["NotFinite"]


def test_duplicate_id_and_nonbijective(family):
    book = BilliardBook(family, (disk(1, 2.0), disk(1, 2.0)))
    assert "DuplicateId" in codes(validate_book(book))
    book = BilliardBook(
        family,
        (disk(1, 2.0), disk(2, 2.0)),
        (GluingPermutation(2.0, {1: 2, 2: 2}),),
    )
    assert "NotBijective" in codes(validate_book(book))


def test_boundary_side():
    assert boundary_side(disk(1, 2.0), 2.0) is Side.WITHIN
    lf = annulus(1, 0.0, 2.0)
    assert boundary_side(lf, 2.0) is Side.OUTSIDE
    assert boundary_side(lf, 0.0) is Side.WITHIN
    with pytest.raises(NotABoundary):
        boundary_side(lf, 1.0)


def test_boundary_side_never_within_on_inner(books):
    for book in books.values():
        for lf in book.leaves:
            if lf.inner is not None:
                assert boundary_side(lf, lf.inner) is Side.OUTSIDE


def test_round_trip_all_catalog(books):
    for name, book in books.items():
        again = loads_book(dumps_book(book))
        assert again == book, name


def test_round_trip_preserves_cycles(books):
    data = book_to_dict(books["chain_five"])
    assert data["gluings"] == [
        {"ellipse": 2.0, "cycles": [[1, 2, 3]]},
        {"ellipse": 3.5, "cycles": [[3, 4, 5]]},
    ]


def test_schema_rejects_unknown_leaf_kind():
    bad = {
        "family": {"a": 9.0, "b": 4.0},
        "leaves": [{"id": 1, "square": 2.0}],
        "gluings": [],
    }
    with pytest.raises(SchemaError, match=r"\$\.leaves\[0\]"):
        book_from_dict(bad)


def test_schema_rejects_overlapping_cycles():
    bad = {
        "family": {"a": 9.0, "b": 4.0},
        "leaves": [{"id": 1, "disk": 2.0}, {"id": 2, "disk": 2.0}],
        "gluings": [{"ellipse": 2.0, "cycles": [[1, 2], [2, 1]]}],
    }
    with pytest.raises(SchemaError, match="overlap"):
        book_from_dict(bad)


def test_schema_rejects_bad_family():
    with pytest.raises(SchemaError, match=r"\$\.family"):
        book_from_dict({"family": {"a": 1.0, "b": 4.0}, "leaves": [{"id": 1, "disk": 0.5}]})
    with pytest.raises(SchemaError, match=r"\$\.family"):
        loads_book('{"family": {"a": Infinity, "b": 4.0}, "leaves": [{"id": 1, "disk": 0.5}]}')
    with pytest.raises(SchemaError):
        loads_book("not json at all {")


def test_invert_gluings(family):
    book = make_book(
        family,
        [annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0), annulus(4, 0.0, 2.0)],
        [(0.0, [[1, 4]]), (2.0, [[1, 2, 3, 4]])],
    )
    inv = invert_gluings(book)
    assert inv.gluing_for(2.0).cycles() == [[1, 4, 3, 2]]
    assert inv.gluing_for(0.0).cycles() == [[1, 4]]  # involutions are fixed
    assert invert_gluings(inv) == book


def test_three_cycle_inverse(family):
    g = GluingPermutation.from_cycles(2.0, [[1, 2, 3]])
    assert g.inverse().cycles() == [[1, 3, 2]]
