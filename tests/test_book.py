import copy
import json
import math
from importlib.resources import files

import jsonschema
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
from billiard_books.book import (
    BookError,
    NotABoundary,
    book_from_dict,
    book_to_dict,
    load_book,
    save_book,
)
from billiard_books.dynamics import transition


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


@pytest.mark.parametrize(
    "off, valid", [(5e-13, False), (4e-13, True)], ids=["1e-12-apart", "8e-13-apart"]
)
def test_gluing_leaves_must_share_the_ellipse(family, off, valid):
    # both boundaries lie within PARAM_TOL of the gluing key; transition
    # needs them within PARAM_TOL of each other as well
    book = BilliardBook(
        family,
        (annulus(1, 0.0, 1.6 - off), disk(2, 1.6 + off)),
        (GluingPermutation(1.6, {1: 2, 2: 1}),),
    )
    if valid:
        assert validate_book(book) == []
        assert transition(book, 1, 1.6 - off)[2] == 2
    else:
        assert codes(validate_book(book)) == ["BadDomain"]
        with pytest.raises(NotABoundary):
            transition(book, 1, 1.6 - off)


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


def test_cycles_refuse_non_permutation(family):
    # the walk from 1 meets 2 a second time before it returns to 1
    gluing = GluingPermutation(2.0, {1: 2, 2: 2})
    with pytest.raises(BookError, match="not a permutation"):
        gluing.cycles()
    book = BilliardBook(family, (disk(1, 2.0), disk(2, 2.0)), (gluing,))
    with pytest.raises(BookError, match="not a permutation"):
        dumps_book(book)


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


def test_round_trip_keeps_fixed_points(family, tmp_path):
    # a gluing that fixes a leaf on its ellipse saves it as a 1-cycle
    book = BilliardBook(
        family,
        (annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)),
        (GluingPermutation(2.0, {1: 2, 2: 1, 3: 3}),),
    )
    assert validate_book(book) == []
    assert book_to_dict(book)["gluings"] == [{"ellipse": 2.0, "cycles": [[1, 2], [3]]}]
    path = str(tmp_path / "book.json")
    save_book(book, path)
    again = load_book(path)
    assert validate_book(again) == []
    assert again == book


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


# values put in place of each value of a valid document
_REPLACEMENTS = (True, False, None, 0, -1, 1.5, "x", [], [1], [True], {}, {"x": 1})
_DELETE = object()


def _containers(node, path=()):
    """The path of every object and array in a JSON document."""
    if isinstance(node, (dict, list)):
        yield path
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _containers(child, path + (key,))


def _mutants(doc):
    """Copies of ``doc`` that differ from it at one place: a value replaced
    or removed, or a field or array item added."""
    for path in list(_containers(doc)):
        node = doc
        for key in path:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        add = "extra" if isinstance(node, dict) else len(node)
        changes = [(key, value) for key in keys for value in (*_REPLACEMENTS, _DELETE)]
        changes += [(add, value) for value in _REPLACEMENTS]
        for key, value in changes:
            copied = copy.deepcopy(doc)
            target = copied
            for step in path:
                target = target[step]
            if value is _DELETE:
                del target[key]
            elif key == len(target):
                target.append(copy.deepcopy(value))
            else:
                target[key] = copy.deepcopy(value)
            yield copied


def test_input_refuses_what_the_schema_refuses(family):
    """jsonschema is the oracle: every one-place change of a valid book
    document that the shipped schema refuses must raise SchemaError."""
    schema = json.loads(files("billiard_books").joinpath("book.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    book = make_book(
        family,
        [annulus(1, 0.0, 2.0), disk(2, 2.0), disk(3, 2.0)],
        [(2.0, [[1, 2], [3]])],
    )
    doc = book_to_dict(book)
    assert validator.is_valid(doc)
    refused = [m for m in _mutants(doc) if not validator.is_valid(m)]
    assert len(refused) > 300
    accepted = []
    for mutant in refused:
        try:
            book_from_dict(mutant)
        except SchemaError:
            continue
        accepted.append(mutant)
    assert accepted == []


def test_validate_refuses_two_gluings_on_one_ellipse(family):
    book = BilliardBook(
        family,
        (disk(1, 2.0), disk(2, 2.0)),
        (GluingPermutation(2.0, {1: 2, 2: 1}), GluingPermutation(2.0 + 5e-13, {1: 2, 2: 1})),
    )
    [violation] = validate_book(book)
    assert violation.code == "BadDomain"
    assert violation.message.startswith("two gluings keyed by ellipse")


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
