"""A gallery of small billiard books over the test family a=9, b=4.

All books use nested ellipses E1 = C_0 (3 x 2), E2 = C_2 (sqrt7 x sqrt2)
and E3 = C_3.5 (sqrt5.5 x sqrt0.5).  Names describe the leaf structure;
``*_inverted`` variants carry the inverse gluing permutations and realize
the reversed reflection games.
"""

from __future__ import annotations

from .book import BilliardBook, annulus, disk, invert_gluings, make_book
from .conics import ConfocalFamily

FIXTURE_FAMILY = ConfocalFamily(9.0, 4.0)
BETA_1 = 0.0
BETA_2 = 2.0
BETA_3 = 3.5


def annulus_two_disks() -> BilliardBook:
    """Annulus plus two disk sheets glued along the inner ellipse in a
    3-cycle; alternates reflections between the two ellipses."""
    return make_book(
        FIXTURE_FAMILY,
        [annulus(1, BETA_1, BETA_2), disk(2, BETA_2), disk(3, BETA_2)],
        [(BETA_2, [[1, 2, 3]])],
    )


def two_annuli_two_disks() -> BilliardBook:
    """Two annulus copies and two disk sheets; besides the alternating game
    it also carries the plain annulus billiard."""
    return make_book(
        FIXTURE_FAMILY,
        [annulus(1, BETA_1, BETA_2), disk(2, BETA_2), disk(3, BETA_2), annulus(4, BETA_1, BETA_2)],
        [(BETA_1, [[1, 4]]), (BETA_2, [[1, 2, 3, 4]])],
    )


def chain_five() -> BilliardBook:
    """Five leaves chaining three nested ellipses, all reflections inside."""
    return make_book(
        FIXTURE_FAMILY,
        [
            annulus(1, BETA_1, BETA_2),
            disk(2, BETA_2),
            annulus(3, BETA_2, BETA_3),
            disk(4, BETA_3),
            disk(5, BETA_3),
        ],
        [(BETA_2, [[1, 2, 3]]), (BETA_3, [[3, 4, 5]])],
    )


def chain_five_inverted() -> BilliardBook:
    return invert_gluings(chain_five())


def chain_six() -> BilliardBook:
    """chain_five plus a wide annulus short-circuiting the outer ellipse."""
    return make_book(
        FIXTURE_FAMILY,
        [
            annulus(1, BETA_1, BETA_2),
            disk(2, BETA_2),
            annulus(3, BETA_2, BETA_3),
            disk(4, BETA_3),
            disk(5, BETA_3),
            annulus(6, BETA_1, BETA_3),
        ],
        [(BETA_1, [[1, 6]]), (BETA_2, [[1, 2, 3]]), (BETA_3, [[3, 4, 5, 6]])],
    )


def three_sheets() -> BilliardBook:
    """Annulus, disk and inner annulus glued along the middle ellipse; the
    innermost ellipse is a plain reflecting wall hit from outside."""
    return make_book(
        FIXTURE_FAMILY,
        [annulus(1, BETA_1, BETA_2), disk(2, BETA_2), annulus(3, BETA_2, BETA_3)],
        [(BETA_2, [[1, 2, 3]])],
    )


def three_sheets_inverted() -> BilliardBook:
    return invert_gluings(three_sheets())


def four_sheets() -> BilliardBook:
    """three_sheets plus a wide annulus, glued along all three ellipses."""
    return make_book(
        FIXTURE_FAMILY,
        [
            annulus(1, BETA_1, BETA_2),
            disk(2, BETA_2),
            annulus(3, BETA_2, BETA_3),
            annulus(4, BETA_1, BETA_3),
        ],
        [(BETA_1, [[1, 4]]), (BETA_2, [[1, 2, 3]]), (BETA_3, [[3, 4]])],
    )


def four_sheets_inverted() -> BilliardBook:
    return invert_gluings(four_sheets())


def two_annuli_disk_pair() -> BilliardBook:
    """Two wide annuli joined along the outer ellipse, with a disk pair on
    the innermost one; realizes a length-4 game with one outside hit."""
    return make_book(
        FIXTURE_FAMILY,
        [
            annulus(1, BETA_1, BETA_2),
            annulus(2, BETA_1, BETA_3),
            disk(3, BETA_3),
            disk(4, BETA_3),
        ],
        [(BETA_1, [[1, 2]]), (BETA_3, [[2, 3, 4]])],
    )


def two_annuli() -> BilliardBook:
    """Two annuli of different depth joined along the outer ellipse; a
    length-4 game with two outside hits, and a time-reversible book."""
    return make_book(
        FIXTURE_FAMILY,
        [annulus(1, BETA_1, BETA_2), annulus(2, BETA_1, BETA_3)],
        [(BETA_1, [[1, 2]])],
    )


CATALOG = {
    "annulus_two_disks": annulus_two_disks,
    "two_annuli_two_disks": two_annuli_two_disks,
    "chain_five": chain_five,
    "chain_five_inverted": chain_five_inverted,
    "chain_six": chain_six,
    "three_sheets": three_sheets,
    "three_sheets_inverted": three_sheets_inverted,
    "four_sheets": four_sheets,
    "four_sheets_inverted": four_sheets_inverted,
    "two_annuli_disk_pair": two_annuli_disk_pair,
    "two_annuli": two_annuli,
}
