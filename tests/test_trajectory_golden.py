"""Golden trajectories: the sha256 of ``trajectory_csv(simulate(...))`` for
two seeded random starts of 400 events on each catalog book and on two
compiled books.

The hashes were recorded by running this file's own code on the library as
it was before the event records became named tuples, ``ray_intersections``
computed its coefficients inline and ``trajectory_csv`` stopped using the
``csv`` module.  They still hold now that ``dynamics.step`` is one inlined
kernel, which reads each leaf's walls from a per-book table and solves,
re-projects and reflects without a call per wall.  The CSV holds every event
field (floats as ``repr``), so a change that alters any hash changes a
trajectory or its text, not only how it is computed.
"""

import hashlib

import pytest

from billiard_books import OrderedGame, compile_simple, simulate, trajectory_csv
from billiard_books.catalog import CATALOG, FIXTURE_FAMILY

from conftest import random_state, rng_for

SEEDS = (0, 1)
EVENTS = 400

CATALOG_HASHES = {
    "annulus_two_disks": (
        "29d6dda1f6ece0bd27b038087badb44b6cb5b05b3dc36bfec470e0d6d8462f74",
        "dda2e8b87e0c5f14a9ea388665899ed1f8984832b33c7ebb7cbb4d2ca67db82c",
    ),
    "chain_five": (
        "d03a7ac2603506a7de4df2871ef9146ecc40669595347217d46b588795ab78a7",
        "d2e97b0c8a9618d19a14e3fb54c3d4e0af5bb5e55eae4677bfcf3960eec01c19",
    ),
    "chain_five_inverted": (
        "51e6a6e9fa999fa9aaad4bde0d5e34c0561e5f7f9e2d5038e10e5fe154c777d8",
        "0ecb593b3ca06c8550573dbfd453b57cf63d72cd12ef941b97d2fa4fd94c2e7c",
    ),
    "chain_six": (
        "f178ddd4608fba5d98d97c8a00eed285d13511933cbbefff0f32415696983161",
        "b5fe922e8c8912e007e26a3faeca9d86ade91cc95a998e0b41d04a999a166e29",
    ),
    "four_sheets": (
        "698e5b999b4570efc3a7bab518b2d830bafb910763d8b378672f49d146123d97",
        "3605bcc97a13d6301660fda3e56326de5d11621e6666abcbd1e05b3cdfc87079",
    ),
    "four_sheets_inverted": (
        "7b8cefd789033fc05a308e9447c26beeb05c61bab45f95b5898f41c3e254061a",
        "ba73399621296e7e7f876c36b6ffd3b45faeafebddaa5b7739a617e73819540b",
    ),
    "three_sheets": (
        "d7a571651f6aa55eb47460fc6708d5176fd29f8d0446517b1e61fdb7e801960c",
        "c56ac36cc17fd279aa601445de5ab21e90552d9f81eae60a3aa4705f19c81cdd",
    ),
    "three_sheets_inverted": (
        "72caec772df4595c7b928703ed46ded6f265fa959be58be4d9703d183e52b96d",
        "3c29d3c50deff4572c3987ff2cb8bfbbe9d274b9fa92191ddf362a1d7d6f956d",
    ),
    "two_annuli": (
        "a6fed8b711a126e71bacf7b2fafc29b304f2784ef19686071def62693b2fe484",
        "ce685483318a9538f13fd22c8eeda6721237d0cdc885d16216763f476b60e5ed",
    ),
    "two_annuli_disk_pair": (
        "5d2dbd5f1b239be2c345f8c22a6f49446104dac0a41c92156e911171cf333a3c",
        "b1d1c26e482a384cf1c23019abeb4c3233c6b431a6c13b8b7e4b21802dffb594",
    ),
    "two_annuli_two_disks": (
        "d7dd5ab4a172fba67e9d09045ca69fe85cb7e3d21f455c497feca6ad2a3c8544",
        "b453c1d9661327b664bfaf975a5490bb8b071e24a19fcb4412cff4cfef34facc",
    ),
}

COMPILED_HASHES = {
    ((1.6, 2.4, 3.2), (1, 1, 1)): (
        "9a1d161d881d44857a9e051d2abb10363961fb889fd4a5c53cdd94d7ea6130c9",
        "f93a212c4215c6b709343364d7e5054baa629c524fa65d2b6699ab85677eeb14",
    ),
    ((2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1)): (
        "c4bc93e4834c0d22c84e5cfe70829b7b9a219893438402467ca3ad9191b482c0",
        "87ffc60f2f53d1de42e5d741ba9815c9d7b835d1166c4a35fe0e1dcb3456973c",
    ),
}


def _csv_hashes(book) -> tuple[str, ...]:
    return tuple(
        hashlib.sha256(
            trajectory_csv(simulate(book, random_state(book, rng_for(seed)), EVENTS)).encode()
        ).hexdigest()
        for seed in SEEDS
    )


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_trajectories_unchanged(name):
    assert _csv_hashes(CATALOG[name]()) == CATALOG_HASHES[name]


@pytest.mark.parametrize("game", sorted(COMPILED_HASHES))
def test_compiled_trajectories_unchanged(game):
    book = compile_simple(OrderedGame(FIXTURE_FAMILY, *game)).book
    assert _csv_hashes(book) == COMPILED_HASHES[game]
