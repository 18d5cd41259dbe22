"""Golden Fomenko graphs: the sha256 of ``to_dot(build_fomenko_graph(book))``
for the catalog books and for compiled books of random valid games.

The hashes were recorded by running this file's own code on the library as
it was before the atom assembly in ``topology.build_fomenko_graph`` was
rewritten around one atom table; a change that alters any of them changes
the graph, not only how it is built.

ROADMAP item 1 (atom assembly at grazing levels) will change some rows on
purpose: compiled books whose graphs have ``Unknown`` atoms at a glued
ellipse.  That change must list each row it alters, with the reason.
"""

import hashlib

import numpy as np
import pytest

from billiard_books import build_fomenko_graph, compile_simple, to_dot
from billiard_books.catalog import CATALOG, FIXTURE_FAMILY

from test_games import random_valid_game

CATALOG_HASHES = {
    "annulus_two_disks": "fa20160e21f3b4d6f768ae8c813cc3519884542c6c2ee1a42b5afda348735544",
    "chain_five": "3b405369beda8e6c8a289995d794b26599439a59faec35febd6213b18c8ba724",
    "chain_five_inverted": "3b405369beda8e6c8a289995d794b26599439a59faec35febd6213b18c8ba724",
    "chain_six": "fcdc272f7c986b366ad271502c1c69e82cede0a91ec81b624e9f1aec47ff57a0",
    "four_sheets": "fcdc272f7c986b366ad271502c1c69e82cede0a91ec81b624e9f1aec47ff57a0",
    "four_sheets_inverted": "fcdc272f7c986b366ad271502c1c69e82cede0a91ec81b624e9f1aec47ff57a0",
    "three_sheets": "3b405369beda8e6c8a289995d794b26599439a59faec35febd6213b18c8ba724",
    "three_sheets_inverted": "3b405369beda8e6c8a289995d794b26599439a59faec35febd6213b18c8ba724",
    "two_annuli": "fa20160e21f3b4d6f768ae8c813cc3519884542c6c2ee1a42b5afda348735544",
    "two_annuli_disk_pair": "fa20160e21f3b4d6f768ae8c813cc3519884542c6c2ee1a42b5afda348735544",
    "two_annuli_two_disks": "db29d34a9a5ee1024c74f81c86840582a244dfde62280d5badb01aac0c6a07eb",
}

COMPILED_HASHES = [
    ((3.2, 1.6), (-1, 1),
     'e3ffcc158d56dbe51b142dd70363c01564306498dc8c0ec819a3ed15090b9f42'),
    ((0.8, 0.0), (-1, 1),
     '9ccee195e0fd84ff2e531120ad11beaa62fdc04279a214eb492bec503ed6f7dc'),
    ((0.0, 3.2), (1, 1),
     '79808285c5ecd57af32ed52508932b1af56f42cbcefe391aeab46f966266c293'),
    ((1.6, 2.4, 3.2), (1, 1, 1),
     '28a58aa9769b4a36bf876b84e75e59a76a00c07662a643871050ac156120e9a4'),
    ((2.4, 1.6, 3.2), (1, 1, 1),
     '28a58aa9769b4a36bf876b84e75e59a76a00c07662a643871050ac156120e9a4'),
    ((2.4, 0.0, 1.6), (-1, 1, 1),
     'cd7199520229a79a62d34b81d98e2bc078fd11091128701ae268870a46dda290'),
    ((1.6, 0.0, 1.6, 0.8), (-1, 1, -1, 1),
     '6963906d8e809cbb54840bded7e7404a60f138b63863ea88ef8a54476dc48846'),
    ((2.4, 0.8, 2.4, 3.2), (1, 1, 1, 1),
     '93118120fcdfe4a741416916c35de95bdedaa8c5c81b667db11c289def73408e'),
    ((2.4, 3.2, 1.6, 3.2), (1, -1, 1, -1),
     'e431e08aa6b2e085c1849eba4027d8c14dbfe8f1471fdaa7a507cd3cad5996ac'),
    ((2.4, 1.6, 2.4, 3.2, 1.6), (-1, 1, 1, -1, 1),
     '4d33cba032e2132c4308926f5f4af025b6523ed9771591c4d6c7dc966098b6a9'),
    ((2.4, 3.2, 0.0, 3.2, 1.6), (1, 1, 1, -1, 1),
     'c1bf9e6b279f1febf9b45396f57f5da2ec958d414bc8fbaf063ef8b1d20cd956'),
    ((2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1),
     'dc39b43d871d4f7b9d580c7de59e6de93086c5d9d5787402089fdb54cfe06f13'),
    ((0.8, 3.2, 2.4, 0.0, 0.8, 2.4), (1, -1, 1, 1, 1, -1),
     '3fde33ab835112e8a770722a21d473dc10743d889a0e154b66e772115cdddec6'),
    ((0.8, 3.2, 2.4, 1.6, 0.0, 3.2), (1, -1, 1, 1, 1, -1),
     '8545ad5e4652bbfab2e3ddac1f92ff46486ca6ffe73056f90e839e45afe20be8'),
    ((0.0, 3.2, 0.0, 2.4, 1.6, 3.2), (1, 1, 1, -1, 1, 1),
     '69850b03285aa9a36a115de1b41792358ba71612fffe9a731b3f3c6b5617bfba'),
    ((0.8, 0.0, 1.6, 2.4, 0.0, 2.4, 1.6), (1, 1, 1, 1, 1, -1, 1),
     '880e1f30b4321f57cd3f6355bc898532c83fa6bc21fa17cc9c5c341aef1da462'),
    ((1.6, 3.2, 0.0, 1.6, 0.0, 1.6, 3.2), (1, 1, 1, 1, 1, 1, -1),
     '4882376ae50ead04bfdc67ec960804434300ed374751e83df67aa1cce60347af'),
    ((0.8, 3.2, 0.0, 1.6, 0.8, 2.4, 1.6), (1, 1, 1, -1, 1, 1, 1),
     '40e47f10bde7566d89be7ea701847507eb6330da6b962492dd232a977c09c079'),
    ((2.4, 3.2, 2.4, 1.6, 3.2, 2.4, 0.0, 0.8), (1, 1, 1, 1, 1, 1, 1, 1),
     '376612cb84ab388fb3d03005a66b7b72edd525278f856cb6284bcc46eadcf7c5'),
    ((3.2, 0.8, 0.0, 2.4, 3.2, 0.8, 3.2, 0.8), (-1, 1, 1, 1, -1, 1, 1, 1),
     '5b96359613086ce68b0f83edf0290258f25d8f156242b99f871f31ec1bff5bbb'),
    ((3.2, 0.0, 3.2, 2.4, 0.8, 1.6, 2.4, 1.6), (1, 1, -1, 1, 1, 1, 1, 1),
     '35d1b2c135f5157fedba60a0094dbe8b9d1768ce3895406347febf1c3ccffc8c'),
]


def _dot_hash(book) -> str:
    return hashlib.sha256(to_dot(build_fomenko_graph(book)).encode()).hexdigest()


def compiled_books():
    """compile_simple books of random valid games, three per n = 2..8, all
    drawn from one generator seeded 0."""
    rng = np.random.default_rng(0)
    out = []
    for n in range(2, 9):
        for _ in range(3):
            game = random_valid_game(FIXTURE_FAMILY, rng, n)
            out.append((game, compile_simple(game).book))
    return out


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_graph_unchanged(name):
    assert _dot_hash(CATALOG[name]()) == CATALOG_HASHES[name]


def test_compiled_graphs_unchanged():
    got = [(g.betas, g.signature, _dot_hash(book)) for g, book in compiled_books()]
    assert got == COMPILED_HASHES
