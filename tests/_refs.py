"""Reference Fomenko graphs for the catalog books, built by hand."""

from billiard_books.topology import (
    ATOMS,
    FomenkoGraph,
    RegimeDescriptor,
    TopologyError,
    _atom,
)

B1, B2, B3 = 0.0, 2.0, 3.5
B, A = 4.0, 9.0


def graph_from_census(
    atoms: list[tuple[float, str]], edges: list[tuple[int, int]]
) -> FomenkoGraph:
    """Hand-built comparison graph: atoms as (lambda, type), edges by index.
    Raises TopologyError for an edge naming an atom outside the list."""
    built = [_atom(lam, *ATOMS.get(typ, (0, 0, -1))[:2], "reference") for lam, typ in atoms]
    for i, j in edges:
        if i not in range(len(built)) or j not in range(len(built)):
            raise TopologyError(f"edge ({i}, {j}) names an atom outside range({len(built)})")
    dummy = [
        (i, j, RegimeDescriptor((built[i].lam, built[j].lam), (), 1))
        for i, j in edges
    ]
    return FomenkoGraph(built, dummy)


def ref_graph_annulus_two_disks() -> FomenkoGraph:
    # two boundary-flow circles, one saddle pair at b, two axis orbits at a
    return graph_from_census(
        [(B1, "A"), (B1, "A"), (B, "C2"), (A, "A"), (A, "A")],
        [(0, 2), (1, 2), (2, 3), (2, 4)],
    )


def ref_graph_two_annuli_two_disks() -> FomenkoGraph:
    return graph_from_census(
        [
            (B1, "A"),
            (B1, "A"),
            (B2, "B"),
            (B2, "B"),
            (B, "C2"),
            (B, "C2"),
            (A, "A"),
            (A, "A"),
            (A, "A"),
            (A, "A"),
        ],
        [
            (0, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 6),
            (4, 7),
            (5, 8),
            (5, 9),
        ],
    )


def ref_graph_chain_five() -> FomenkoGraph:
    return graph_from_census(
        [(B1, "A"), (B1, "A"), (B, "B"), (A, "A")],
        [(0, 2), (1, 2), (2, 3)],
    )


def ref_graph_chain_six() -> FomenkoGraph:
    return graph_from_census(
        [
            (B1, "A"),
            (B1, "A"),
            (B3, "B"),
            (B3, "B"),
            (B, "B"),
            (B, "C2"),
            (A, "A"),
            (A, "A"),
            (A, "A"),
        ],
        [
            (0, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 7),
            (5, 8),
        ],
    )
