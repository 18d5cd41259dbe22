"""Liouville foliation of the unit-speed phase space of a billiard book.

The caustic parameter foliates the phase space into level sets.  Regular
levels split into finitely many tori (regimes), each identified by the
cyclic symbolic sequence of boundary events any of its trajectories
produces.  Critical levels are the leaf-boundary parameters (grazing), the
focal parameter b (motion collapsing onto the major axis) and the top
parameter a (minor axis).  Their neighbourhoods are classified into the
atoms A (one circle, no separatrices), B (one circle, two separatrices)
and C2 (two circles, four separatrices); the assembled graph of atoms and
torus families describes the foliation.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .book import BilliardBook, _same, _walk_cycles, boundary_side
from .conics import inward_normal  # noqa: F401  perfbench hooks it here
from .conics import directions_with_caustic, winding_sign  # noqa: F401  perfbench hooks them here
from .dynamics import EventSide, Rule
from .dynamics import glued_return_leaf, step  # noqa: F401  perfbench hooks them here

# atom type -> (critical circles, edges, separatrices)
ATOMS = {"A": (1, 1, 0), "B": (1, 3, 2), "C2": (2, 4, 4)}
ATOM_EDGE_CAPACITY = {typ: edges for typ, (_, edges, _) in ATOMS.items()}


class TopologyError(Exception):
    pass


class CriticalLambda(TopologyError):
    """The requested caustic value sits on (or outside) the critical set."""


class NotCritical(TopologyError):
    pass


# ---------------------------------------------------------------------------
# Symbolic states and regime enumeration
# ---------------------------------------------------------------------------

class RegimeState(NamedTuple):
    """One entry of a regime's event cycle.  ``sign`` is the winding
    direction (elliptic caustic) or the half-plane of the reflection point
    (hyperbolic caustic); crossings carry sign 0."""

    ellipse: float
    side: EventSide
    leaf_before: int
    leaf_after: int
    sign: int

    def key(self) -> tuple:
        return (self.ellipse, self.side._value_, self.leaf_before, self.leaf_after, self.sign)


@dataclass
class RegimeDescriptor:
    """One Liouville torus: a caustic interval and the symbolic event cycle
    all of its trajectories follow, rotated to start at its least
    reflection, with that reflection's sign as the orientation marker (the
    winding direction below b, the half-plane label above it)."""

    caustic_interval: tuple[float, float]
    states: tuple[RegimeState, ...]
    orientation: int

    @property
    def reflection_states(self) -> tuple[RegimeState, ...]:
        """The cycle's reflections from the same start, without crossings."""
        return tuple(s for s in self.states if s.side is not EventSide.PASS_THROUGH)

    def key(self) -> tuple:
        return tuple(s.key() for s in self.states)

    def reflection_key(self, signed: bool) -> frozenset:
        return _reflection_key((s.key() for s in self.reflection_states), signed)


def _reflection_key(keys: Iterable[tuple], signed: bool) -> frozenset:
    """The set of reflection ``RegimeState.key()`` tuples, with the sign or
    without it (the first four fields)."""
    if signed:
        return frozenset(keys)
    return frozenset(k[:4] for k in keys)


def critical_levels(book: BilliardBook) -> list[float]:
    """Distinct leaf-boundary parameters together with b and a, ascending."""
    return [*book.boundary_values, book.family.b, book.family.a]


def _level_tolerance(book: BilliardBook) -> float:
    return 1e-9 * book.family.a


def _vertex_table(book: BilliardBook) -> tuple[list, list]:
    """The vertex map's inputs, read in one pass over every leaf boundary.

    A vertex (leaf, ellipse, sign) is the boundary the particle on that leaf
    is heading for, with its winding sign (elliptic caustic) or half-plane
    sign (hyperbolic caustic, down to the axis bounce at lam = a).
    ``transition`` decides the event, a crossing carrying sign 0.  The next
    chord runs in the image leaf: from a hole to the outer ellipse; from the
    outer ellipse to the hole when the caustic reaches it (inner < lam) and
    back to the outer ellipse otherwise, where a hyperbolic sign flips (the
    chord crosses the major axis) and an elliptic winding sign does not.

    Returns the reflection seeds, (vertex, ellipse), and one row per vertex:
    (vertex, (event, its key), the lam above which the chord enters the hole
    or inf, then the next vertex into the hole, below b and above b).
    """
    seeds: list[tuple[tuple, float]] = []
    rows: list[tuple] = []
    for lf in book.leaves:
        for e, _, _, rule, side, image, _, _ in book._walls[0][lf.id]:
            leaf = book.leaf(image)
            from_hole = boundary_side(leaf, e) is EventSide.FROM_OUTSIDE
            reach = math.inf if from_hole or leaf.inner is None else leaf.inner
            for sign in (1, -1):
                event = RegimeState(e, side, lf.id, image, 0 if rule is Rule.R3 else sign)
                if event.sign:
                    seeds.append(((lf.id, e, sign), e))
                outer = (image, leaf.outer, sign)
                flipped = outer if from_hole else (image, leaf.outer, -sign)
                rows.append(((lf.id, e, sign), (event, event.key()), reach,
                             (image, leaf.inner, sign), outer, flipped))
    return seeds, rows


def _successors(book: BilliardBook, rows: list, lam: float) -> dict:
    """The vertex map at caustic lam: vertex -> (next vertex, (event, key))."""
    hyper = lam > book.family.b
    return {v: (hole if reach < lam else above if hyper else below, ev)
            for v, ev, reach, hole, below, above in rows}


def enumerate_regimes(book: BilliardBook, lam: float) -> list[RegimeDescriptor]:
    """All Liouville tori at a regular caustic value, as symbolic cycles.

    Each reflection of the vertex map (``_vertex_table``) on a boundary the
    caustic reaches, and that no regime holds yet, seeds a walk until the
    seed comes back; the events met are one torus.  A walk that meets a
    vertex walked before (the map is not a permutation) or no reflection
    (the seeds and events disagree) raises TopologyError.
    """
    levels = critical_levels(book)
    tol = _level_tolerance(book)
    if any(abs(lam - lv) < tol for lv in levels):
        raise CriticalLambda(f"lam={lam} is a critical level")
    if not levels[0] < lam < levels[-1]:
        raise CriticalLambda(f"lam={lam} is outside the dynamical range")
    below = max(lv for lv in levels if lv < lam)
    above = min(lv for lv in levels if lv > lam)
    return [r for _, r in _band_regimes(book, _vertex_table(book), lam, (below, above))]


def _band_regimes(book: BilliardBook, table: tuple, lam: float, band: tuple) -> list:
    """``enumerate_regimes`` at a regular lam of the interval ``band``, as
    (key, regime) pairs.  Each regime starts at the least rotation of its
    cycle's state keys among those starting at a reflection (the first such
    on a tie)."""
    seeds, rows = table
    walks = _walk_cycles(
        [v for v, e in seeds if e < lam or lam > book.family.b],
        _successors(book, rows, lam).__getitem__,
        TopologyError(f"vertex map at lam={lam} is not a permutation"),
    )
    keyed = []
    for walk in walks:
        rotated = _least_rotation([ev for _, ev in walk])
        if rotated is None:
            raise TopologyError(f"vertex walk at lam={lam} met no reflection from {walk[0][0]}")
        states, keys = rotated
        keyed.append((keys, RegimeDescriptor(band, states, states[0].sign)))
    keyed.sort(key=lambda kr: kr[0])
    return keyed


def _least_rotation(cycle: list) -> tuple | None:
    """A cycle of (state, key) pairs as (states, keys), rotated to its least
    sequence of keys that starts at a reflection (the first such on a tie);
    None when it holds no reflection."""
    keys = [k for _, k in cycle]
    starts = [i for i, (s, _) in enumerate(cycle) if s.side is not EventSide.PASS_THROUGH]
    best = min(starts, key=lambda i: keys[i:] + keys[:i], default=None)
    return None if best is None else tuple(zip(*cycle[best:], *cycle[:best]))


# ---------------------------------------------------------------------------
# Degenerate-caustic bounce map (lam = b on the x axis, lam = a on the y axis)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalCircle:
    """Periodic orbit of the axis bounce map at lam = b or lam = a."""

    axis: str  # 'x' or 'y'
    reflections: tuple[tuple[float, str, int, int, int], ...]
    # entries: each reflection's RegimeState.key(), its sign the vertex's half-axis

    def reflection_key(self, signed: bool) -> frozenset:
        return _reflection_key(self.reflections, signed)

    def describe(self) -> str:
        pts = sorted(
            f"{'+' if r[4] > 0 else '-'}C{r[0]:g}" for r in self.reflections
        )
        return f"{self.axis}-axis orbit, {len(self.reflections)} reflections at " + " ".join(pts)


def axis_bounce_circles(book: BilliardBook, axis: str) -> list[CriticalCircle]:
    """Decompose the bounce walk along a degenerate caustic axis, ``"x"`` or
    ``"y"``, into its periodic orbits.

    The walk is the vertex map (``_vertex_table``) at lam = a, the degenerate
    hyperbolic caustic: the particle slides from an annulus's outer ellipse
    to its hole on the same half, from a hole to the outer ellipse on the
    same half, and across a disk to the opposite vertex, reflecting or
    passing straight through at each vertex exactly as the full dynamics
    does in the degenerate limit.  A circle is the walk's reflections.  The
    vertices lie in the same order on both axes, so ``axis`` only labels
    the circles.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', not {axis!r}")
    return _bounce_circles(book, _vertex_table(book)[1], axis)


def _bounce_circles(book: BilliardBook, rows: list, axis: str) -> list[CriticalCircle]:
    # each leaf's vertices in the order a slide from the positive end of the
    # axis meets them; a circle's reflections start where its first seed is
    seeds = []
    for lf in book.leaves:
        ends = lf.boundary_params()
        seeds += [(lf.id, p, 1) for p in ends] + [(lf.id, p, -1) for p in reversed(ends)]
    walks = _walk_cycles(
        seeds,
        _successors(book, rows, book.family.a).__getitem__,
        TopologyError("axis bounce walk is not a permutation"),
    )
    circles = [CriticalCircle(axis, tuple(k for _, (ev, k) in walk if ev.sign)) for walk in walks]
    circles.sort(key=lambda c: sorted(c.reflections))
    return circles


# ---------------------------------------------------------------------------
# Atoms and the Fomenko graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FomenkoAtom:
    lam: float
    type: str  # 'A', 'B', 'C2' or 'Unknown'
    critical_circles: int
    separatrix_count: int
    description: str
    circles: tuple[CriticalCircle, ...] = ()


@dataclass
class FomenkoGraph:
    atoms: list[FomenkoAtom]
    edges: list[tuple[int, int, RegimeDescriptor]]

    def census(self) -> Counter:
        return Counter(a.type for a in self.atoms)

    def degrees(self) -> list[int]:
        deg = [0] * len(self.atoms)
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def _atom(
    lam: float, n_circles: int, n_edges: int, description: str, circles: Iterable = ()
) -> FomenkoAtom:
    """The atom whose (critical circles, edges) shape is listed in ATOMS;
    Unknown, with separatrix count -1, when no type has that shape."""
    typ, separatrices = "Unknown", -1
    for name, (c, e, sep) in ATOMS.items():
        if (c, e) == (n_circles, n_edges):
            typ, separatrices = name, sep
    return FomenkoAtom(lam, typ, n_circles, separatrices, description, tuple(circles))


class _Chain:
    """A torus family, extended across each level where a regime above
    collapses onto it; one edge carrying the regime of its first band."""

    __slots__ = ("first", "regime", "lo_atom", "hi_atom")

    def __init__(self, regime: RegimeDescriptor, lo_atom: int):
        self.first = regime
        self.regime = regime  # the family's regime in the latest band it reached
        self.lo_atom = lo_atom
        self.hi_atom: int | None = None


def build_fomenko_graph(book: BilliardBook) -> FomenkoGraph:
    """Assemble the atoms at every critical level and the torus families
    joining them.

    One rule decides every leaf-boundary level e.  A regime of the band
    above e, with its events on e deleted and rotated as
    ``enumerate_regimes`` rotates a cycle, is the torus it collapses onto.
    With no reflection left, its family starts on an A atom (boundary flow);
    when a torus family (chain) of the band below has that cycle, the family
    continues.  Every other family, below or above, ends or starts on e's
    grazing atom of its orientation.  Families terminate at lam = b (matched
    to major-axis bounce orbits by their reflection classes) and at lam = a
    (matched to minor-axis orbits including the half-plane sign).
    """
    fam = book.family
    levels = critical_levels(book)
    tol = _level_tolerance(book)
    for lo, hi in zip(levels, levels[1:]):  # each band's midpoint must be a regular level
        if hi - lo < 2.0 * tol:
            raise CriticalLambda(f"critical levels {lo!r} and {hi!r} are too close to separate")
    m = len(levels)
    # one vertex table serves every band and the axis bounce walk
    table = _vertex_table(book)
    regs = [_band_regimes(book, table, (lo + hi) / 2.0, (lo, hi))
            for lo, hi in zip(levels, levels[1:])]

    atoms: list[FomenkoAtom] = []
    chains: list[_Chain] = []

    def add_atom(atom: FomenkoAtom, ins=(), outs=()) -> list[_Chain]:
        """Append the atom, end the chains ``ins`` on it, and return the
        chains it opens, one per regime in ``outs``."""
        atoms.append(atom)
        for chain in ins:
            chain.hi_atom = len(atoms) - 1
        opened = [_Chain(r, len(atoms) - 1) for r in outs]
        chains.extend(opened)
        return opened

    def orient_label(o: int) -> str:
        return "ccw" if o > 0 else "cw"

    # Leaf-boundary levels, outermost first, each by the collapse rule above.
    # The families open in the band below e, by their regime's key there:
    families: dict[tuple, _Chain] = {}
    for k in range(m - 2):
        e = levels[k]
        waiting, families = families, {}
        grazing: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
        for key, r in regs[k]:
            kept = [(s, sk) for s, sk in zip(r.states, key) if not _same(s.ellipse, e)]
            rotated = _least_rotation(kept) if len(kept) < len(key) else (r.states, key)
            if rotated is None:
                desc = f"boundary flow on C{e:g} ({orient_label(r.orientation)})"
                families[key], = add_atom(_atom(e, 1, 1, desc), outs=[r])
            elif (chain := waiting.pop(rotated[1], None)) is not None:
                chain.regime, families[key] = r, chain
            else:
                grazing[r.orientation][1].append((key, r))
        for chain in waiting.values():
            grazing[chain.regime.orientation][0].append(chain)
        for o in sorted(grazing):
            ins, outs = grazing[o]
            desc = f"grazing circle on C{e:g} ({orient_label(o)})"
            opened = add_atom(_atom(e, 1, len(ins) + len(outs), desc), ins, [r for _, r in outs])
            families.update(zip((key for key, _ in outs), opened))
    open_chains = list(families.values())

    # lam = b: the major-axis bounce circles join the last elliptic and the
    # hyperbolic families with the same unsigned reflection classes into
    # saddle atoms.  lam = a: each minor-axis bounce orbit closes the
    # hyperbolic family with its signed reflection classes.  Distinct orbits
    # there have disjoint, non-empty reflection sets, so each group holds at
    # most one circle.  The bounce walk is the same on both axes; only the
    # circles' axis label differs.
    major = _bounce_circles(book, table[1], "x")
    minor = [CriticalCircle("y", c.reflections) for c in major]
    for lam, circles, signed, regimes, unmatched in (
        (fam.b, major, False, [r for _, r in regs[m - 2]], "no critical circle matched"),
        (fam.a, minor, True, [], "no minor-axis orbit matched"),
    ):
        key_groups: dict[frozenset, tuple[list, list, list]] = defaultdict(lambda: ([], [], []))
        for c in circles:
            key_groups[c.reflection_key(signed)][0].append(c)
        for chain in open_chains:
            key_groups[chain.regime.reflection_key(signed)][1].append(chain)
        for r in regimes:
            key_groups[r.reflection_key(signed)][2].append(r)
        new_open = []
        for circles, ins, outs in key_groups.values():
            desc = " / ".join(c.describe() for c in circles) or unmatched
            atom = _atom(lam, len(circles), len(ins) + len(outs), desc, circles)
            new_open += add_atom(atom, ins, outs)
        open_chains = new_open

    edges: list[tuple[int, int, RegimeDescriptor]] = []
    for chain in chains:
        if chain.hi_atom is None:  # pragma: no cover - every chain terminates
            raise TopologyError("torus family left open")
        interval = (atoms[chain.lo_atom].lam, atoms[chain.hi_atom].lam)
        regime = RegimeDescriptor(interval, chain.first.states, chain.first.orientation)
        edges.append((chain.lo_atom, chain.hi_atom, regime))
    return FomenkoGraph(atoms, edges)


def classify_singular_level(book: BilliardBook, lam: float) -> list[FomenkoAtom]:
    """Atoms sitting at one critical level (empty when the flow extends
    continuously across it)."""
    tol = _level_tolerance(book)
    levels = critical_levels(book)
    if not any(abs(lam - lv) < tol for lv in levels):
        raise NotCritical(f"lam={lam} is not a critical level")
    graph = build_fomenko_graph(book)
    return [a for a in graph.atoms if abs(a.lam - lam) < tol]


# ---------------------------------------------------------------------------
# Graph comparison and DOT output
# ---------------------------------------------------------------------------

def _atom_rank_keys(graph: FomenkoGraph) -> list[tuple[int, str]]:
    rank = {lam: k for k, lam in enumerate(sorted({a.lam for a in graph.atoms}))}
    return [(rank[a.lam], a.type) for a in graph.atoms]


def _edge_multiset(graph: FomenkoGraph, mapping: dict[int, int] | None = None) -> Counter:
    out: Counter = Counter()
    for i, j, _ in graph.edges:
        a, b = (mapping[i], mapping[j]) if mapping else (i, j)
        out[(min(a, b), max(a, b))] += 1
    return out


def _multiplicities(graph: FomenkoGraph) -> list[dict[int, int]]:
    """Per atom, the number of edges to each neighbour; a self-loop counts
    once, under the atom itself."""
    adj: list[dict[int, int]] = [{} for _ in graph.atoms]
    for (i, j), m in _edge_multiset(graph).items():
        adj[i][j] = adj[j][i] = m
    return adj


def _refine_jointly(keys1, adj1, keys2, adj2) -> list[list[int]] | None:
    """Colour refinement run on both graphs with one shared signature table,
    so that equal colours mean the same thing in either graph.  Returns the
    two stable colourings, or None once their histograms differ."""
    ids: dict = {}
    cols = [[ids.setdefault(k, len(ids)) for k in keys] for keys in (keys1, keys2)]
    classes = len(ids)
    while True:
        table: dict = {}
        cols = [
            [
                table.setdefault(
                    (col[i], tuple(sorted((col[j], m) for j, m in adj[i].items()))),
                    len(table),
                )
                for i in range(len(col))
            ]
            for col, adj in zip(cols, (adj1, adj2))
        ]
        if Counter(cols[0]) != Counter(cols[1]):
            return None
        if len(table) == classes:
            return cols
        classes = len(table)


def graphs_isomorphic(g1: FomenkoGraph, g2: FomenkoGraph) -> bool:
    """Exact isomorphism preserving atom types, the ordering of critical
    levels, and edge incidence (multigraph-aware).

    Colour refinement (McKay–Piperno, *Practical graph isomorphism II*,
    2014) starts from each atom's (level rank, type) and repeatedly splits
    atoms by their neighbours' colours and edge multiplicities, on both
    graphs at once; differing colour histograms prove the graphs distinct.
    Equal histograms prove nothing (two triangles and a hexagon refine
    alike), so a backtracking search then maps g1's atoms, smallest colour
    class first, onto unused g2 atoms of the same colour whose self-loops
    and multiplicities to every atom mapped so far agree.  True is returned
    only for a full bijection under which g1's edge multiset equals g2's.
    """
    n = len(g1.atoms)
    if n != len(g2.atoms) or len(g1.edges) != len(g2.edges):
        return False
    keys1 = _atom_rank_keys(g1)
    keys2 = _atom_rank_keys(g2)
    if Counter(keys1) != Counter(keys2):
        return False
    adj1, adj2 = _multiplicities(g1), _multiplicities(g2)
    colours = _refine_jointly(keys1, adj1, keys2, adj2)
    if colours is None:
        return False
    col1, col2 = colours
    if n == 0:
        return True

    candidates: dict[int, list[int]] = defaultdict(list)
    for v, c in enumerate(col2):
        candidates[c].append(v)
    # smallest colour class first; among equals, the atom with the most
    # edges into the atoms already ordered, so candidates meet constraints early
    order: list[int] = []
    links = [0] * n
    rest = set(range(n))
    while rest:
        u = min(rest, key=lambda x: (len(candidates[col1[x]]), -links[x], col1[x], x))
        rest.discard(u)
        order.append(u)
        for w, m in adj1[u].items():
            links[w] += m
    target = _edge_multiset(g2)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def fits(u: int, v: int) -> bool:
        if adj1[u].get(u, 0) != adj2[v].get(v, 0):
            return False
        into = 0
        for w, m in adj1[u].items():
            if w != u and w in mapping:
                if adj2[v].get(mapping[w], 0) != m:
                    return False
                into += m
        return into == sum(m for x, m in adj2[v].items() if x != v and x in used)

    # stack[d] iterates the candidates for order[d]; order[d] is mapped
    # exactly while its entry is on the stack and a candidate was taken
    stack = [iter(candidates[col1[order[0]]])]
    while stack:
        u = order[len(stack) - 1]
        if u in mapping:
            used.discard(mapping.pop(u))
        v = next((v for v in stack[-1] if v not in used and fits(u, v)), None)
        if v is None:
            stack.pop()
            continue
        mapping[u] = v
        used.add(v)
        if len(stack) < n:
            stack.append(iter(candidates[col1[order[len(stack)]]]))
        elif _edge_multiset(g1, mapping) == target:
            return True
    return False


def to_dot(graph: FomenkoGraph) -> str:
    """Deterministic DOT rendering: vertices ``type@lambda``, edges labelled
    by their caustic interval.  Atoms are numbered by (lam, type,
    description), ties broken by the sorted (caustic interval, first state
    key) of the edges at each atom, so the text does not depend on the order
    the atoms are listed in."""
    ends: list[list] = [[] for _ in graph.atoms]
    for i, j, r in graph.edges:
        for atom_idx in {i, j}:
            ends[atom_idx].append((r.caustic_interval, r.states[0].key()))
    order = sorted(
        range(len(graph.atoms)),
        key=lambda i: (graph.atoms[i].lam, graph.atoms[i].type, graph.atoms[i].description,
                       sorted(ends[i])),
    )
    names = {atom_idx: f"n{pos}" for pos, atom_idx in enumerate(order)}
    lines = ["graph fomenko {"]
    for pos, atom_idx in enumerate(order):
        a = graph.atoms[atom_idx]
        lines.append(f'  n{pos} [label="{a.type}@{float(a.lam)}"];')
    edge_rows = sorted(
        (
            names[i] if names[i] <= names[j] else names[j],
            names[j] if names[i] <= names[j] else names[i],
            f"({edge[2].caustic_interval[0]:g}, {edge[2].caustic_interval[1]:g})",
        )
        for edge in graph.edges
        for i, j in [(edge[0], edge[1])]
    )
    for a, b, label in edge_rows:
        lines.append(f'  {a} -- {b} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
