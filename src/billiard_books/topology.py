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

import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import permutations, product

from .book import BilliardBook, Side, boundary_side, glued_return_leaf
from .conics import directions_with_caustic, inward_normal, winding_sign
from .dynamics import EventSide, PhaseState, Rule, TangentialHit, step, transition

log = logging.getLogger(__name__)

SEPARATRIX_COUNT = {"A": 0, "B": 2, "C2": 4}
ATOM_EDGE_CAPACITY = {"A": 1, "B": 3, "C2": 4}

_WITNESS_ANGLES = (0.9, 2.2, 4.0, 5.3, 1.5, 3.3, 0.3, 2.8, 4.7, 5.9)
_WITNESS_FRACTIONS = (0.35, -0.45, 0.7, -0.15, 0.55, -0.75, 0.1, -0.6, 0.85, -0.3)


class TopologyError(Exception):
    pass


class CriticalLambda(TopologyError):
    """The requested caustic value sits on (or outside) the critical set."""


class NotCritical(TopologyError):
    pass


class NoInnerLeaf(TopologyError):
    """The outer leaf is not glued across the ellipse; grazing is trivially
    continuous there."""


# ---------------------------------------------------------------------------
# Symbolic states and regime enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeState:
    """One entry of a regime's event cycle.  ``sign`` is the winding
    direction (elliptic caustic) or the half-plane of the reflection point
    (hyperbolic caustic); crossings carry sign 0."""

    ellipse: float
    side: EventSide
    leaf_before: int
    leaf_after: int
    sign: int

    def key(self) -> tuple:
        return (self.ellipse, self.side.value, self.leaf_before, self.leaf_after, self.sign)


@dataclass
class RegimeDescriptor:
    """One Liouville torus: a caustic interval, the symbolic event cycle all
    of its trajectories follow, and an orientation marker."""

    caustic_interval: tuple[float, float]
    states: tuple[RegimeState, ...]
    orientation: int
    witness: PhaseState = field(compare=False, repr=False, default=None)
    reflection_states: tuple[RegimeState, ...] = field(
        compare=False, repr=False, default=()
    )

    def key(self) -> tuple:
        return tuple(s.key() for s in self.states)

    def reflection_key(self, signed: bool) -> frozenset:
        refl = [s for s in self.states if s.side is not EventSide.PASS_THROUGH]
        if signed:
            return frozenset(s.key() for s in refl)
        return frozenset((s.ellipse, s.side.value, s.leaf_before, s.leaf_after) for s in refl)


def critical_levels(book: BilliardBook) -> list[float]:
    """Distinct leaf-boundary parameters together with b and a, ascending."""
    return book.boundary_values() + [book.family.b, book.family.a]


def _level_tolerance(book: BilliardBook) -> float:
    return 1e-9 * book.family.a


def _reflection_states(book: BilliardBook, lam: float) -> list[RegimeState]:
    """Reflection states, both signs of each reflection class, that can
    occur at caustic lam.  An elliptic caustic reaches an ellipse only when
    it lies strictly inside it."""
    hyper = lam > book.family.b
    out: list[RegimeState] = []
    for e in book.boundary_values():
        if not hyper and lam <= e:
            continue
        for lid in sorted(book.leaf_ids_on_ellipse(e)):
            rule, side, after = transition(book, lid, e)
            if rule is not Rule.R3:
                out.extend(RegimeState(e, side, lid, after, sign) for sign in (1, -1))
    return out


def _witness_state(book: BilliardBook, lam: float, state: RegimeState) -> PhaseState | None:
    """Phase point realizing a post-reflection state, or None when no
    sampled boundary point admits one."""
    fam = book.family
    hyper = lam > fam.b
    e = state.ellipse
    want_inward = state.side is EventSide.FROM_INSIDE
    if hyper:
        x_cap = 0.92 * min(math.sqrt(fam.a - lam), math.sqrt(fam.a - e))
        samples = [(u * x_cap, state.sign) for u in _WITNESS_FRACTIONS]
    else:
        samples = None
    points: list[tuple[float, float]] = []
    if hyper:
        for px, s in samples:
            inner = 1.0 - px * px / (fam.a - e)
            if inner <= 1e-9:
                continue
            points.append((px, s * math.sqrt((fam.b - e) * inner)))
    else:
        points = [fam.ellipse_point(e, th) for th in _WITNESS_ANGLES]
    for px, py in points:
        nx, ny = inward_normal(fam, e, px, py)
        for vx, vy in directions_with_caustic(fam, px, py, lam):
            d = vx * nx + vy * ny
            if abs(d) < 1e-6:
                continue
            if (d > 0.0) is not want_inward:
                continue
            if not hyper and winding_sign(px, py, vx, vy) != state.sign:
                continue
            return PhaseState(px, py, vx, vy, state.leaf_after)
    return None


def _state_sign(book: BilliardBook, lam: float, state: PhaseState) -> int:
    if lam > book.family.b:
        return 1 if state.y >= 0.0 else -1
    return winding_sign(state.x, state.y, state.vx, state.vy)


def _transfer(
    book: BilliardBook, lam: float, state: PhaseState
) -> tuple[RegimeState, list[RegimeState], PhaseState]:
    """Advance a post-reflection witness to its next reflection, collecting
    the crossings passed on the way."""
    crossings: list[RegimeState] = []
    cur = state
    for _ in range(200):
        cur, ev = step(book, cur)
        if ev.rule is Rule.R3:
            crossings.append(
                RegimeState(ev.ellipse, EventSide.PASS_THROUGH, ev.leaf_before, ev.leaf_after, 0)
            )
            continue
        sign = _state_sign(book, lam, cur)
        return RegimeState(ev.ellipse, ev.side, ev.leaf_before, ev.leaf_after, sign), crossings, cur
    raise TopologyError("no reflection reached within 200 events")  # pragma: no cover


def enumerate_regimes(book: BilliardBook, lam: float) -> list[RegimeDescriptor]:
    """All Liouville tori at a regular caustic value, as symbolic cycles.

    Each reachable reflection class is witnessed by one phase point and
    advanced one reflection at a time; the cycles of this symbolic transfer
    map are the connected components of the level set.
    """
    fam = book.family
    levels = critical_levels(book)
    tol = _level_tolerance(book)
    if any(abs(lam - lv) < tol for lv in levels):
        raise CriticalLambda(f"lam={lam} is a critical level")
    if lam < levels[0] or lam > fam.a:
        raise CriticalLambda(f"lam={lam} is outside the dynamical range")
    below = max(lv for lv in levels if lv < lam)
    above = min(lv for lv in levels if lv > lam)

    transfer_memo: dict[tuple, tuple] = {}
    witness_of: dict[tuple, PhaseState] = {}

    def do_transfer(st: RegimeState) -> tuple | None:
        k = st.key()
        if k in transfer_memo:
            return transfer_memo[k]
        w = witness_of.get(k)
        if w is None:
            w = _witness_state(book, lam, st)
            if w is None:
                return None
            witness_of[k] = w
        try:
            nxt, crossings, nw = _transfer(book, lam, w)
        except TangentialHit:  # pragma: no cover - lam is mid-interval
            return None
        witness_of.setdefault(nxt.key(), nw)
        transfer_memo[k] = (nxt, crossings)
        return transfer_memo[k]

    assigned: set[tuple] = set()
    regimes: list[RegimeDescriptor] = []
    for seed in _reflection_states(book, lam):
        if seed.key() in assigned:
            continue
        if do_transfer(seed) is None:
            continue
        path: list[RegimeState] = []
        path_pos: dict[tuple, int] = {}
        path_cross: list[list[RegimeState]] = []
        cur = seed
        while True:
            k = cur.key()
            if k in assigned:
                break  # merged into an already-built regime
            if k in path_pos:
                cut = path_pos[k]
                cycle = path[cut:]
                crossings = path_cross[cut:]
                regimes.append(
                    _build_regime(book, lam, (below, above), cycle, crossings, witness_of)
                )
                for st in cycle:
                    assigned.add(st.key())
                break
            step_result = do_transfer(cur)
            if step_result is None:
                log.debug("dropping unrealizable state %s", cur)
                break
            path_pos[k] = len(path)
            path.append(cur)
            path_cross.append(step_result[1])
            cur = step_result[0]
    regimes.sort(key=lambda r: r.key())
    return regimes


def _build_regime(
    book: BilliardBook,
    lam: float,
    interval: tuple[float, float],
    cycle: list[RegimeState],
    crossings: list[list[RegimeState]],
    witness_of: dict[tuple, PhaseState],
) -> RegimeDescriptor:
    # Canonical rotation: start at the lexicographically least reflection.
    def rotation(start: int) -> list[RegimeState]:
        out: list[RegimeState] = []
        m = len(cycle)
        for i in range(m):
            out.append(cycle[(start + i) % m])
            out.extend(crossings[(start + i) % m])
        return out

    best_i = min(range(len(cycle)), key=lambda i: tuple(s.key() for s in rotation(i)))
    states = tuple(rotation(best_i))
    rolled = cycle[best_i:] + cycle[:best_i]
    # the common winding sign below b; the canonical half-plane label above it
    orientation = rolled[0].sign
    return RegimeDescriptor(
        caustic_interval=interval,
        states=states,
        orientation=orientation,
        witness=witness_of[rolled[0].key()],
        reflection_states=tuple(rolled),
    )


# ---------------------------------------------------------------------------
# Grazing continuity across a glued ellipse
# ---------------------------------------------------------------------------

def pass_through_return(
    book: BilliardBook, ellipse_param: float, outer_leaf: int
) -> tuple[int, bool]:
    """Exit leaf of the gluing chain entered from ``outer_leaf`` and whether
    it returns there (the grazing-limit continuity test)."""
    if boundary_side(book.leaf(outer_leaf), ellipse_param) is not Side.OUTSIDE:
        raise TopologyError(f"leaf {outer_leaf} does not lie outside C_{ellipse_param}")
    ret = glued_return_leaf(book, ellipse_param, outer_leaf)
    if ret is None:
        raise NoInnerLeaf(
            f"leaf {outer_leaf} is not glued across C_{ellipse_param}"
        )
    return ret, ret == outer_leaf


def grazing_probe_exits(
    book: BilliardBook,
    ellipse_param: float,
    outer_leaf: int,
    n_probes: int = 16,
    offset: float = 1e-7,
) -> list[int]:
    """Numerically witness the gluing chain: launch near-tangent rays just
    inside the ellipse at ``n_probes`` points and record the leaf each one
    re-emerges on."""
    fam = book.family
    g = book.gluing_for(ellipse_param)
    if g is None or outer_leaf not in g.mapping:
        raise NoInnerLeaf(f"leaf {outer_leaf} is not glued across C_{ellipse_param}")
    entry = g.image(outer_leaf)
    sx = math.sqrt(fam.a - ellipse_param)
    sy = math.sqrt(fam.b - ellipse_param)
    depth = offset * math.sqrt(fam.a)
    exits: list[int] = []
    for i in range(n_probes):
        th = 2.0 * math.pi * (i + 0.4) / n_probes
        px, py = fam.ellipse_point(ellipse_param, th)
        tx, ty = -sx * math.sin(th), sy * math.cos(th)
        tn = math.hypot(tx, ty)
        tx, ty = tx / tn, ty / tn
        nx, ny = inward_normal(fam, ellipse_param, px, py)
        state = PhaseState(px + depth * nx, py + depth * ny, tx, ty, entry)
        exit_leaf = None
        for _ in range(4 * len(g.mapping) + 8):
            state, ev = step(book, state)
            if abs(ev.ellipse - ellipse_param) > 1e-12:
                break  # wandered off the grazing band; should not happen
            if boundary_side(book.leaf(ev.leaf_after), ellipse_param) is Side.OUTSIDE:
                exit_leaf = ev.leaf_after
                break
        if exit_leaf is None:
            raise TopologyError(f"grazing probe {i} at C_{ellipse_param} did not exit")
        exits.append(exit_leaf)
    return exits


def _level_inconsistent(book: BilliardBook, e: float) -> bool:
    """True when some grazing chain at the ellipse fails to return, so the
    flow cannot be extended continuously across the level."""
    for lid in book.leaf_ids_on_ellipse(e):
        if boundary_side(book.leaf(lid), e) is not Side.OUTSIDE:
            continue
        ret = glued_return_leaf(book, e, lid)
        if ret is not None and ret != lid:
            return True
    return False


# ---------------------------------------------------------------------------
# Degenerate-caustic bounce map (lam = b on the x axis, lam = a on the y axis)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalCircle:
    """Periodic orbit of the axis bounce map at lam = b or lam = a."""

    axis: str  # 'x' or 'y'
    reflections: tuple[tuple[float, str, int, int, int], ...]
    # entries: (ellipse, side value, leaf_before, leaf_after, vertex sign)

    def reflection_key(self, signed: bool) -> frozenset:
        if signed:
            return frozenset(self.reflections)
        return frozenset(r[:4] for r in self.reflections)

    def describe(self) -> str:
        pts = sorted(
            f"{'+' if r[4] > 0 else '-'}C{r[0]:g}" for r in self.reflections
        )
        return f"{self.axis}-axis orbit, {len(self.reflections)} reflections at " + " ".join(pts)


def _axis_extent(book: BilliardBook, axis: str, e: float) -> float:
    fam = book.family
    return math.sqrt((fam.a if axis == "x" else fam.b) - e)


def axis_bounce_circles(book: BilliardBook, axis: str) -> list[CriticalCircle]:
    """Decompose the directed bounce walk along a degenerate caustic axis
    into its periodic orbits.

    The particle slides along the axis through each leaf's segment, reverses
    at plain or same-side glued vertices and passes straight through
    opposite-side glued ones, exactly as the full dynamics does in the
    degenerate limit.
    """
    segments: list[tuple[int, float, float, float, float]] = []
    # (leaf_id, lo, hi, ellipse at lo, ellipse at hi)
    for lf in book.leaves:
        m_out = _axis_extent(book, axis, lf.outer)
        if lf.is_disk:
            segments.append((lf.id, -m_out, m_out, lf.outer, lf.outer))
        else:
            m_in = _axis_extent(book, axis, lf.inner)
            segments.append((lf.id, m_in, m_out, lf.inner, lf.outer))
            segments.append((lf.id, -m_out, -m_in, lf.outer, lf.inner))

    def segment_from(leaf_id: int, coord: float, direction: int) -> int:
        for idx, (lid, lo, hi, _, _) in enumerate(segments):
            if lid != leaf_id:
                continue
            if direction > 0 and abs(lo - coord) < 1e-9:
                return idx
            if direction < 0 and abs(hi - coord) < 1e-9:
                return idx
        raise TopologyError(
            f"no segment of leaf {leaf_id} starts at {coord} going {direction}"
        )  # pragma: no cover

    def bounce(seg_idx: int, direction: int):
        lid, lo, hi, e_lo, e_hi = segments[seg_idx]
        coord = hi if direction > 0 else lo
        e = e_hi if direction > 0 else e_lo
        rule, side, image = transition(book, lid, e)
        if rule is Rule.R3:
            new_dir = direction
            refl = None
        else:
            new_dir = -direction  # reflection at the vertex reverses the slide
            refl = (e, side.value, lid, image, 1 if coord > 0 else -1)
        return segment_from(image, coord, new_dir), new_dir, refl

    states = [(i, d) for i in range(len(segments)) for d in (1, -1)]
    seen: set[tuple[int, int]] = set()
    circles: list[CriticalCircle] = []
    for start in states:
        if start in seen:
            continue
        orbit: list[tuple[int, int]] = []
        reflections: list[tuple] = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            nxt_seg, nxt_dir, refl = bounce(*cur)
            if refl is not None:
                reflections.append(refl)
            cur = (nxt_seg, nxt_dir)
        if cur != start:  # pragma: no cover - the walk is a permutation
            raise TopologyError("axis bounce walk is not a permutation")
        circles.append(CriticalCircle(axis, tuple(reflections)))
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


def _atom_type(n_circles: int, n_edges: int) -> str:
    table = {(1, 1): "A", (1, 3): "B", (2, 4): "C2"}
    return table.get((n_circles, n_edges), "Unknown")


class _Chain:
    """A torus family extended across regular levels; becomes one edge."""

    __slots__ = ("segments", "lo_atom", "hi_atom")

    def __init__(self, interval_idx: int, regime: RegimeDescriptor, lo_atom: int):
        self.segments: list[tuple[int, RegimeDescriptor]] = [(interval_idx, regime)]
        self.lo_atom = lo_atom
        self.hi_atom: int | None = None

    @property
    def regime(self) -> RegimeDescriptor:
        return self.segments[-1][1]


def _continue_regime(
    book: BilliardBook,
    regime: RegimeDescriptor,
    lam_target: float,
    above_index: dict[tuple, int],
) -> int | None:
    """Index of the regime continuing this one past a regular level, located
    by re-aiming the stored witness at the new caustic value."""
    fam = book.family
    first = regime.reflection_states[0]
    w = regime.witness
    nx, ny = inward_normal(fam, first.ellipse, w.x, w.y)
    d0 = w.vx * nx + w.vy * ny
    best = None
    best_dot = -2.0
    for vx, vy in directions_with_caustic(fam, w.x, w.y, lam_target):
        d = vx * nx + vy * ny
        if abs(d) < 1e-9 or (d > 0.0) != (d0 > 0.0):
            continue
        if lam_target < fam.b and winding_sign(w.x, w.y, vx, vy) != regime.orientation:
            continue
        dot = vx * w.vx + vy * w.vy
        if dot > best_dot:
            best_dot = dot
            best = (vx, vy)
    if best is None:
        return None
    sign = (
        winding_sign(w.x, w.y, best[0], best[1])
        if lam_target < fam.b
        else (1 if w.y >= 0.0 else -1)
    )
    return above_index.get(replace(first, sign=sign).key())


def build_fomenko_graph(book: BilliardBook) -> FomenkoGraph:
    """Assemble the atoms at every critical level and the torus families
    joining them.

    Torus families (chains) extend across regular levels by continuation;
    they terminate on atoms at grazing-singular levels, at lam = b (matched
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
    mids = [(levels[i] + levels[i + 1]) / 2.0 for i in range(m - 1)]
    regs = [enumerate_regimes(book, mid) for mid in mids]

    atoms: list[FomenkoAtom] = []
    all_chains: list[_Chain] = []

    def add_atom(atom: FomenkoAtom) -> int:
        atoms.append(atom)
        return len(atoms) - 1

    def open_chain(interval_idx: int, regime: RegimeDescriptor, lo_atom: int) -> _Chain:
        chain = _Chain(interval_idx, regime, lo_atom)
        all_chains.append(chain)
        return chain

    def orient_label(o: int) -> str:
        return "ccw" if o > 0 else "cw"

    open_chains: list[_Chain] = []
    for r in regs[0]:
        idx = add_atom(
            FomenkoAtom(
                levels[0],
                "A",
                1,
                0,
                f"boundary flow on C{levels[0]:g} ({orient_label(r.orientation)})",
            )
        )
        open_chains.append(open_chain(0, r, idx))

    for k in range(1, m - 2):
        e = levels[k]
        if not _level_inconsistent(book, e):
            above_index = {
                st.key(): idx for idx, r in enumerate(regs[k]) for st in r.reflection_states
            }
            used: set[int] = set()
            new_open: list[_Chain] = []
            for chain in open_chains:
                ridx = _continue_regime(book, chain.regime, mids[k], above_index)
                if ridx is None or ridx in used:
                    chain.hi_atom = add_atom(
                        FomenkoAtom(e, "Unknown", 0, -1, "unmatched continuation")
                    )
                    continue
                used.add(ridx)
                chain.segments.append((k, regs[k][ridx]))
                new_open.append(chain)
            for ridx, r in enumerate(regs[k]):
                if ridx in used:
                    continue
                idx = add_atom(
                    FomenkoAtom(
                        e, "A", 1, 0, f"boundary flow on C{e:g} ({orient_label(r.orientation)})"
                    )
                )
                new_open.append(open_chain(k, r, idx))
            open_chains = new_open
        else:
            groups: dict[int, tuple[list[_Chain], list[int]]] = {}
            for chain in open_chains:
                groups.setdefault(chain.regime.orientation, ([], []))[0].append(chain)
            for ridx, r in enumerate(regs[k]):
                groups.setdefault(r.orientation, ([], []))[1].append(ridx)
            new_open = []
            for o in sorted(groups):
                ins, outs = groups[o]
                typ = "B" if len(ins) + len(outs) == 3 else "Unknown"
                idx = add_atom(
                    FomenkoAtom(
                        e,
                        typ,
                        1,
                        SEPARATRIX_COUNT.get(typ, -1),
                        f"grazing circle on C{e:g} ({orient_label(o)})",
                    )
                )
                for chain in ins:
                    chain.hi_atom = idx
                for ridx in outs:
                    new_open.append(open_chain(k, regs[k][ridx], idx))
            open_chains = new_open

    # lam = b: bounce circles on the major axis join the last elliptic and
    # the hyperbolic families into saddle atoms.
    circles = axis_bounce_circles(book, "x")
    below = list(open_chains)
    above = regs[m - 2]
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    nodes = [("c", i) for i in range(len(circles))]
    nodes += [("below", i) for i in range(len(below))]
    nodes += [("above", i) for i in range(len(above))]
    for node in nodes:
        find(node)
    for kind, i in nodes:
        if kind == "c":
            continue
        regime = below[i].regime if kind == "below" else above[i]
        key = regime.reflection_key(signed=False)
        for ci, c in enumerate(circles):
            if c.reflection_key(signed=False) == key:
                union((kind, i), ("c", ci))

    comps: dict = {}
    for node in nodes:
        comps.setdefault(find(node), []).append(node)
    new_open = []
    for root in sorted(comps, key=str):
        comp = comps[root]
        comp_circles = [circles[i] for kind, i in comp if kind == "c"]
        comp_below = [below[i] for kind, i in comp if kind == "below"]
        comp_above = [above[i] for kind, i in comp if kind == "above"]
        n_edges = len(comp_below) + len(comp_above)
        if not comp_circles and n_edges == 0:
            continue
        typ = _atom_type(len(comp_circles), n_edges)
        desc = " / ".join(c.describe() for c in comp_circles) or "no critical circle matched"
        idx = add_atom(
            FomenkoAtom(
                fam.b,
                typ,
                len(comp_circles),
                SEPARATRIX_COUNT.get(typ, -1),
                desc,
                tuple(comp_circles),
            )
        )
        for chain in comp_below:
            chain.hi_atom = idx
        for r in comp_above:
            new_open.append(open_chain(m - 2, r, idx))
    open_chains = new_open

    # lam = a: every minor-axis bounce orbit closes one torus family.
    circles_a = axis_bounce_circles(book, "y")
    attach: dict[int, list[_Chain]] = {i: [] for i in range(len(circles_a))}
    stray: list[_Chain] = []
    for chain in open_chains:
        key = chain.regime.reflection_key(signed=True)
        matched = [
            ci for ci, c in enumerate(circles_a) if c.reflection_key(signed=True) == key
        ]
        if len(matched) == 1:
            attach[matched[0]].append(chain)
        else:
            stray.append(chain)
    for ci, c in enumerate(circles_a):
        hooked = attach[ci]
        if not hooked:
            add_atom(FomenkoAtom(fam.a, "Unknown", 1, -1, c.describe(), (c,)))
            continue
        typ = "A" if len(hooked) == 1 else "Unknown"
        idx = add_atom(
            FomenkoAtom(fam.a, typ, 1, SEPARATRIX_COUNT.get(typ, -1), c.describe(), (c,))
        )
        for chain in hooked:
            chain.hi_atom = idx
    for chain in stray:
        chain.hi_atom = add_atom(
            FomenkoAtom(fam.a, "Unknown", 0, -1, "no minor-axis orbit matched")
        )

    edges: list[tuple[int, int, RegimeDescriptor]] = []
    for chain in all_chains:
        if chain.hi_atom is None:  # pragma: no cover - every chain terminates
            raise TopologyError("torus family left open")
        first_i, first_r = chain.segments[0]
        last_i, _ = chain.segments[-1]
        merged = RegimeDescriptor(
            caustic_interval=(levels[first_i], levels[last_i + 1]),
            states=first_r.states,
            orientation=first_r.orientation,
            witness=first_r.witness,
            reflection_states=first_r.reflection_states,
        )
        edges.append((chain.lo_atom, chain.hi_atom, merged))
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
    lams = sorted({round(a.lam, 9) for a in graph.atoms})
    return [(lams.index(round(a.lam, 9)), a.type) for a in graph.atoms]


def graphs_isomorphic(g1: FomenkoGraph, g2: FomenkoGraph) -> bool:
    """Exact isomorphism preserving atom types, the ordering of critical
    levels, and edge incidence (multigraph-aware)."""
    if len(g1.atoms) != len(g2.atoms) or len(g1.edges) != len(g2.edges):
        return False
    keys1 = _atom_rank_keys(g1)
    keys2 = _atom_rank_keys(g2)
    if Counter(keys1) != Counter(keys2):
        return False

    groups1: dict[tuple, list[int]] = {}
    groups2: dict[tuple, list[int]] = {}
    for i, k in enumerate(keys1):
        groups1.setdefault(k, []).append(i)
    for i, k in enumerate(keys2):
        groups2.setdefault(k, []).append(i)

    def edge_multiset(graph: FomenkoGraph, mapping: dict[int, int] | None) -> Counter:
        out: Counter = Counter()
        for i, j, _ in graph.edges:
            a, b = (mapping[i], mapping[j]) if mapping else (i, j)
            out[(min(a, b), max(a, b))] += 1
        return out

    target = edge_multiset(g2, None)
    group_keys = sorted(groups1)
    for assignment in product(*(permutations(groups2[k]) for k in group_keys)):
        mapping: dict[int, int] = {}
        for k, perm in zip(group_keys, assignment):
            for src, dst in zip(groups1[k], perm):
                mapping[src] = dst
        if edge_multiset(g1, mapping) == target:
            return True
    return False


def graph_from_census(
    atoms: list[tuple[float, str]], edges: list[tuple[int, int]]
) -> FomenkoGraph:
    """Hand-built comparison graph: atoms as (lambda, type), edges by index."""
    built = [
        FomenkoAtom(lam, typ, {"A": 1, "B": 1, "C2": 2}.get(typ, 0),
                    SEPARATRIX_COUNT.get(typ, -1), "reference")
        for lam, typ in atoms
    ]
    dummy = [
        (i, j, RegimeDescriptor((built[i].lam, built[j].lam), (), 1))
        for i, j in edges
    ]
    return FomenkoGraph(built, dummy)


def to_dot(graph: FomenkoGraph) -> str:
    """Deterministic DOT rendering: vertices ``type@lambda``, edges labelled
    by their caustic interval."""
    order = sorted(
        range(len(graph.atoms)),
        key=lambda i: (graph.atoms[i].lam, graph.atoms[i].type, graph.atoms[i].description),
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
