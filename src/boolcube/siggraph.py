"""Signed digraphs, interaction graphs, cycles, circular and and-net forms.

Arcs are (source, sign, target) with sign +1 or -1; loops are admitted and a
graph may carry both a positive and a negative arc on the same ordered pair
(then it is not simple).  The local interaction graph at a point collects the
signs of the nonzero discrete derivatives there; the global graph is the union
over all points.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, permutations, product
from operator import mul, or_
from typing import Iterable, Iterator, Sequence

from .hypercube import (
    FormatError, Point, check_components, coordinate_sets, cube_literals, parse_header
)
from .network import BooleanNetwork, check_width, memo, output_bitsets, unstable_sets

Arc = tuple[str, int, str]
# (positive, negative): bit i of pos[j] (neg[j]) is an arc j -> i of sign +1 (-1)
Rows = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SignedDigraph:
    vertices: tuple[str, ...]
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        check_components(self.vertices)
        known = set(self.vertices)
        for src, sign, dst in self.arcs:
            if sign not in (1, -1):
                raise ValueError(f"arc sign must be +1 or -1, got {sign!r}")
            if src not in known or dst not in known:
                raise ValueError(f"arc ({src!r}, {sign}, {dst!r}) uses unknown vertices")

    @property
    def is_simple(self) -> bool:
        return len({(src, dst) for src, _, dst in self.arcs}) == len(self.arcs)

    def arc_list(self) -> tuple[Arc, ...]:
        index = {v: k for k, v in enumerate(self.vertices)}
        return tuple(
            sorted(self.arcs, key=lambda a: (index[a[0]], index[a[2]], -a[1]))
        )


@memo
def graph_rows(g: SignedDigraph) -> Rows:
    """(positive, negative) adjacency masks indexed by source vertex."""
    index = {v: k for k, v in enumerate(g.vertices)}
    pos = [0] * len(g.vertices)
    neg = [0] * len(g.vertices)
    for src, sign, dst in g.arcs:
        if sign == 1:
            pos[index[src]] |= 1 << index[dst]
        else:
            neg[index[src]] |= 1 << index[dst]
    return tuple(pos), tuple(neg)


def graph_from_rows(
    vertices: tuple[str, ...], pos: tuple[int, ...], neg: tuple[int, ...]
) -> SignedDigraph:
    arcs = set()
    for j, src in enumerate(vertices):
        for i, dst in enumerate(vertices):
            if pos[j] >> i & 1:
                arcs.add((src, 1, dst))
            if neg[j] >> i & 1:
                arcs.add((src, -1, dst))
    return SignedDigraph(vertices, frozenset(arcs))


def cycle_sign(signs: tuple[int, ...]) -> int:
    """The sign of a cycle from its arc signs: positive iff the number of
    negative arcs is even."""
    return -1 if signs.count(-1) & 1 else 1


@dataclass(frozen=True)
class Cycle:
    """A cycle of a signed digraph, rotation-normalized.

    vertices[0] is the smallest vertex in the parent graph's order; signs[k]
    is the sign of the arc vertices[k] -> vertices[(k+1) % length].
    """

    vertices: tuple[str, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices or len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle vertices must be nonempty and distinct")
        if len(self.signs) != len(self.vertices) or any(
            s not in (1, -1) for s in self.signs
        ):
            raise ValueError("need one sign of +1/-1 per arc")

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def sign(self) -> int:
        return cycle_sign(self.signs)

    def arcs(self) -> tuple[Arc, ...]:
        n = len(self.vertices)
        return tuple(
            (self.vertices[k], self.signs[k], self.vertices[(k + 1) % n])
            for k in range(n)
        )

    def __str__(self) -> str:
        parts = []
        for v, s in zip(self.vertices, self.signs):
            parts.append(v)
            parts.append("+" if s == 1 else "-")
        return "(" + " ".join(parts) + ")"


def discrete_derivative(f: BooleanNetwork, i: str, j: str, x: Point) -> int:
    """f_i(x with x_j=1) minus f_i(x with x_j=0); one of -1, 0, +1: the sign
    of the arc j -> i of the local interaction graph at x, 0 without one."""
    if i not in f.components or j not in f.components:
        raise ValueError("unknown component label")
    arcs = local_interaction_graph(f, x).arcs
    return ((j, 1, i) in arcs) - ((j, -1, i) in arcs)


def point_rows(n: int, table: tuple[int, ...], x: int) -> Rows:
    """The rows of the local interaction graph at x: j -> i is positive where
    f_i rises along e_j, negative where it falls."""
    pos = []
    neg = []
    for j in range(n):
        bit = 1 << j
        hi = table[x | bit]
        lo = table[x & ~bit]
        diff = hi ^ lo
        pos.append(diff & hi)
        neg.append(diff & lo)
    return tuple(pos), tuple(neg)


@memo
def local_rows(f: BooleanNetwork) -> tuple[Rows, ...]:
    """point_rows at every point x, indexed by x."""
    n, table = f.width, f.table
    return tuple(point_rows(n, table, x) for x in range(1 << n))


@memo
def local_arc_sets(f: BooleanNetwork) -> tuple[tuple[int, ...], ...]:
    """A[j][i], the points x where j -> i is an arc of G(f, x) of either sign:
    f_i changes along e_j there, so A[j][i] = O_i ^ flip_j(O_i), where
    flip_j(S) = (S & X_j) >> 2^j | (S & ~X_j) << 2^j moves S across e_j."""
    ones = output_bitsets(f)
    full = (1 << len(f.table)) - 1
    arcs = []
    for j, x in enumerate(coordinate_sets(f.width)):
        step, off = 1 << j, full ^ x
        arcs.append(tuple([o ^ ((o & x) >> step | (o & off) << step) for o in ones]))
    return tuple(arcs)


def has_local_loop(f: BooleanNetwork, sign: int) -> bool:
    """Some G(f, x) has a loop of the sign, 0 positive or 1 negative.

    A loop i -> i lies on an e_i-edge and is the same at both ends: positive
    where both are i-stable, negative where both are i-unstable.  With V the
    i-stable set ~U_i or the i-unstable set U_i, the lower such ends, off
    X_i, are V & (V >> 2^i), since ~U >> s is ~(U >> s)."""
    full = (1 << len(f.table)) - 1
    for i, (u, x) in enumerate(zip(unstable_sets(f), coordinate_sets(f.width))):
        v = u if sign else ~u
        if v & v >> (1 << i) & (full ^ x):
            return True
    return False


@memo
def local_girth_sets(f: BooleanNetwork) -> tuple[int, ...]:
    """Entry k - 1 is the set of points whose local graph has a cycle of
    length <= k, for k = 1..n.

    A walk from v through the vertices >= v is one list of point sets per
    length: entry i - v holds the points where such a walk leads from v to i.
    A closed walk at x holds a cycle at x no longer than it, and a shortest
    cycle at x is a closed walk from its smallest vertex, so the first length
    that closes a walk at x is x's girth.  A point found at one length is
    dropped from the later walks, and the walks from v stop after n - v
    steps, the longest cycle on the vertices >= v.
    """
    n = f.width
    arcs = local_arc_sets(f)
    full = (1 << len(f.table)) - 1
    # the walks of length 1 are the arcs out of v, the closed ones its loops
    walks = [arcs[v][v:] for v in range(n)]
    found = 0
    for v in range(n):
        found |= arcs[v][v]
    sets = [found]
    for length in range(2, n + 1):
        if found == full:
            break
        alive = full ^ found
        for v in range(n - length + 1):
            step = None
            for j, reach in enumerate(walks[v], v):
                reach &= alive
                if reach:
                    row = arcs[j][v:]
                    if step is None:
                        step = [reach & a for a in row]
                    else:
                        step = [s | reach & a for s, a in zip(step, row)]
            walks[v] = step or ()
            if step:
                found |= step[0]
        sets.append(found)
    return tuple(sets + [found] * (n - len(sets)))


@memo
def global_rows(f: BooleanNetwork) -> Rows:
    return bitset_global_rows(f.width, output_bitsets(f))


def local_interaction_graph(f: BooleanNetwork, x: Point) -> SignedDigraph:
    if x.components != f.components:
        raise ValueError("point components do not match the network")
    pos, neg = point_rows(f.width, f.table, x.code)
    return graph_from_rows(f.components, pos, neg)


def global_interaction_graph(f: BooleanNetwork) -> SignedDigraph:
    pos, neg = global_rows(f)
    return graph_from_rows(f.components, pos, neg)


def transpose(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of the reversed graph: bit j of out[i] is bit i of rows[j]."""
    out = [0] * n
    for j, targets in enumerate(rows):
        while targets:
            low = targets & -targets
            out[low.bit_length() - 1] |= 1 << j
            targets ^= low
    return tuple(out)


def rows_reach(rows: tuple[int, ...], start: int, allowed: int = -1) -> int:
    """Mask of the vertices reached from the vertex mask start by one or more
    arcs, each ending inside the vertex mask allowed."""
    reached = 0
    frontier = start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            step |= rows[low.bit_length() - 1]
        frontier = step & allowed & ~reached
        reached |= frontier
    return reached


def _unsigned_cycles(n: int, adj: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Simple cycles as index tuples starting at their smallest vertex, one
    at a time.

    A backtracking search from each start s that enters only the vertices
    above s able to get back to s (Tiernan's search, pruned by reachability).
    """
    radj = transpose(n, adj)
    for s in range(n):
        live = rows_reach(radj, 1 << s, -(2 << s))
        if adj[s] >> s & 1:
            yield (s,)
        path = [s]
        seen = 0
        # pending[k] holds the targets path[k] has still to try.
        pending = [adj[s] & live]
        while pending:
            targets = pending[-1]
            if not targets:
                pending.pop()
                seen &= ~(1 << path.pop())
                continue
            low = targets & -targets
            pending[-1] = targets ^ low
            v = low.bit_length() - 1
            path.append(v)
            seen |= low
            if adj[v] >> s & 1:
                yield tuple(path)
            pending.append(adj[v] & live & ~seen)


def rows_chordless_cycles(n: int, adj: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Chordless cycles as index tuples starting at their smallest vertex s,
    one at a time.

    A loop is a chordless 1-cycle, and a chord of every longer cycle through
    its vertex.  From each unlooped s, induced paths grow through the unlooped
    vertices above s: w may follow the last vertex when no earlier path vertex
    has an arc to w and w has none into the path but to s.  An arc w -> s
    closes a chordless cycle, and that path goes no further.
    """
    loops = 0
    for v, row in enumerate(adj):
        loops |= row & 1 << v
    for s in range(n):
        bit = 1 << s
        if loops & bit:
            yield (s,)
            continue
        free = -(bit << 1) & ~loops
        path = [s]
        inner = 0  # the path without s
        # banned[k] holds path[1:k + 1] and the targets of path[:k]
        banned = [0]
        pending = [adj[s] & free]
        while pending:
            targets = pending[-1]
            if not targets:
                pending.pop()
                banned.pop()
                inner &= ~(1 << path.pop())
                continue
            low = targets & -targets
            pending[-1] = targets ^ low
            w = low.bit_length() - 1
            row = adj[w]
            if row & inner:
                continue
            if row & bit:
                yield (*path, w)
                continue
            ban = banned[-1] | adj[path[-1]] | low
            path.append(w)
            inner |= low
            banned.append(ban)
            pending.append(row & free & ~ban)


def rows_cycle_signings(
    verts: tuple[int, ...], pos: tuple[int, ...], neg: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """The sign tuples of a cycle's arcs, positive first where an arc carries
    both signs."""
    options = []
    for j, i in zip(verts, verts[1:] + verts[:1]):
        options.append((1,) * (pos[j] >> i & 1) + (-1,) * (neg[j] >> i & 1))
    return product(*options)


def rows_signed_cycles(
    n: int, pos: tuple[int, ...], neg: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(vertex indices, signs) per cycle, sorted by length, vertices, signs;
    both-sign arcs expand to two cycles.  Nothing is cached across calls."""
    out = [
        (verts, signs)
        for verts in _unsigned_cycles(n, tuple(map(or_, pos, neg)))
        for signs in rows_cycle_signings(verts, pos, neg)
    ]
    out.sort(key=lambda c: (len(c[0]), c[0], c[1]))
    return out


def enumerate_cycles(g: SignedDigraph) -> tuple[Cycle, ...]:
    """Every cycle exactly once, sorted by length, vertex sequence, signs."""
    pos, neg = graph_rows(g)
    n = len(g.vertices)
    return tuple(
        Cycle(tuple(g.vertices[v] for v in verts), signs)
        for verts, signs in rows_signed_cycles(n, pos, neg)
    )


def _cycle_indices(g: SignedDigraph, cycle: Cycle) -> tuple[int, ...]:
    index = {v: k for k, v in enumerate(g.vertices)}
    for v in cycle.vertices:
        if v not in index:
            raise ValueError(f"cycle vertex {v!r} is not in the graph")
    return tuple(index[v] for v in cycle.vertices)


def rows_chordless(
    verts: tuple[int, ...], pos: tuple[int, ...], neg: tuple[int, ...]
) -> bool:
    """No arc joins two cycle vertices besides the cycle's own arcs: each
    cycle vertex's targets on the cycle are exactly its successor."""
    members = sum(1 << v for v in verts)
    successors = verts[1:] + verts[:1]
    return all(
        (pos[j] | neg[j]) & members == 1 << i for j, i in zip(verts, successors)
    )


def rows_delocalizers(
    verts: tuple[int, ...], pos: tuple[int, ...], neg: tuple[int, ...]
) -> int:
    """Mask of the vertices sending a positive and a negative arc into
    distinct cycle vertices."""
    members = sum(1 << v for v in verts)
    out = 0
    for j, (p, m) in enumerate(zip(pos, neg)):
        p &= members
        m &= members
        if p and m and (p | m).bit_count() >= 2:
            out |= 1 << j
    return out


def is_chordless(g: SignedDigraph, cycle: Cycle) -> bool:
    """No arc of |g| joins two cycle vertices besides the cycle's own arcs."""
    return rows_chordless(_cycle_indices(g, cycle), *graph_rows(g))


def delocalizing_vertices(g: SignedDigraph, cycle: Cycle) -> tuple[str, ...]:
    """Vertices sending a positive and a negative arc into distinct cycle vertices."""
    found = rows_delocalizers(_cycle_indices(g, cycle), *graph_rows(g))
    return tuple(v for j, v in enumerate(g.vertices) if found >> j & 1)


@dataclass(frozen=True)
class CircularForm:
    """f(x) = sigma(x) xor s for a single cycle permutation sigma.

    predecessor[i] is the index of sigma(i), the unique in-neighbor of i;
    bit i of constant is 1 exactly when the arc sigma(i) -> i is negative.
    """

    components: tuple[str, ...]
    predecessor: tuple[int, ...]
    constant: int

    def __post_init__(self) -> None:
        check_components(self.components)
        n = len(self.components)
        if sorted(self.predecessor) != list(range(n)):
            raise ValueError("predecessor map must be a permutation")
        if not 0 <= self.constant < 1 << n:
            raise ValueError("constant out of range")
        if not _single_cycle(self.predecessor):
            raise ValueError("predecessor map must be a single cycle")

    @property
    def sign(self) -> int:
        """Positive iff the number of negative arcs is even."""
        return 1 if self.constant.bit_count() % 2 == 0 else -1

    def graph(self) -> SignedDigraph:
        arcs = set()
        for i, dst in enumerate(self.components):
            sign = -1 if self.constant >> i & 1 else 1
            arcs.add((self.components[self.predecessor[i]], sign, dst))
        return SignedDigraph(self.components, frozenset(arcs))


def circular_network(form: CircularForm) -> BooleanNetwork:
    """The and-net of the form's one cycle: f_i is x_sigma(i) or its negation."""
    return and_net(form.graph())


def bitset_global_rows(n: int, ones: Sequence[int]) -> Rows:
    """(positive, negative) global rows from the output bitsets O_i: off X_j,
    up = O_i >> 2^j is f_i(x + e_j) and d = (up ^ O_i) & ~X_j is where f_i
    changes along e_j, so j -> i is positive iff d & up, negative iff d & O_i."""
    pos = [0] * n
    neg = [0] * n
    for j, x in enumerate(coordinate_sets(n)):
        shift = 1 << j
        for i, o in enumerate(ones):
            up = o >> shift
            d = (up ^ o) & ~x
            if d & up:
                pos[j] |= 1 << i
            if d & o:
                neg[j] |= 1 << i
    return tuple(pos), tuple(neg)


def _single_cycle(pred: Sequence[int]) -> bool:
    """Following a permutation from 0 visits every index."""
    seen = v = 0
    for _ in pred:
        seen, v = seen | 1 << v, pred[v]
    return seen == (1 << len(pred)) - 1


def literal_cycle(
    literals: dict[int, tuple[int, int]], values: Iterable[int]
) -> tuple[tuple[int, ...], int] | None:
    """(predecessor map, constant) when each f_i, given as a bitset, is a
    literal of a distinct x_j and those choices form one cycle; stops at the
    first f_i that is not such a literal."""
    pred, constant = [], 0
    for b, value in enumerate(values):
        j, negated = literals.get(value, (-1, 0))
        if j < 0 or j in pred:
            return None
        pred.append(j)
        constant |= negated << b
    return (tuple(pred), constant) if _single_cycle(pred) else None


@memo
def detect_circular(f: BooleanNetwork) -> CircularForm | None:
    """The circular form of f, when G(f) is a cycle through every component."""
    found = literal_cycle(cube_literals(f.width), output_bitsets(f))
    return None if found is None else CircularForm(f.components, *found)


def and_net_table(
    n: int, pos: tuple[int, ...], neg: tuple[int, ...]
) -> tuple[int, ...]:
    """The table of and_net for the (positive, negative) rows of a simple graph:
    f_i(x) = 0 where a positive arc j -> i has x_j = 0 or a negative one x_j = 1;
    disabled[x] holds those i, doubling per j with the x_j = 1 points second."""
    disabled = [0]
    for p, m in zip(pos, neg):
        disabled = [d | p for d in disabled] + [d | m for d in disabled]
    full = (1 << n) - 1
    # from a list: a freed table's block is drawn again, as in the census
    return tuple([full & ~d for d in disabled])


def and_net(g: SignedDigraph) -> BooleanNetwork:
    """The conjunctive network of a simple graph: f_i is the AND of its
    in-neighbors, each read positively or negatively per the arc sign; a
    vertex with no in-arc gets the constant 1."""
    if not g.is_simple:
        raise ValueError("and-nets are defined over simple graphs")
    return BooleanNetwork(g.vertices, and_net_table(len(g.vertices), *graph_rows(g)))


@memo
def is_and_net(f: BooleanNetwork) -> bool:
    """Each O_i is the AND of X_j over the positive arcs j -> i of G(f) and of
    ~X_j over the negative ones, the cube when i has none.  An arc of both
    signs makes that AND empty, but O_i is not: f_i varies along the arc."""
    pos, neg = global_rows(f)
    full = (1 << len(f.table)) - 1
    xs = coordinate_sets(f.width)
    for i, o in enumerate(output_bitsets(f)):
        want = full
        for p, m, x in zip(pos, neg, xs):
            if p >> i & 1:
                want &= x
            if m >> i & 1:
                want &= full ^ x
        if o != want:
            return False
    return True


def cyclic_components(n: int, adj: tuple[int, ...]) -> Iterator[int]:
    """Vertex mask of each strongly connected component holding a cycle, in
    the order of its lowest vertex: the vertices that vertex reaches both ways."""
    radj = None
    done = 0
    for v in range(n):
        if done >> v & 1:
            continue
        ahead = rows_reach(adj, 1 << v)
        if not ahead >> v & 1:
            continue
        if radj is None:
            radj = transpose(n, adj)
        comp = ahead & rows_reach(radj, 1 << v)
        done |= comp
        yield comp


def _parity_cover(n: int, pos: tuple[int, ...], neg: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of the parity double cover, 2n vertices: j + n*p is j reached by
    a walk with p negative arcs, mod 2, so a negative arc flips p."""
    even = [p | m << n for p, m in zip(pos, neg)]
    return tuple(even + [m | p << n for p, m in zip(pos, neg)])


def rows_has_loop(rows: tuple[int, ...]) -> bool:
    """Some vertex i has the loop i -> i: bit i of rows[i]."""
    bit = 1
    for row in rows:
        if row & bit:
            return True
        bit <<= 1
    return False


def rows_has_negative_cycle(
    n: int, pos: tuple[int, ...], neg: tuple[int, ...]
) -> bool:
    """A negative loop first, the cheapest negative cycle; then some v that
    reaches v + n in the parity cover: a closed walk from v with an odd
    number of negative arcs.  A closed walk splits into cycles and its sign
    is the product of theirs, so one of them is negative.  A vertex that v
    reaches with one parity only has no such walk, or it would reach itself
    with the other too, so it needs no search of its own."""
    if rows_has_loop(neg):
        return True
    cover = _parity_cover(n, pos, neg)
    low = (1 << n) - 1
    cleared = 0
    for v in range(n):
        if not cleared >> v & 1:
            reach = rows_reach(cover, 1 << v)
            if reach >> n + v & 1:
                return True
            cleared |= (reach ^ reach >> n) & low
    return False


def rows_has_positive_cycle(
    n: int, pos: tuple[int, ...], neg: tuple[int, ...]
) -> bool:
    """A positive loop first, the cheapest positive cycle.  Then a balanced
    component with a cycle has only positive ones; inside the unbalanced
    components that are more than one cycle, search the cycles for one that
    can be signed positively (a both-sign arc, or an even number of negative
    arcs)."""
    if rows_has_loop(pos):
        return True
    adj = tuple(map(or_, pos, neg))
    cover = _parity_cover(n, pos, neg)
    unbalanced = 0
    for comp in cyclic_components(n, adj):
        # Every arc inside a component lies on a cycle, so a both-sign arc
        # there gives a positive cycle.
        for u in range(n):
            if comp >> u & 1 and pos[u] & neg[u] & comp:
                return True
        # A negative cycle of a strongly connected component closes, with a
        # path there and back, an odd closed walk from its lowest vertex v;
        # without one the component is balanced and its cycles are positive.
        v = (comp & -comp).bit_length() - 1
        if not rows_reach(cover, 1 << v, comp | comp << n) >> n + v & 1:
            return True
        # With one arc out of each vertex, the component is a single cycle,
        # the negative one, and holds no positive cycle to search for.
        inside = sum((adj[u] & comp).bit_count() for u in range(n) if comp >> u & 1)
        if inside > comp.bit_count():
            unbalanced |= comp
    # No arc left here carries both signs, so a cycle is positive exactly
    # when it has an even number of negative arcs.
    return unbalanced != 0 and any(
        not sum(neg[j] >> i & 1 for j, i in zip(verts, verts[1:] + verts[:1])) & 1
        for verts in _unsigned_cycles(n, tuple(a & unbalanced for a in adj))
    )


def shih_dong_condition(f: BooleanNetwork) -> bool:
    """Every local interaction graph is acyclic."""
    return not local_girth_sets(f)[-1]


class CycleFilter(Enum):
    ALL = "All"
    POSITIVE_CHORDLESS = "PositiveChordless"
    NEGATIVE_CHORDLESS = "NegativeChordless"


@memo
def _chordless_census(f: BooleanNetwork) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positive, negative): entry k - 1 of each is the number of points whose
    shortest chordless local cycle of that sign has length k, chords judged
    in the local graph.  One kernel pass per point lists the chordless cycles
    of both signs at once: point_rows' positive and negative rows are
    disjoint, so each arc has one sign and a cycle's sign is the parity of
    its negative arcs.  Points that share a local graph share its pass: on a
    circular network every local graph is G(f)."""
    n, table = f.width, f.table
    census = ([0] * n, [0] * n)
    passes = {}
    for x in range(1 << n):
        rows = point_rows(n, table, x)
        shortest = passes.get(rows)
        if shortest is None:
            pos, neg = rows
            shortest = passes[rows] = [n + 1, n + 1]
            for verts in rows_chordless_cycles(n, tuple(map(or_, pos, neg))):
                odd = sum(neg[j] >> i & 1 for j, i in zip(verts, verts[1:] + verts[:1])) & 1
                shortest[odd] = min(shortest[odd], len(verts))
        for counts, length in zip(census, shortest):
            if length <= n:
                counts[length - 1] += 1
    return tuple(census[0]), tuple(census[1])


def counting_condition(f: BooleanNetwork, filt: CycleFilter = CycleFilter.ALL) -> bool:
    """For each k <= n, at most 2^k - 1 points see a qualifying local cycle of
    length <= k.  Qualifying: any cycle (All, read off local_girth_sets) or a
    chordless cycle of the given sign (read off _chordless_census)."""
    if filt is CycleFilter.ALL:
        counts = [found.bit_count() for found in local_girth_sets(f)]
    else:
        counts = accumulate(_chordless_census(f)[filt is CycleFilter.NEGATIVE_CHORDLESS])
    return all(count < 1 << k for k, count in enumerate(counts, 1))


def parse_sg(text: str) -> SignedDigraph:
    """Parse the .sg format: a vertices line, then one '<src> <+|-> <dst>' per arc."""
    vertices, lines = parse_header(text.splitlines(), "vertices", "graph")
    known = set(vertices)
    arcs = set()
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[1] not in ("+", "-"):
            raise FormatError(f"bad arc line {line!r}")
        src, sign_text, dst = parts
        if src not in known or dst not in known:
            raise FormatError(f"arc line {line!r} uses unknown vertices")
        arc = (src, 1 if sign_text == "+" else -1, dst)
        if arc in arcs:
            raise FormatError(f"duplicate arc {line!r}")
        arcs.add(arc)
    return SignedDigraph(vertices, frozenset(arcs))


def render_sg(g: SignedDigraph) -> str:
    lines = ["vertices " + " ".join(g.vertices)]
    lines.extend(
        f"{src} {'+' if sign == 1 else '-'} {dst}" for src, sign, dst in g.arc_list()
    )
    return "\n".join(lines) + "\n"


def load_sg(path: str) -> SignedDigraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sg(handle.read())


def simple_digraph_count(n: int) -> int:
    return 3 ** (n * n)


def simple_digraph_rows_from_index(n: int, index: int) -> Rows:
    """Decode base-3 digits, one per ordered pair (source, target), row-major.

    Digit 0 is no arc, 1 a positive arc, 2 a negative arc; covers every simple
    signed digraph on n vertices exactly once.
    """
    if not 0 <= index < simple_digraph_count(n):
        raise ValueError(f"digraph index {index} out of range for {n} vertices")
    pos = [0] * n
    neg = [0] * n
    for j in range(n):
        for i in range(n):
            digit = index % 3
            index //= 3
            if digit == 1:
                pos[j] |= 1 << i
            elif digit == 2:
                neg[j] |= 1 << i
    return tuple(pos), tuple(neg)


@lru_cache(maxsize=None)
def simple_digraph_orbits(n: int) -> tuple[array, array]:
    """The digraph indices of n vertices, split into orbits under relabelling
    the vertices, as (members, starts): orbit k is members[starts[k]:starts[k
    + 1]], in ascending order, and the orbits come in the order of their
    smallest member, the representative.  A permutation p moves the digit of
    the arc j -> i, at j*n + i, to the digit of p[j] -> p[i].  Two flat arrays
    hold the 3,411 orbits of n = 3 in about 0.2 MB; a tuple per orbit took
    0.9 MB."""
    check_width("the relabelling orbits", n, 3)
    cells = range(n * n)
    weights = [
        [3 ** (p[k // n] * n + p[k % n]) for k in cells] for p in permutations(range(n))
    ]
    seen = bytearray(simple_digraph_count(n))
    members, starts = array("l"), array("l")
    for index, done in enumerate(seen):
        if done:
            continue
        digits = [index // 3**k % 3 for k in cells]
        orbit = sorted({sum(map(mul, digits, w)) for w in weights})
        for m in orbit:
            seen[m] = 1
        starts.append(len(members))
        members.extend(orbit)
    starts.append(len(members))
    return members, starts

