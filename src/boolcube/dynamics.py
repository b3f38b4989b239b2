"""Asynchronous dynamics: state graph, attractors, convergence predicates.

The asynchronous state graph has an arc x -> x with component i flipped for
every component where f_i(x) differs from x_i, so the out-degree of x is the
Hamming distance between x and f(x).  Attractors are the terminal strongly
connected components; a punctual one is exactly a fixed point.

Attractors and strong convergence are found by reachability on point sets,
bitsets over the 2^n states as in hypercube.  With U_k the states unstable at
k (network.unstable_sets) and flip_k(S) = (S & X_k) >> 2^k | (S << 2^k) & X_k
the move of S across e_k, the successors of S are the union over k of
flip_k(S & U_k) and its predecessors the union of flip_k(S) & U_k.  A closure
steps layer by layer, marking the states it reaches in one byte of flags per
state: a thick layer by these bit-plane images, a thin one point by point.
So a closure costs about what it reaches: a state graph that is one long path
is walked in linear time, and 2^(n-1) two-state attractors cost about 2^n
steps in all, not 2^(n-1) passes over the 2^n states.  Weak convergence is a
layered walk of the same kind back from the fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count

from .hypercube import Point, coordinate_sets
from .network import BooleanNetwork, check_width, conjugate_codes, fixed_point_codes, memo
from .network import plane_codes, unstable_sets

WIDTH_CAP = 20


@dataclass(frozen=True)
class StateGraph:
    """unstable[x] = f(x) xor x: bit k set is the arc x -> x xor e_k; a zero is a fixed point."""

    components: tuple[str, ...]
    unstable: tuple[int, ...]

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arc_list())

    def arc_list(self) -> tuple[tuple[int, int], ...]:
        """Arcs by source, then target: for each x, the flips that clear a bit
        of x from the highest bit down, then those that set one from the lowest up."""
        arcs = []
        for x, diff in enumerate(self.unstable):
            down = diff & x
            up = diff ^ down
            while down:
                high = 1 << down.bit_length() - 1
                arcs.append((x, x ^ high))
                down ^= high
            while up:
                low = up & -up
                arcs.append((x, x ^ low))
                up ^= low
        return tuple(arcs)

    def point(self, code: int) -> Point:
        return Point(self.components, code)


@dataclass(frozen=True)
class Attractor:
    components: tuple[str, ...]
    states: frozenset[int]

    @property
    def cyclic(self) -> bool:
        return len(self.states) > 1

    def state_points(self) -> tuple[Point, ...]:
        return tuple(Point(self.components, code) for code in sorted(self.states))


def asynchronous_state_graph(f: BooleanNetwork) -> StateGraph:
    check_width("the state graph", f.width, WIDTH_CAP)
    return StateGraph(f.components, conjugate_codes(f))


# A state's flag in a closure's marks: free to join, or not.
_ONE, _ZERO = b"10"
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


@memo
def _arc_planes(f: BooleanNetwork) -> tuple[tuple[int, int, int], ...]:
    """Per component k, (2^k, U_k & X_k, U_k & ~X_k): a state of the first
    set steps along e_k to x - 2^k, one of the second to x + 2^k."""
    cube = coordinate_sets(f.width)
    return tuple([(1 << k, u & x, u & ~x) for k, x, u in zip(count(), cube, unstable_sets(f))])


@memo
def _predecessor_codes(f: BooleanNetwork) -> tuple[int, ...]:
    """Entry x has bit k set when x xor e_k steps to x: the planes flip_k(U_k)."""
    planes = [down >> step | up << step for step, down, up in _arc_planes(f)]
    return plane_codes(planes, len(f.table))


def _successors(planes, layer: int, free: int) -> int:
    """succ(S), the union over k of flip_k(S & U_k)."""
    out = 0
    for step, down, up in planes:
        out |= (layer & down) >> step | (layer & up) << step
    return out


def _predecessors(planes, layer: int, free: int) -> int:
    """pred(S), the union over k of flip_k(S) & U_k."""
    out = 0
    for step, down, up in planes:
        out |= layer << step & down | layer >> step & up
    return out


def _settled(planes, layer: int, free: int) -> int:
    """The states of pred(S) none of whose successors is free."""
    return _predecessors(planes, layer, free) & ~_predecessors(planes, free, free)


# A closure's direction: its bit-plane step, the per-state codes of its
# point-by-point step, and for the settling closure, whose states wait until
# none of their successors is free, the codes of those successors.
_FORWARD = (_successors, conjugate_codes, None)
_BACKWARD = (_predecessors, _predecessor_codes, None)
_SETTLING = (_settled, _predecessor_codes, conjugate_codes)


def _walk(points, free: bytearray, codes, cap: int, settle, joined: list) -> tuple[list, list]:
    """Steps thin layers point by point: q joins from p when bit p xor q is
    set in codes[p] and free[q] is, and with settle, the conjugate codes, only
    once none of q's successors is free; it is then marked in free and
    appended to joined.  Returns (the last layer stepped, the next) once the
    next is empty or has more than cap states."""
    while True:
        out = []
        for p in points:
            diff = codes[p]
            while diff:
                bit = diff & -diff
                diff ^= bit
                q = p ^ bit
                if free[q] != _ONE:
                    continue
                if settle is not None:
                    ahead = settle[q]
                    while ahead and free[q ^ (ahead & -ahead)] != _ONE:
                        ahead &= ahead - 1
                    if ahead:
                        continue
                free[q] = _ZERO
                out.append(q)
        joined += out
        if not out or len(out) > cap:
            return points, out
        points = out


def _point_set(codes, size: int) -> int:
    """The point set of the listed states, built through their flags."""
    flags = bytearray(b"0") * size
    for x in codes:
        flags[x] = _ONE
    return int(flags[::-1], 2)


def _flags(points: int, size: int) -> bytes:
    """The flags of a point set, state x at index x."""
    return format(points, f"0{size}b").encode()[::-1]


def _members(points: int) -> tuple[int, ...]:
    """The states of a point set in ascending order, in one pass over its bits."""
    return tuple(compress(count(), bin(points)[:1:-1].encode().translate(_DIGIT_VALUES)))


def _closure(f: BooleanNetwork, free: bytearray, seeds, direction) -> tuple[list, int, list]:
    """Joins to seeds, whose flags the caller has cleared, every state their
    closure in direction reaches through states flagged free, clearing each
    flag.  Layer 0 is seeds, and layer d + 1 the free states that one step
    from layer d reaches.  Returns (the states joined point by point, in
    order; the point set of those joined by bit planes; the last layer).

    A thin layer, one of at most 2^n / 128 states, steps point by point in
    _walk, at a few operations per arc it follows.  A thick one steps by its
    bit-plane image, the direction's first entry, at about n words per 64
    states, with the flags read into a point set and written back once a
    layer is thin again; that pass over the flags is paid for by the more
    than 2^n / 128 states of the thick layer before it.  So a closure costs
    in proportion to the states it reaches: one from a single state that
    stays thin never reads all of free, and a 2^n-long path walks in linear
    time.  Below 128 states every layer is thick, and a bit-plane step reads
    one or two words per plane.
    """
    bulk, codes, settle = direction
    size = len(free)
    cap = size >> 7
    walked: list[int] = []
    stepped = 0
    last = layer = seeds
    while layer:
        if len(layer) <= cap:
            last, layer = _walk(layer, free, codes(f), cap, settle and settle(f), walked)
            continue
        planes, avail, points = _arc_planes(f), int(free[::-1], 2), _point_set(layer, size)
        while True:
            ahead = bulk(planes, points, avail) & avail
            avail ^= ahead
            stepped |= ahead
            if ahead.bit_count() <= cap:
                break
            points = ahead
        free[:] = _flags(avail, size)
        layer = _members(ahead)
        if not layer:
            last = _members(points)
    return walked, stepped, last


def _mark(flags: bytearray, states, points: int) -> None:
    """Sets the flags of the listed states and of a point set."""
    for x in states:
        flags[x] = _ONE
    if points:
        flags[:] = _flags(int(flags[::-1], 2) | points, len(flags))


@memo
def _terminal_components(f: BooleanNetwork) -> tuple[tuple[int, ...], ...]:
    """The terminal SCCs, each sorted, sorted by smallest state.

    Each fixed point is one, and the states that reach one are set aside:
    rest flags the states not set aside, and unseen those outside F.  From
    the lowest state x of rest, F = fwd*(x) is closed under successors, and
    R = bwd*(x) is taken within rest.  When R holds all of F, F is a terminal
    component and R = bwd*(F) is set aside.  Otherwise no state y of F - R
    reaches x, so fwd*(y) is a smaller closed set within F - R, and the
    search goes on from y, a state of F's farthest layer when that layer
    leaves R; F and R are then cleared from the flags.  No path from a state
    of rest leads to one set aside, so neither closure needs the states set
    aside.  Each step costs in proportion to the states its closures reach,
    so an attractor costs about its size, its basin and the closed sets tried
    on the way down to it, not 2^n.
    """
    size = len(f.table)
    fixed = fixed_point_codes(f)
    rest = bytearray(b"1") * size
    for x in fixed:
        rest[x] = _ZERO
    _closure(f, rest, fixed, _BACKWARD)
    unseen = bytearray(b"1") * size
    comps = [(x,) for x in fixed]
    start = rest.find(_ONE)
    while start >= 0:
        x = start
        while True:
            unseen[x] = rest[x] = _ZERO
            walked, stepped, last = _closure(f, unseen, (x,), _FORWARD)
            back, back_stepped, _ = _closure(f, rest, (x,), _BACKWARD)
            y = next((y for y in chain(last, reversed(walked)) if rest[y] == _ONE), None)
            if y is None and stepped:
                left = stepped & int(rest[::-1], 2)
                y = (left & -left).bit_length() - 1 if left else None
            if y is None:
                break
            _mark(unseen, (x, *walked), stepped)
            _mark(rest, (x, *back), back_stepped)
            x = y
        if stepped:
            comps.append(_members(stepped | _point_set((x, *walked), size)))
        else:
            comps.append(tuple(sorted((x, *walked))))
        start = rest.find(_ONE, start)
    return tuple(sorted(comps))


@memo
def attractors(f: BooleanNetwork) -> tuple[Attractor, ...]:
    check_width("the state graph", f.width, WIDTH_CAP)
    return tuple(Attractor(f.components, frozenset(comp)) for comp in _terminal_components(f))


@memo
def attractor_summary(f: BooleanNetwork) -> tuple[int, bool]:
    """(number of attractors, whether any is cyclic); cached for sweeps."""
    atts = attractors(f)
    return len(atts), any(a.cyclic for a in atts)


@memo
def weak_convergence(f: BooleanNetwork) -> bool:
    """A unique fixed point t reachable from every state along a geodesic: the
    states at distance d + 1 that do are those where flipping an unstable k
    gives a state at distance d that does and agrees with t at k."""
    check_width("the state graph", f.width, WIDTH_CAP)
    fixed = fixed_point_codes(f)
    if len(fixed) != 1:
        return False
    target, planes = fixed[0], _arc_planes(f)
    layer = reached = 1 << target
    while layer:
        step = 0
        for k, (s, down, up) in enumerate(planes):
            step |= layer >> s & up if target >> k & 1 else layer << s & down
        layer = step
        reached |= step
    return reached == (1 << len(f.table)) - 1


@memo
def strong_convergence(f: BooleanNetwork) -> bool:
    """A unique fixed point and an acyclic state graph.  The graph is acyclic
    when every state settles, the fixed point first and then each state all of
    whose successors have settled: a state on a cycle never does."""
    check_width("the state graph", f.width, WIDTH_CAP)
    fixed = fixed_point_codes(f)
    if len(fixed) != 1:
        return False
    settled = bytearray(b"1") * len(f.table)
    settled[fixed[0]] = _ZERO
    walked, stepped, _ = _closure(f, settled, fixed, _SETTLING)
    return len(walked) + stepped.bit_count() == len(f.table) - 1
