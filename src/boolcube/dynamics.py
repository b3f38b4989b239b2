"""Asynchronous dynamics: state graph, attractors, convergence predicates.

The asynchronous state graph has an arc x -> x with component i flipped for
every component where f_i(x) differs from x_i, so the out-degree of x is the
Hamming distance between x and f(x).  Attractors are the terminal strongly
connected components; a punctual one is exactly a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypercube import Point, coordinate_sets
from .network import BooleanNetwork, check_width, conjugate_codes, fixed_point_codes, memo
from .network import unstable_sets

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


def _tarjan_components(unstable: tuple[int, ...]) -> tuple[list[list[int]], int]:
    """Iterative Tarjan: (the terminal components, the number of components).
    index[x] is -1 until x is reached and len(unstable) once its component closes;
    x leaves its component by an arc into a closed one or through a child that does."""
    size = len(unstable)
    index = [-1] * size
    low = [0] * size
    leaves = bytearray(size)
    stack: list[int] = []
    terminal: list[list[int]] = []
    count = counter = 0
    for root in range(size):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        call = [(root, unstable[root])]
        while call:
            v, pending = call[-1]
            while pending:
                bit = pending & -pending
                pending ^= bit
                w = v ^ bit
                if index[w] == -1:
                    call[-1] = (v, pending)
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    call.append((w, unstable[w]))
                    break
                if index[w] == size:
                    leaves[v] = 1
                elif index[w] < low[v]:
                    low[v] = index[w]
            else:
                call.pop()
                if low[v] == index[v]:
                    count += 1
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = size
                    if not leaves[v]:
                        terminal.append(comp)
                if call:
                    u = call[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if leaves[v] or index[v] == size:
                        leaves[u] = 1
    return terminal, count


@memo
def _terminal_components(f: BooleanNetwork) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """(terminal SCCs sorted by smallest state, whether the graph is acyclic)."""
    unstable = conjugate_codes(f)
    terminal, count = _tarjan_components(unstable)
    return tuple(sorted(tuple(sorted(comp)) for comp in terminal)), count == len(unstable)


@memo
def attractors(f: BooleanNetwork) -> tuple[Attractor, ...]:
    check_width("the state graph", f.width, WIDTH_CAP)
    terminal, _ = _terminal_components(f)
    return tuple(Attractor(f.components, frozenset(comp)) for comp in terminal)


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
    target = fixed[0]
    sets = tuple(zip(coordinate_sets(f.width), unstable_sets(f)))
    layer = reached = 1 << target
    while layer:
        step = 0
        for k, (x, unstable) in enumerate(sets):
            if target >> k & 1:
                step |= (layer & x) >> (1 << k) & unstable
            else:
                step |= (layer & ~x) << (1 << k) & unstable
        layer = step
        reached |= step
    return reached == (1 << len(f.table)) - 1


@memo
def strong_convergence(f: BooleanNetwork) -> bool:
    """A unique fixed point and an acyclic state graph."""
    check_width("the state graph", f.width, WIDTH_CAP)
    if len(fixed_point_codes(f)) != 1:
        return False
    _, acyclic = _terminal_components(f)
    return acyclic
