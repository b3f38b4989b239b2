"""Asynchronous dynamics: state graph, attractors, convergence predicates.

The asynchronous state graph has an arc x -> x with component i flipped for
every component where f_i(x) differs from x_i, so the out-degree of x is the
Hamming distance between x and f(x).  Attractors are the terminal strongly
connected components; a punctual one is exactly a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypercube import Point, coordinate_sets
from .network import BooleanNetwork, check_width, fixed_point_codes, memo, unstable_sets

WIDTH_CAP = 20


@dataclass(frozen=True)
class StateGraph:
    """Arcs are (state code, state code) pairs differing in one component."""

    components: tuple[str, ...]
    arcs: frozenset[tuple[int, int]]

    def arc_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.arcs))

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
    succs = _successor_lists(f.table)
    return StateGraph(f.components, frozenset((x, y) for x, ys in enumerate(succs) for y in ys))


def _successor_lists(table: tuple[int, ...]) -> list[list[int]]:
    out = []
    for x, v in enumerate(table):
        diff = x ^ v
        succ = []
        while diff:
            low = diff & -diff
            succ.append(x ^ low)
            diff ^= low
        out.append(succ)
    return out


def _tarjan_components(succs: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    size = len(succs)
    index = [-1] * size
    low = [0] * size
    onstack = bytearray(size)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = 1
        call: list[tuple[int, int]] = [(root, 0)]
        while call:
            v, pos = call[-1]
            advanced = False
            while pos < len(succs[v]):
                w = succs[v][pos]
                pos += 1
                if index[w] == -1:
                    call[-1] = (v, pos)
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = 1
                    call.append((w, 0))
                    advanced = True
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            call.pop()
            if call:
                u = call[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


@memo
def _terminal_components(f: BooleanNetwork) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """(terminal SCCs sorted by smallest state, whether the graph is acyclic)."""
    succs = _successor_lists(f.table)
    comps = _tarjan_components(succs)
    comp_id = [0] * len(f.table)
    for k, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = k
    terminal = []
    acyclic = True
    for k, comp in enumerate(comps):
        if len(comp) > 1:
            acyclic = False
        if all(comp_id[w] == k for v in comp for w in succs[v]):
            terminal.append(tuple(sorted(comp)))
    terminal.sort(key=lambda comp: comp[0])
    return tuple(terminal), acyclic


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
