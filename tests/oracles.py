"""Brute-force reference implementations used to cross-check the package.

Everything here favours the most literal reading of a definition over speed.
Widths stay small in the tests, so quadratic and exponential loops are fine.
"""

from __future__ import annotations

import random
from itertools import accumulate, combinations, product
from operator import or_
from typing import Iterator

from boolcube import BooleanNetwork, FormatError, Point, SignedDigraph, hypercube, neighbor_set
from boolcube.hypercube import check_components
from boolcube.network import output_bitsets, table_eosd_class
from boolcube.siggraph import (
    Rows,
    _unsigned_cycles,
    cycle_sign,
    detect_circular,
    global_rows,
    literal_cycle,
    local_rows,
    point_rows,
    rows_chordless,
    rows_delocalizers,
    rows_signed_cycles,
)
from boolcube.subnetwork import (
    BaseProperty,
    item_circular_forms,
    item_fixed_point_counts,
    item_tables,
    subnetwork_plan,
)
from boolcube.theorems import _cycle_form


# -- reference networks and bit helpers ----------------------------------------


def _labels(n: int) -> tuple[str, ...]:
    return tuple(str(k + 1) for k in range(n))


def identity_network(n: int) -> BooleanNetwork:
    return BooleanNetwork(_labels(n), tuple(range(1 << n)))


def negation_network(n: int) -> BooleanNetwork:
    full = (1 << n) - 1
    return BooleanNetwork(_labels(n), tuple(x ^ full for x in range(1 << n)))


def constant_network(n: int, code: int) -> BooleanNetwork:
    return BooleanNetwork(_labels(n), tuple(code for _ in range(1 << n)))


def acyclic_network(n: int, seed: int) -> BooleanNetwork:
    """f_k a seeded random function of x_1 .. x_(k-1) alone, so G(f) and
    every subnetwork's graph are acyclic and no subnetwork is even- or
    odd-self-dual."""
    rng = random.Random(seed)
    rules = [rng.getrandbits(1 << k) for k in range(n)]
    table = tuple(
        sum((rule >> (x & (1 << k) - 1) & 1) << k for k, rule in enumerate(rules))
        for x in range(1 << n)
    )
    return BooleanNetwork(_labels(n), table)


def table_from_index(n: int, index: int) -> tuple[int, ...]:
    """The table decode as first written: one shift of the whole index per entry."""
    size = 1 << n
    return tuple(index >> (c * n) & (size - 1) for c in range(size))


def scatter_bits(code: int, mask: int) -> int:
    """Inverse of gather_bits: spread low-order bits of code onto mask positions."""
    out = 0
    while mask:
        low = mask & -mask
        if code & 1:
            out |= low
        code >>= 1
        mask ^= low
    return out


def format_code(code: int, width: int) -> str:
    """The bit string of a code, one character per component, first component first."""
    return "".join("1" if code >> k & 1 else "0" for k in range(width))


def parse_bn(text: str) -> BooleanNetwork:
    """The .bn decode as first written: a generator step per line for the
    header, then each row's two codes through parse_code (the library's, whose
    FormatError texts are the reference)."""
    content = filter(None, (raw.split("#", 1)[0].strip() for raw in text.splitlines()))
    first = next(content, None)
    if first is None:
        raise FormatError("empty network description")
    head = first.split()
    if head[0] != "components" or len(head) < 2:
        raise FormatError("first line must be: components <label> <label> ...")
    components = tuple(head[1:])
    try:
        check_components(components)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    n = len(components)
    rows = list(content)
    size = 1 << n
    if len(rows) != size:
        raise FormatError(f"expected {size} table rows, got {len(rows)}")
    table: list[int | None] = [None] * size
    for line in rows:
        parts = line.split()
        if len(parts) != 3 or parts[1] != "->":
            raise FormatError(f"bad table row {line!r}")
        src = hypercube.parse_code(parts[0], n)
        if table[src] is not None:
            raise FormatError(f"duplicate table row for input {parts[0]}")
        table[src] = hypercube.parse_code(parts[2], n)
    return BooleanNetwork(components, tuple(table))


def parse_code(text: str, width: int) -> int | None:
    """The code of a bit string, leftmost character first; None unless it is
    exactly width characters, each an ASCII 0 or 1."""
    if len(text) != width or any(ch not in ("0", "1") for ch in text):
        return None
    return sum(1 << k for k, ch in enumerate(text) if ch == "1")


# -- plain network predicates -------------------------------------------------


def fixed_point_list(f: BooleanNetwork) -> list[int]:
    return [x for x in range(1 << f.width) if f.table[x] == x]


def output_bitset(f: BooleanNetwork, i: int) -> int:
    """f_i as the bitset of the points where it is 1."""
    bit = 1 << i
    return int("".join(["1" if v & bit else "0" for v in reversed(f.table)]), 2)


def self_dual(f: BooleanNetwork) -> bool:
    mask = (1 << f.width) - 1
    return all(f.table[x ^ mask] == f.table[x] ^ mask for x in range(len(f.table)))


def parity_name(f: BooleanNetwork) -> str:
    image = {x ^ f.table[x] for x in range(len(f.table))}
    size = len(f.table)
    if image == {c for c in range(size) if bin(c).count("1") % 2 == 0}:
        return "even"
    if image == {c for c in range(size) if bin(c).count("1") % 2 == 1}:
        return "odd"
    return "neither"


def non_expansive(f: BooleanNetwork) -> bool:
    size = len(f.table)
    for x in range(size):
        for y in range(size):
            dist_in = bin(x ^ y).count("1")
            dist_out = bin(f.table[x] ^ f.table[y]).count("1")
            if dist_out > dist_in:
                return False
    return True


# -- subnetworks ---------------------------------------------------------------


def sub_table(f: BooleanNetwork, free: list[str], frozen: dict[str, int]) -> tuple[int, ...]:
    """Freeze the components outside `free` and project the outputs onto `free`."""
    free = [c for c in f.components if c in free]
    table = []
    for y in range(1 << len(free)):
        x = 0
        for pos, label in enumerate(f.components):
            if label in frozen:
                bit = frozen[label]
            else:
                bit = y >> free.index(label) & 1
            x |= bit << pos
        value = f.table[x]
        out = 0
        for k, label in enumerate(free):
            out |= (value >> f.components.index(label) & 1) << k
        table.append(out)
    return tuple(table)


def strict_sub_items(f: BooleanNetwork) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(free mask, frozen code, table) of every strict subnetwork."""
    labels = list(f.components)
    for keep in product([0, 1], repeat=len(labels)):
        free = [c for c, k in zip(labels, keep) if k]
        if not free or len(free) == len(labels):
            continue
        rest = [c for c in labels if c not in free]
        mask = sum(k << pos for pos, k in enumerate(keep))
        for bits in product([0, 1], repeat=len(rest)):
            code = sum(b << labels.index(c) for c, b in zip(rest, bits))
            yield mask, code, sub_table(f, free, dict(zip(rest, bits)))


def all_strict_sub_tables(f: BooleanNetwork) -> list[tuple[int, ...]]:
    return [table for _, _, table in strict_sub_items(f)]


def all_subs_conjugate_bijective(f: BooleanNetwork) -> bool:
    """Every subnetwork, f included, has a bijective conjugate y -> g(y) xor y,
    read table by table."""
    tables = all_strict_sub_tables(f) + [f.table]
    return all(len({v ^ y for y, v in enumerate(t)}) == len(t) for t in tables)


def masked_conjugates_permute(f: BooleanNetwork) -> bool:
    """COR11's bijectivity leg as one permutation per free set I: every
    subnetwork on I, at every frozen code, has a bijective conjugate exactly
    when x -> x xor (f(x) and I) permutes the cube, since the map keeps the
    frozen bits and is the conjugate on I."""
    size, table = len(f.table), f.table
    return all(
        len({x ^ (v & mask) for x, v in enumerate(table)}) == size
        for mask in subnetwork_plan(f.width).masks
    )


def first_eosd_item(f: BooleanNetwork) -> tuple[int, int, tuple[int, ...]] | None:
    """(free_mask, fixed_code, table) of the first even- or odd-self-dual
    item in plan order, one item's table built and classified at a time."""
    for mask, code, table in item_tables(f):
        if table_eosd_class(table) is not None:
            return mask, code, table
    return None


def strict_sub_planes(f: BooleanNetwork) -> tuple[int, ...]:
    """The output planes of every strict sub-table, stacked: one block of
    2^n points per strict mask, ordered by size and then by the mask's
    components in lexicographic order; entry y of the table frozen at z puts
    its value, scattered onto the mask, on point z | scatter(y) of the block."""
    n, size = f.width, len(f.table)
    masks = sorted(
        range(1, size - 1), key=lambda m: (m.bit_count(), [k for k in range(n) if m >> k & 1])
    )
    bits = [["0"] * (len(masks) * size) for _ in range(n)]
    for mask, code, table in strict_sub_items(f):
        base = masks.index(mask) * size
        for y, v in enumerate(table):
            point, value = base + (code | scatter_bits(y, mask)), scatter_bits(v, mask)
            for k in range(n):
                if value >> k & 1:
                    bits[k][point] = "1"
    return tuple(int("".join(reversed(plane)) or "0", 2) for plane in bits)


def eager_plan(n: int) -> tuple[tuple[int, ...], list, list, list, list]:
    """(masks, codes, scatter, points, gather) of width n as the subnetwork
    plan was first built: every free mask's entries at once, indexed by mask."""
    size = 1 << n
    scatter, points, codes = [(0,)] * size, [1] * size, [()] * size
    gather = [(0,) * size] * size
    for mask in range(1, size):
        top = 1 << (mask.bit_length() - 1)
        rest = mask ^ top
        scatter[mask] = scatter[rest] + tuple(map(top.__or__, scatter[rest]))
        points[mask] = points[rest] | points[rest] << top
        low = gather[rest][:top]
        high = tuple(map((1 << (mask.bit_count() - 1)).__or__, low))
        gather[mask] = (low + high) * (size // (2 * top))
        fixed = [0]
        for k in range(n - 1, -1, -1):
            if not mask >> k & 1:
                fixed += [c | 1 << k for c in fixed]
        codes[mask] = tuple(fixed)
    masks = tuple(
        sum(1 << i for i in combo) for m in range(1, n + 1) for combo in combinations(range(n), m)
    )
    return masks, codes, scatter, points, gather


def local_subgraph_containment(f: BooleanNetwork) -> bool:
    """LOCAL_SUBGRAPH_CONTAINMENT's conclusion as first written: per item and
    per point, the sub-table's local rows against f's, gathered onto the free
    components."""
    lrows, records = local_rows(f), subnetwork_plan(f.width).records
    for mask, code, sub in item_tables(f, include_self=False):
        _, scatter, _, g = records[mask]
        free = [k for k in range(f.width) if mask >> k & 1]
        for y, s in enumerate(scatter):
            pos, neg = lrows[code | s]
            sub_pos, sub_neg = point_rows(len(free), sub, y)
            for b, j in enumerate(free):
                if sub_pos[b] != g[pos[j]] or sub_neg[b] != g[neg[j]]:
                    return False
    return True


def eosd(f: BooleanNetwork) -> bool:
    """Even- or odd-self-dual."""
    return self_dual(f) and parity_name(f) != "neither"


def is_critical_eosd(f: BooleanNetwork) -> bool:
    """f is even- or odd-self-dual and none of its strict subnetworks is."""
    return eosd(f) and not any(
        eosd(BooleanNetwork(_labels(len(t).bit_length() - 1), t))
        for t in all_strict_sub_tables(f)
    )


def two_critical(f: BooleanNetwork) -> bool:
    if len(fixed_point_list(f)) < 2:
        return False
    return all(
        sum(1 for y, v in enumerate(t) if v == y) <= 1
        for t in all_strict_sub_tables(f)
    )


def zero_critical(f: BooleanNetwork) -> bool:
    if fixed_point_list(f):
        return False
    return all(
        any(v == y for y, v in enumerate(t)) for t in all_strict_sub_tables(f)
    )


def strict_subitems(mask: int, code: int) -> Iterator[tuple[int, int]]:
    """(mask', code') of every strict subnetwork item below (mask, code)."""
    sub = (mask - 1) & mask
    while sub:
        diff = mask ^ sub
        w = diff
        while True:
            yield sub, code | w
            if w == 0:
                break
            w = (w - 1) & diff
        sub = (sub - 1) & mask


def minimal_violations(f: BooleanNetwork, prop: BaseProperty) -> list[tuple[int, int]]:
    """The reference for minimal violations: the items, in plan order, whose
    count fails prop while every strict sub-item's passes it, read from a
    dict of every item's fixed-point count."""
    fps = dict(zip(subnetwork_plan(f.width).items(), item_fixed_point_counts(f)))
    return [
        item
        for item in fps
        if not prop.holds(fps[item]) and all(prop.holds(fps[sub]) for sub in strict_subitems(*item))
    ]


# -- signed digraphs -------------------------------------------------------------


def local_arcs(f: BooleanNetwork, code: int) -> set[tuple[str, int, str]]:
    """Arcs of the interaction graph at one state, straight from the derivative."""
    arcs = set()
    for j in range(f.width):
        lo = code & ~(1 << j)
        hi = lo | (1 << j)
        diff = f.table[lo] ^ f.table[hi]
        for i in range(f.width):
            if diff >> i & 1:
                sign = 1 if f.table[hi] >> i & 1 else -1
                arcs.add((f.components[j], sign, f.components[i]))
    return arcs


def global_arcs(f: BooleanNetwork) -> set[tuple[str, int, str]]:
    arcs: set[tuple[str, int, str]] = set()
    for code in range(len(f.table)):
        arcs |= local_arcs(f, code)
    return arcs


def local_cycle_signs(f: BooleanNetwork, code: int) -> set[int]:
    """The signs of the cycles of the interaction graph at one state, from
    its arcs straight off the derivative and the depth-first cycle search."""
    g = SignedDigraph(f.components, frozenset(local_arcs(f, code)))
    return {-1 if signs.count(-1) % 2 else 1 for _, signs in cycle_set(g)}


def local_positive_cycle(f: BooleanNetwork) -> bool:
    """REMY_RUET_THIEFFRY's hypothesis negated: some state's interaction
    graph has a positive cycle."""
    return any(1 in local_cycle_signs(f, code) for code in range(len(f.table)))


def local_negative_cycle(f: BooleanNetwork) -> bool:
    """Q1's and RICHARD2011's cycle hypothesis negated: some state's
    interaction graph has a negative cycle."""
    return any(-1 in local_cycle_signs(f, code) for code in range(len(f.table)))


def local_loop_points(f: BooleanNetwork) -> tuple[int, int]:
    """(positive, negative): the bitsets of the states whose interaction
    graph has a loop of that sign."""
    found = {1: 0, -1: 0}
    for code in range(len(f.table)):
        for src, sign, dst in local_arcs(f, code):
            if src == dst:
                found[sign] |= 1 << code
    return found[1], found[-1]


def rows_girth(n: int, adj: tuple[int, ...]) -> int | None:
    """Length of a shortest cycle (a loop has length 1), None when acyclic.

    The frontier loop of rows_reach from each vertex v, one level per cycle
    length: the first level that reaches v again closes a shortest closed
    walk through v, and a shortest closed walk repeats no vertex.
    """
    best = None
    for v in range(n):
        bit = 1 << v
        reached = 0
        frontier = bit
        length = 1
        while frontier and (best is None or length < best):
            step = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                step |= adj[low.bit_length() - 1]
            if step & bit:
                best = length
                break
            frontier = step & ~reached
            reached |= frontier
            length += 1
        if best == 1:
            break
    return best


def local_girth_sets(f: BooleanNetwork) -> tuple[int, ...]:
    """siggraph.local_girth_sets one point at a time: rows_girth of each local
    graph, and the point joins every set from its girth up."""
    n = f.width
    sets = [0] * n
    for x, (pos, neg) in enumerate(local_rows(f)):
        shortest = rows_girth(n, tuple(map(or_, pos, neg)))
        if shortest is not None:
            for k in range(shortest - 1, n):
                sets[k] |= 1 << x
    return tuple(sets)


def shih_dong_condition(f: BooleanNetwork) -> bool:
    """Every local graph is acyclic, one point at a time."""
    n = f.width
    return all(rows_girth(n, tuple(map(or_, pos, neg))) is None for pos, neg in local_rows(f))


def counting_condition(f: BooleanNetwork) -> bool:
    """counting_condition over all cycles as first written: a histogram of the
    per-point girths, summed up to each k and held below 2^k."""
    n = f.width
    per_k = [0] * (n + 1)
    for pos, neg in local_rows(f):
        shortest = rows_girth(n, tuple(map(or_, pos, neg)))
        if shortest is not None:
            per_k[shortest] += 1
    running = 0
    for k in range(1, n + 1):
        running += per_k[k]
        if running > (1 << k) - 1:
            return False
    return True


def odd_outdegree(f: BooleanNetwork) -> bool:
    """Every vertex has odd out-degree in every local graph."""
    return all(
        (p | m).bit_count() % 2 for pos, neg in local_rows(f) for p, m in zip(pos, neg)
    )


def cycle_set(g: SignedDigraph) -> set[tuple[tuple[str, ...], tuple[int, ...]]]:
    """Every elementary signed cycle, found by depth-first search over simple
    paths whose start is the smallest vertex on the cycle.  Parallel arcs of
    opposite signs contribute one cycle per sign choice.
    """
    order = {v: k for k, v in enumerate(g.vertices)}
    succ: dict[str, dict[str, list[int]]] = {}
    for src, sign, dst in g.arcs:
        succ.setdefault(src, {}).setdefault(dst, []).append(sign)
    found: set[tuple[tuple[str, ...], tuple[int, ...]]] = set()

    def walk(start: str, path: list[str], seen: set[str]) -> None:
        here = path[-1]
        for dst in succ.get(here, {}):
            if dst == start:
                hops = [succ[path[k]][path[k + 1]] for k in range(len(path) - 1)]
                hops.append(succ[here][start])
                for choice in product(*hops):
                    found.add((tuple(path), choice))
            elif order[dst] > order[start] and dst not in seen:
                seen.add(dst)
                path.append(dst)
                walk(start, path, seen)
                path.pop()
                seen.discard(dst)

    for start in g.vertices:
        walk(start, [start], {start})
    return found


def chordless(g: SignedDigraph, vertices: tuple[str, ...]) -> bool:
    members = set(vertices)
    hops = {(vertices[k - 1], vertices[k]) for k in range(len(vertices))}
    return not any(
        src in members and dst in members and (src, dst) not in hops
        for src, _, dst in g.arcs
    )


def chordless_cycles(n: int, adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """siggraph.rows_chordless_cycles as every cycle filtered by rows_chordless."""
    none = (0,) * n
    return [verts for verts in _unsigned_cycles(n, adj) if rows_chordless(verts, adj, none)]


def min_chordless_cycle_len(n: int, rows: Rows, want: int) -> int | None:
    """Length of a shortest chordless cycle of sign want, chords judged in
    these rows: the signed cycles come sorted by length, so the first
    chordless one of sign want is the answer."""
    for verts, signs in rows_signed_cycles(n, *rows):
        if cycle_sign(signs) == want and rows_chordless(verts, *rows):
            return len(verts)
    return None


def chordless_counting_condition(f: BooleanNetwork, want: int) -> bool:
    """counting_condition with a chordless filter of sign want, from
    min_chordless_cycle_len at each point."""
    n = f.width
    per_k = [0] * n
    for rows in local_rows(f):
        shortest = min_chordless_cycle_len(n, rows, want)
        if shortest is not None:
            per_k[shortest - 1] += 1
    return all(count < 1 << k for k, count in enumerate(accumulate(per_k), 1))


def bare_cycle_forms(f: BooleanNetwork) -> frozenset:
    """theorems._bare_cycle_forms as first written: every signed cycle of
    G(f), kept when chordless and free of delocalizing vertices."""
    pos, neg = global_rows(f)
    return frozenset(
        _cycle_form(verts, signs)
        for verts, signs in rows_signed_cycles(f.width, pos, neg)
        if rows_chordless(verts, pos, neg) and not rows_delocalizers(verts, pos, neg)
    )


def chordless_local_circular(f: BooleanNetwork) -> bool:
    """The CHORDLESS_LOCAL_CYCLE_CIRCULAR conclusion as first written: every
    signed cycle of each local graph, kept when chordless in G(f), against
    the circular form of the subnetwork freeing its vertices at that point."""
    n = f.width
    gpos, gneg = global_rows(f)
    forms = dict(zip(subnetwork_plan(n).items(), item_circular_forms(f)))
    for x, (pos, neg) in enumerate(local_rows(f)):
        for verts, signs in rows_signed_cycles(n, pos, neg):
            if not rows_chordless(verts, gpos, gneg):
                continue
            mask, form = _cycle_form(verts, signs)
            if forms[mask, x & ~mask] != form:
                return False
    return True


# -- circular networks -----------------------------------------------------------


def circular_form(f: BooleanNetwork) -> tuple[tuple[int, ...], int] | None:
    """(predecessor map, constant) when each f_i's table equals that of x_j
    or not x_j for distinct j, and those choices form one cycle: stepping
    from each component to its chosen j visits every component."""
    n = f.width
    inputs = [[x >> j & 1 for x in range(1 << n)] for j in range(n)]
    pred, constant = [], 0
    for i in range(n):
        output = [v >> i & 1 for v in f.table]
        choices = [
            (j, negated)
            for j in range(n)
            for negated in (0, 1)
            if output == [b ^ negated for b in inputs[j]]
        ]
        if not choices:
            return None
        pred.append(choices[0][0])
        constant |= choices[0][1] << i
    if len(set(pred)) != n:
        return None
    orbit = [0]
    while pred[orbit[-1]] not in orbit:
        orbit.append(pred[orbit[-1]])
    return (tuple(pred), constant) if len(orbit) == n else None


def _restricted_planes(f: BooleanNetwork) -> Iterator[tuple[int, int, list[int], dict]]:
    """(mask, code, planes, literals) per strict item in plan order: the free
    outputs restricted to the item's points and shifted to frozen code 0, and
    the literals x_j and not x_j of the free inputs on those points, as a map
    from each bitset to (local index of j, 1 if negated else 0)."""
    n, plan = f.width, subnetwork_plan(f.width)
    ones, cube = output_bitsets(f), hypercube.coordinate_sets(n)
    for mask in plan.masks[:-1]:
        codes, _, on, _ = plan.records[mask]
        free = [k for k in range(n) if mask >> k & 1]
        literals = {}
        for b, j in enumerate(free):
            literals[cube[j] & on] = (b, 0)
            literals[~cube[j] & on] = (b, 1)
        for code in codes:
            yield mask, code, [ones[i] >> code & on for i in free], literals


def item_circular_forms_per_item(f: BooleanNetwork) -> tuple[tuple[tuple[int, ...], int] | None, ...]:
    """subnetwork.item_circular_forms as first written: each strict item's
    restricted planes solved against its literals, one solve per item, and
    f's own form last, from detect_circular."""
    forms = [literal_cycle(literals, planes) for _, _, planes, literals in _restricted_planes(f)]
    own = detect_circular(f)
    forms.append(None if own is None else (own.predecessor, own.constant))
    return tuple(forms)


def circular_form_solves(f: BooleanNetwork) -> int:
    """The solves item_circular_forms makes on a fresh network with empty
    form tables: one per distinct (mask, planes) among the strict items of
    one or two free components, one per strict item of a wider mask, and
    one for f's own form."""
    small, wide = set(), 0
    for mask, _, planes, _ in _restricted_planes(f):
        if mask.bit_count() <= 2:
            small.add((mask, tuple(planes)))
        else:
            wide += 1
    return len(small) + wide + 1


# -- and-nets --------------------------------------------------------------------


def and_net_table(n: int, pos: tuple[int, ...], neg: tuple[int, ...]) -> tuple[int, ...]:
    """Per point x and component i, the AND of i's in-literals: x_j for each
    arc j -> i in pos, not x_j for each in neg; with no in-arc, 1."""
    table = []
    for x in range(1 << n):
        out = 0
        for i in range(n):
            literals = [x >> j & 1 for j in range(n) if pos[j] >> i & 1]
            literals += [1 - (x >> j & 1) for j in range(n) if neg[j] >> i & 1]
            if all(literals):
                out |= 1 << i
        table.append(out)
    return tuple(table)


def is_and_net(f: BooleanNetwork) -> bool:
    """G(f), from the derivatives, is simple and its and-net table is f's."""
    n = f.width
    index = {v: k for k, v in enumerate(f.components)}
    pos, neg = [0] * n, [0] * n
    for src, sign, dst in global_arcs(f):
        (pos if sign == 1 else neg)[index[src]] |= 1 << index[dst]
    if any(p & m for p, m in zip(pos, neg)):
        return False
    return and_net_table(n, tuple(pos), tuple(neg)) == f.table


# -- Lemma 1 on point sets of the hypercube --------------------------------------


def lemma1_hypothesis(points: list[Point]) -> bool:
    """X is nonempty, no point of X neighbours another, and |X| >= |N(X)|."""
    around = neighbor_set(points)
    return bool(points) and not around & set(points) and len(set(points)) >= len(around)


def lemma1_conclusion(n: int, points: list[Point]) -> bool:
    """X is every point of one weight parity of the n-cube, and no other."""
    parities = {p.weight % 2 for p in points}
    return len(parities) == 1 and len(set(points)) == 1 << (n - 1)


# -- asynchronous dynamics --------------------------------------------------------


def successor_map(f: BooleanNetwork) -> list[list[int]]:
    out = []
    for x, v in enumerate(f.table):
        out.append([x ^ (1 << i) for i in range(f.width) if (x ^ v) >> i & 1])
    return out


def _reach_sets(succ: list[list[int]]) -> list[set[int]]:
    sets = []
    for x in range(len(succ)):
        seen = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for z in succ[y]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        sets.append(seen)
    return sets


def attractor_sets(f: BooleanNetwork) -> list[frozenset[int]]:
    """Terminal strongly connected components via reachability closure."""
    succ = successor_map(f)
    reach = _reach_sets(succ)
    out = set()
    for x in range(len(succ)):
        component = frozenset(y for y in reach[x] if x in reach[y])
        if reach[x] == set(component):
            out.add(component)
    return sorted(out, key=min)


def weakly_convergent(f: BooleanNetwork) -> bool:
    fixed = fixed_point_list(f)
    if len(fixed) != 1:
        return False
    target = fixed[0]
    good = {target}
    states = sorted(range(len(f.table)), key=lambda x: bin(x ^ target).count("1"))
    for x in states[1:]:
        for i in range(f.width):
            toward = (x ^ target) >> i & 1 and (f.table[x] ^ x) >> i & 1
            if toward and x ^ (1 << i) in good:
                good.add(x)
                break
    return len(good) == len(f.table)


def strongly_convergent(f: BooleanNetwork) -> bool:
    if len(fixed_point_list(f)) != 1:
        return False
    succ = successor_map(f)
    reach = _reach_sets(succ)
    return not any(x in reach[y] for x in range(len(succ)) for y in succ[x])


def tarjan_components(unstable: tuple[int, ...]) -> tuple[list[list[int]], int]:
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


def gray_counter(n: int, shape: str) -> BooleanNetwork:
    """x -> the next code of the reflected Gray code g(i) = i ^ (i >> 1): one
    arc per state.  'cycle' wraps g(2^n - 1) to g(0), one attractor of 2^n
    states; 'path' fixes g(2^n - 1), an acyclic graph with one fixed point;
    'lasso' sends g(2^n - 1) back to g(2^(n-1)), one bit away, so the first
    half of the codes is a path into a cycle through the second half."""
    size = 1 << n
    gray = [i ^ i >> 1 for i in range(size)]
    last = {"cycle": gray[0], "path": gray[-1], "lasso": gray[size >> 1]}[shape]
    table = [0] * size
    for here, there in zip(gray, gray[1:] + [last]):
        table[here] = there
    return BooleanNetwork(_labels(n), tuple(table))


def oscillator_network(n: int, m: int) -> BooleanNetwork:
    """The width-m Gray 'cycle' on the first m components beside the identity
    on the other n - m: 2^(n-m) cyclic attractors of 2^m states each, and no
    other states.  m = 1 is x -> x xor e_1."""
    cycle = gray_counter(m, "cycle").table
    low = (1 << m) - 1
    return BooleanNetwork(_labels(n), tuple(x & ~low | cycle[x & low] for x in range(1 << n)))


# -- DOT exports ------------------------------------------------------------------


def _tokenize(text: str) -> list[str]:
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch == '"':
            end = k + 1
            while end < len(text):
                if text[end] == "\\":
                    end += 2
                    continue
                if text[end] == '"':
                    break
                end += 1
            if end >= len(text):
                raise FormatError("unterminated string in DOT output")
            tokens.append(text[k : end + 1])
            k = end + 1
            continue
        if text.startswith("->", k):
            tokens.append("->")
            k += 2
            continue
        if ch in "{}[];,=":
            tokens.append(ch)
            k += 1
            continue
        end = k
        while end < len(text) and (text[end].isalnum() or text[end] in "_."):
            end += 1
        if end == k:
            raise FormatError(f"unexpected character {ch!r} in DOT output")
        tokens.append(text[k:end])
        k = end
    return tokens


def _is_name(token: str) -> bool:
    return token.startswith('"') or token.replace("_", "").replace(".", "").isalnum()


def validate_dot(text: str) -> None:
    """Check the shape digraph NAME { (node|edge statements with attrs)* }."""
    tokens = _tokenize(text)
    pos = 0

    def expect(token: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != token:
            got = tokens[pos] if pos < len(tokens) else "<eof>"
            raise FormatError(f"DOT: expected {token!r}, got {got!r}")
        pos += 1

    def take_name() -> None:
        nonlocal pos
        if pos >= len(tokens) or not _is_name(tokens[pos]):
            got = tokens[pos] if pos < len(tokens) else "<eof>"
            raise FormatError(f"DOT: expected a name, got {got!r}")
        pos += 1

    expect("digraph")
    take_name()
    expect("{")
    while pos < len(tokens) and tokens[pos] != "}":
        take_name()
        while pos < len(tokens) and tokens[pos] == "->":
            pos += 1
            take_name()
        if pos < len(tokens) and tokens[pos] == "[":
            pos += 1
            while True:
                take_name()
                expect("=")
                take_name()
                if pos < len(tokens) and tokens[pos] == ",":
                    pos += 1
                    continue
                break
            expect("]")
        expect(";")
    expect("}")
    if pos != len(tokens):
        raise FormatError("DOT: trailing content after closing brace")
