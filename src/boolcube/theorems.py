"""Catalog of checkable theorems, sweep harness, and open-question searches.

Every catalog entry is a (hypothesis, conclusion) pair of predicates wired
through the public operations of the other modules.  check() classifies one
candidate as Vacuous (hypothesis fails), Confirmed, or Counterexample; sweep()
folds check over a deterministic candidate stream and produces a report that
is byte-identical across repeats and worker counts, wall time aside.  A
counterexample is a discovery to surface, never something to suppress.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache, partial, reduce
from itertools import permutations
from operator import and_, or_, xor
from typing import Callable, Collection, Iterable, NamedTuple, Sequence, Union

from .dynamics import attractor_summary, weak_convergence
from .hypercube import Point, coordinate_sets, format_code, neighborhood, parity_sets
from .network import (
    RANDOM_WIDTH_CAP,
    BooleanNetwork,
    ParityClass,
    check_width,
    default_components,
    eosd_class,
    fixed_point_codes,
    is_conjugate_bijective,
    is_non_expansive,
    memo,
    network_from_index,
    output_bitsets,
    parity_class,
    render_bn,
    unstable_sets,
)
from .siggraph import (
    CircularForm,
    CycleFilter,
    and_net_table,
    circular_network,
    counting_condition,
    cyclic_components,
    detect_circular,
    global_rows,
    has_local_loop,
    is_and_net,
    local_arc_sets,
    point_rows,
    rows_chordless_cycles,
    rows_cycle_signings,
    rows_delocalizers,
    rows_has_loop,
    rows_has_negative_cycle,
    rows_has_positive_cycle,
    shih_dong_condition,
    simple_digraph_count,
    simple_digraph_orbits,
    simple_digraph_rows_from_index,
)
from .subnetwork import (
    BaseProperty,
    all_subnetworks_fixed_point_census,
    has_eosd_subnetwork,
    is_two_critical,
    is_zero_critical,
    item_circular_forms,
    item_fixed_point_counts,
    strict_blocks,
    strict_sub_planes,
    subnetwork_plan,
)


class TheoremId(Enum):
    ROBERT = "ROBERT"
    ARACENA_POS = "ARACENA_POS"
    ARACENA_NEG = "ARACENA_NEG"
    DICHOTOMY_UNIQUE = "DICHOTOMY_UNIQUE"
    DICHOTOMY_EXIST = "DICHOTOMY_EXIST"
    RICHARD2010 = "RICHARD2010"
    SHIH_DONG = "SHIH_DONG"
    REMY_RUET_THIEFFRY = "REMY_RUET_THIEFFRY"
    RICHARD2011 = "RICHARD2011"
    MAIN_EOSD = "MAIN_EOSD"
    COR_COUNTING = "COR_COUNTING"
    COR_GEODESIC = "COR_GEODESIC"
    THM_CIRCULAR_EOSD = "THM_CIRCULAR_EOSD"
    THM_CRITICAL_NONEXP = "THM_CRITICAL_NONEXP"
    COR_NONEXP_DICHOTOMY = "COR_NONEXP_DICHOTOMY"
    COR_COUNTING_SIGNED = "COR_COUNTING_SIGNED"
    ANDNET_2CRITICAL = "ANDNET_2CRITICAL"
    ANDNET_CHORDLESS = "ANDNET_CHORDLESS"
    LEMMA1_HYPERCUBE = "LEMMA1_HYPERCUBE"
    PROP_ODD_OUTDEGREE = "PROP_ODD_OUTDEGREE"
    PROP_CRITICAL_DYNAMICS = "PROP_CRITICAL_DYNAMICS"
    PROP_MINIMAL_FORBIDDEN = "PROP_MINIMAL_FORBIDDEN"


class OpenQuestion(Enum):
    Q1_NEG_LOCAL_CYCLES = "Q1_NEG_LOCAL_CYCLES"
    Q2_0CRITICAL_ANDNET = "Q2_0CRITICAL_ANDNET"
    Q3_ANDNET_NO_NEG_CIRCULAR_SUB = "Q3_ANDNET_NO_NEG_CIRCULAR_SUB"


class VerdictKind(Enum):
    VACUOUS = "Vacuous"
    CONFIRMED = "Confirmed"
    COUNTEREXAMPLE = "Counterexample"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    payload: str | None = None

    def __str__(self) -> str:
        return self.kind.value


# ---------------------------------------------------------------------------
# Cached per-network predicates shared by the catalog.


def _fp_count(f: BooleanNetwork) -> int:
    return len(fixed_point_codes(f))


@memo
def _global_positive_cycle(f: BooleanNetwork) -> bool:
    return rows_has_positive_cycle(f.width, *global_rows(f))


@memo
def _global_negative_cycle(f: BooleanNetwork) -> bool:
    return rows_has_negative_cycle(f.width, *global_rows(f))


def _any_local(f: BooleanNetwork, has_cycle: Callable[[int, tuple, tuple], bool]) -> bool:
    """Builds the local graphs one point at a time and stops at the first
    with a cycle has_cycle accepts: the Q1 search reads nothing else of them."""
    n = f.width
    return any(has_cycle(n, *point_rows(n, f.table, x)) for x in range(1 << n))


def _local_cycle(
    f: BooleanNetwork, sign: int, has_cycle: Callable[[int, tuple, tuple], bool]
) -> bool:
    """Some G(f, x) has a cycle of the sign at entry sign (0 positive, 1
    negative) of point_rows and has_local_loop, cheapest witness first: a
    loop at point 0 (one point's rows; a random table has one with
    probability 1 - (3/4)^n), a loop anywhere (the bit planes), the walk."""
    return (
        rows_has_loop(point_rows(f.width, f.table, 0)[sign])
        or has_local_loop(f, sign)
        or _any_local(f, has_cycle)
    )


@memo
def _local_positive_cycle(f: BooleanNetwork) -> bool:
    """Some G(f, x) has a positive cycle: a positive loop at point 0, else
    one anywhere, else a positive cycle in the walk over the points."""
    return _local_cycle(f, 0, rows_has_positive_cycle)


@memo
def _local_negative_cycle(f: BooleanNetwork) -> bool:
    """Some G(f, x) has a negative cycle: a negative loop at point 0, else
    one anywhere, else a negative cycle in the walk over the points."""
    return _local_cycle(f, 1, rows_has_negative_cycle)


def _global_acyclic(f: BooleanNetwork) -> bool:
    """No cycle of either sign.  The negative fact first: the positive one then
    runs only when every component is balanced, so no cycle is listed."""
    return not _global_negative_cycle(f) and not _global_positive_cycle(f)


@memo
def _strongly_connected_with_arc(f: BooleanNetwork) -> bool:
    """G(f) is one strongly connected component holding a cycle."""
    pos, neg = global_rows(f)
    adj = tuple(p | m for p, m in zip(pos, neg))
    return next(cyclic_components(f.width, adj), 0) == (1 << f.width) - 1


def _circular_sign(f: BooleanNetwork) -> int | None:
    form = detect_circular(f)
    return None if form is None else form.sign


def _has_minimal_violation(f: BooleanNetwork, prop: BaseProperty) -> bool:
    """Some subnetwork of f, f included, is a minimal violation of prop: the
    first item that fails prop is one, since its strict sub-items have fewer
    free components, so they come earlier in plan order and have passed."""
    return not all(map(prop.holds, item_fixed_point_counts(f)))


def _has_circular_sub(f: BooleanNetwork) -> tuple[bool, bool]:
    """(has a positive, has a negative) circular subnetwork, f included: a
    form is positive when its constant has an even number of set bits."""
    parities = {
        constant.bit_count() & 1 for _, constant in filter(None, item_circular_forms(f))
    }
    return 0 in parities, 1 in parities


def _cycle_form(
    verts: tuple[int, ...], signs: tuple[int, ...]
) -> tuple[int, tuple[tuple[int, ...], int]]:
    """(free mask, (predecessor map, constant)) of the circular subnetwork
    whose graph is this cycle of G(f); an item realizes the cycle exactly when
    it has this mask and this solved form."""
    free = sorted(verts)
    pred = [0] * len(free)
    constant = 0
    for k, dst in enumerate(verts):
        b = free.index(dst)
        pred[b] = free.index(verts[k - 1])
        if signs[k - 1] == -1:
            constant |= 1 << b
    return sum(1 << v for v in verts), (tuple(pred), constant)


def _all_subs_conjugate_bijective(f: BooleanNetwork) -> bool:
    """Every subnetwork on I, at every frozen code, has a bijective conjugate
    exactly when x -> x xor (f(x) and I) permutes the cube: the map keeps the
    frozen bits and is the conjugate on I."""
    size, table = len(f.table), f.table
    return all(
        len(set(map(xor, range(size), map(mask.__and__, table)))) == size
        for mask in subnetwork_plan(f.width).masks
    )


# ---------------------------------------------------------------------------
# Conclusion bodies that need more than one line.


def _concl_circular_eosd(f: BooleanNetwork) -> bool:
    sign = _circular_sign(f)
    ne = is_non_expansive(f)
    esd = eosd_class(f) is ParityClass.EVEN
    osd = eosd_class(f) is ParityClass.ODD
    return ((sign == 1) == (esd and ne)) and ((sign == -1) == (osd and ne))


def _concl_critical_nonexp(f: BooleanNetwork) -> bool:
    sign = _circular_sign(f)
    ne = is_non_expansive(f)
    pos_ok = (sign == 1) == (ne and is_two_critical(f))
    neg_ok = (sign == -1) == (ne and is_zero_critical(f))
    return pos_ok and neg_ok


def _concl_nonexp_dichotomy(f: BooleanNetwork) -> bool:
    lo, hi = all_subnetworks_fixed_point_census(f)
    has_pos, has_neg = _has_circular_sub(f)
    return (
        (hi <= 1) == (not has_pos)
        and (lo >= 1) == (not has_neg)
        and ((lo, hi) == (1, 1)) == (not has_pos and not has_neg)
    )


def _concl_counting_signed(f: BooleanNetwork) -> bool:
    count = _fp_count(f)
    if counting_condition(f, CycleFilter.POSITIVE_CHORDLESS) and count > 1:
        return False
    if counting_condition(f, CycleFilter.NEGATIVE_CHORDLESS) and count < 1:
        return False
    return True


def _concl_andnet_2critical(f: BooleanNetwork) -> bool:
    return (_circular_sign(f) == 1) == (is_and_net(f) and is_two_critical(f))


@memo
def _bare_cycle_forms(f: BooleanNetwork) -> frozenset[tuple[int, tuple[tuple[int, ...], int]]]:
    """_cycle_form of each chordless cycle of G(f) with no delocalizing vertex."""
    pos, neg = global_rows(f)
    return frozenset(
        _cycle_form(verts, signs)
        for verts in rows_chordless_cycles(f.width, tuple(map(or_, pos, neg)))
        if not rows_delocalizers(verts, pos, neg)
        for signs in rows_cycle_signings(verts, pos, neg)
    )


def _concl_andnet_chordless(f: BooleanNetwork) -> bool:
    """Census (1, 1) iff no bare cycle form; max <= 1 iff none is positive."""
    lo, hi = all_subnetworks_fixed_point_census(f)
    bare = _bare_cycle_forms(f)
    pos_ok = all(constant.bit_count() & 1 for _, (_, constant) in bare)
    return (((lo, hi) == (1, 1)) == (not bare)) and ((hi <= 1) == pos_ok)


def _concl_odd_outdegree(f: BooleanNetwork) -> bool:
    """j has odd out-degree in G(f, x) exactly when x lies in an odd number
    of the arc sets A[j][i]: their XOR must be the whole cube for every j."""
    full = (1 << len(f.table)) - 1
    return all(reduce(xor, row) == full for row in local_arc_sets(f))


def _concl_critical_dynamics(f: BooleanNetwork) -> bool:
    count, has_cyclic = attractor_summary(f)
    if count >= 2 and not _has_minimal_violation(f, BaseProperty.AT_MOST_ONE):
        return False
    if is_non_expansive(f) and has_cyclic:
        if _fp_count(f) != 0 or not _has_minimal_violation(f, BaseProperty.AT_LEAST_ONE):
            return False
    return True


def _concl_minimal_forbidden(f: BooleanNetwork) -> bool:
    """Holds on every network by construction (see _has_minimal_violation)."""
    return all(
        all(map(prop.holds, item_fixed_point_counts(f))) != _has_minimal_violation(f, prop)
        for prop in BaseProperty
    )


def _concl_cor11(f: BooleanNetwork) -> bool:
    census_unique = all_subnetworks_fixed_point_census(f) == (1, 1)
    no_eosd = not has_eosd_subnetwork(f)
    all_bij = _all_subs_conjugate_bijective(f)
    return census_unique == no_eosd == all_bij


def _concl_dynamics_iso(f: BooleanNetwork) -> bool:
    """Each subnetwork's conjugate is f's conjugate at the matching parent
    points, projected onto the free components: in strict_sub_planes, plane k
    xor X_k is U_k on the blocks that free k, and plane k is empty elsewhere."""
    tile, free = strict_blocks(f.width)
    return all(
        plane ^ x * tile & on == u * tile & on
        for plane, x, u, on in zip(
            strict_sub_planes(f), coordinate_sets(f.width), unstable_sets(f), free
        )
    )


def _concl_local_subgraph(f: BooleanNetwork) -> bool:
    """Each subnetwork's local graph at y is f's local graph at the matching
    parent point, restricted to the free components.  In strict_sub_planes,
    an item's arcs j -> i are where plane i changes along e_j, negative where
    plane i differs from x_j; on the blocks that free both j and i they must
    be f's arc sets, tiled, and plane i must be f's O_i on them."""
    n = f.width
    planes, (tile, free) = strict_sub_planes(f), strict_blocks(n)
    ones = [o * tile for o in output_bitsets(f)]
    for j, (x, row) in enumerate(zip(coordinate_sets(n), local_arc_sets(f))):
        x, step = x * tile, 1 << j
        for i, arcs in enumerate(row):
            plane, on = planes[i], free[j] & free[i]
            sub = (plane ^ ((plane & x) >> step | (plane & ~x) << step)) & on
            if sub != arcs * tile & on or (plane ^ ones[i]) & sub:
                return False
    return True


def _concl_eosd_andnet(f: BooleanNetwork) -> bool:
    sign = _circular_sign(f)
    net = is_and_net(f)
    cls = eosd_class(f)
    pos_ok = (sign == 1) == (net and cls is ParityClass.EVEN)
    neg_ok = (sign == -1) == (net and cls is ParityClass.ODD)
    return pos_ok and neg_ok


def _concl_chordless_local_circular(f: BooleanNetwork) -> bool:
    """Each chordless cycle of G(f) that is a cycle of G(f, x), signed there,
    is the circular form of the subnetwork freeing its vertices at x.  It is
    a local cycle at the points in all its arcs' sets A[j][i], and j -> i is
    negative at x iff f_i(x) != x_j."""
    n, table = f.width, f.table
    pos, neg = global_rows(f)
    arcs = local_arc_sets(f)
    forms = dict(zip(subnetwork_plan(n).items(), item_circular_forms(f)))
    for verts in rows_chordless_cycles(n, tuple(map(or_, pos, neg))):
        pairs = tuple(zip(verts, verts[1:] + verts[:1]))
        points = reduce(and_, [arcs[j][i] for j, i in pairs])
        while points:
            low = points & -points
            points ^= low
            x = low.bit_length() - 1
            fx = table[x]
            signs = tuple(-1 if (fx >> i ^ x >> j) & 1 else 1 for j, i in pairs)
            mask, form = _cycle_form(verts, signs)
            if forms[mask, x & ~mask] != form:
                return False
    return True


def _concl_circular_subnetworks(f: BooleanNetwork) -> bool:
    """Realized circular-subnetwork graphs == chord-free delocalizer-free cycles."""
    realized = {
        (mask, form)
        for (mask, _), form in zip(subnetwork_plan(f.width).items(), item_circular_forms(f))
        if form is not None
    }
    return realized == _bare_cycle_forms(f)


# ---------------------------------------------------------------------------
# The catalog.


def _parity_even_or_odd(f: BooleanNetwork) -> bool:
    return parity_class(f) is not ParityClass.NEITHER


def _TRUE(f: BooleanNetwork) -> bool:
    return True

NETWORK_CATALOG: dict[
    str, tuple[Callable[[BooleanNetwork], bool], Callable[[BooleanNetwork], bool]]
] = {
    "ROBERT": (_global_acyclic, lambda f: _fp_count(f) == 1),
    "ARACENA_POS": (
        lambda f: _strongly_connected_with_arc(f) and not _global_negative_cycle(f),
        lambda f: _fp_count(f) >= 2,
    ),
    "ARACENA_NEG": (
        lambda f: _strongly_connected_with_arc(f) and not _global_positive_cycle(f),
        lambda f: _fp_count(f) == 0,
    ),
    "DICHOTOMY_UNIQUE": (
        lambda f: not _global_positive_cycle(f),
        lambda f: _fp_count(f) <= 1,
    ),
    "DICHOTOMY_UNIQUE_WEAK": (
        lambda f: not _global_positive_cycle(f),
        lambda f: _fp_count(f) <= 2,
    ),
    "DICHOTOMY_EXIST": (
        lambda f: not _global_negative_cycle(f),
        lambda f: _fp_count(f) >= 1,
    ),
    "RICHARD2010": (
        lambda f: not _global_negative_cycle(f),
        lambda f: not attractor_summary(f)[1],
    ),
    "SHIH_DONG": (shih_dong_condition, lambda f: _fp_count(f) == 1),
    "REMY_RUET_THIEFFRY": (
        lambda f: not _local_positive_cycle(f),
        lambda f: _fp_count(f) <= 1,
    ),
    "RICHARD2011": (
        lambda f: is_non_expansive(f) and not _local_negative_cycle(f),
        lambda f: _fp_count(f) >= 1,
    ),
    "MAIN_EOSD": (lambda f: not has_eosd_subnetwork(f), is_conjugate_bijective),
    "COR_COUNTING": (counting_condition, lambda f: _fp_count(f) == 1),
    "COR_GEODESIC": (lambda f: not has_eosd_subnetwork(f), weak_convergence),
    "THM_CIRCULAR_EOSD": (_TRUE, _concl_circular_eosd),
    "THM_CRITICAL_NONEXP": (_TRUE, _concl_critical_nonexp),
    "COR_NONEXP_DICHOTOMY": (is_non_expansive, _concl_nonexp_dichotomy),
    "COR_COUNTING_SIGNED": (is_non_expansive, _concl_counting_signed),
    "ANDNET_2CRITICAL": (_TRUE, _concl_andnet_2critical),
    "ANDNET_CHORDLESS": (is_and_net, _concl_andnet_chordless),
    "PROP_ODD_OUTDEGREE": (_parity_even_or_odd, _concl_odd_outdegree),
    "PROP_CRITICAL_DYNAMICS": (_TRUE, _concl_critical_dynamics),
    "PROP_MINIMAL_FORBIDDEN": (_TRUE, _concl_minimal_forbidden),
    "COR11_EQUIVALENCE": (_TRUE, _concl_cor11),
    "DYNAMICS_ISOMORPHISM": (_TRUE, _concl_dynamics_iso),
    "LOCAL_SUBGRAPH_CONTAINMENT": (_TRUE, _concl_local_subgraph),
    "EOSD_ANDNET_CIRCULAR": (_TRUE, _concl_eosd_andnet),
    "CHORDLESS_LOCAL_CYCLE_CIRCULAR": (_TRUE, _concl_chordless_local_circular),
    "CIRCULAR_SUBNETWORK_CRITERION": (is_and_net, _concl_circular_subnetworks),
}


# A key whose sweep report also notes the tally of a second key over the same
# candidates, under a note prefix: the weaker conclusion <= 2 of the dichotomy.
_NOTED_TALLIES: dict[str, tuple[str, str]] = {
    "DICHOTOMY_UNIQUE": ("DICHOTOMY_UNIQUE_WEAK", "weak_at_most_two"),
}


# Every theorem key, in order: the TheoremId names, then the other catalog keys.
_THEOREM_KEYS = dict.fromkeys([*TheoremId.__members__, *NETWORK_CATALOG])


def catalog_keys() -> tuple[str, ...]:
    return tuple(_THEOREM_KEYS)


def _resolve(name: Union[Enum, str], known: Collection[str], what: str) -> str:
    """The key a name or enum member stands for, if known lists it."""
    key = name.name if isinstance(name, Enum) else str(name)
    if key not in known:
        raise ValueError(f"unknown {what} {key!r}; known: {', '.join(known)}")
    return key


# ---------------------------------------------------------------------------
# The hypercube subset entry: checked over point sets, not networks.


class _PointSet(NamedTuple):
    """A set of points of the n-cube: the width n and the bitset of the codes."""

    width: int
    members: int


def _subset_hypothesis(s: _PointSet) -> bool:
    n, members = s
    if members == 0:
        return False
    around = neighborhood(n, members)
    if members & around:
        return False
    return members.bit_count() >= around.bit_count()


def _subset_conclusion(s: _PointSet) -> bool:
    return s.members in parity_sets(s.width)


def _point_set(points: Iterable[Point]) -> _PointSet:
    """The points as one set; with no points its width is 0."""
    members, components = 0, set()
    for p in points:
        members |= 1 << p.code
        components.add(p.components)
    if len(components) > 1:
        raise ValueError("points live over different component lists")
    return _PointSet(len(next(iter(components), ())), members)


def _entry(key: str) -> tuple[Callable, Callable]:
    """(hypothesis, conclusion) of a theorem key or an open question."""
    if key == "LEMMA1_HYPERCUBE":
        return _subset_hypothesis, _subset_conclusion
    return NETWORK_CATALOG.get(key) or _QUESTIONS[key]


def _render(candidate: Union[BooleanNetwork, _PointSet]) -> str:
    """A counterexample payload: a network's .bn text, or a point set's points."""
    if isinstance(candidate, BooleanNetwork):
        return render_bn(candidate)
    n, members = candidate
    points = [format_code(c, n) for c in range(1 << n) if members >> c & 1]
    return f"subset width={n}\npoints " + " ".join(points) + "\n"


# ---------------------------------------------------------------------------
# Candidate generators.


@dataclass(frozen=True)
class Generator:
    """A candidate stream of width n.  Each stream class gives its report
    label, filled from its fields; its size, once the fields pass its checks;
    the candidate at each index; and its orbits, sets of candidates with the
    same verdict on every key, so a sweep checks one candidate per orbit."""

    n: int
    on_points = False  # candidates are point sets, not networks

    def _check(self, what: str, cap: int, count: int = 0) -> None:
        """A width below 1, then a negative count, then the width cap."""
        if self.n < 1:
            raise ValueError(f"--n must be at least 1, got {self.n}")
        if count < 0:
            raise ValueError(f"--count must be at least 0, got {count}")
        check_width(what, self.n, cap)

    def chunks(self, count: int, jobs: int) -> list[tuple[int, int]]:
        """At most 4 * jobs ranges covering [0, count), each opening with an
        orbit's index; by default equal steps."""
        chunks = max(1, min(count, jobs * 4))
        step = max(1, (count + chunks - 1) // chunks)
        return [(lo, min(lo + step, count)) for lo in range(0, count, step)]

    def orbits(self, lo: int, hi: int, count: int) -> Iterable[tuple[int, Sequence[int]]]:
        """(index, members below count) of each orbit whose index, its
        smallest member, lies in [lo, hi); by default every candidate is an
        orbit of its own."""
        return zip(range(lo, hi), zip(range(lo, hi)))


class Exhaustive(Generator):
    label = "exhaustive(n={n})"

    def size(self) -> int:
        self._check("an exhaustive sweep", 3)
        return 1 << (self.n << self.n)

    def candidate(self, index: int) -> BooleanNetwork:
        return network_from_index(self.n, index)


@dataclass(frozen=True)
class Sample(Generator):
    count: int
    seed: int
    label = "sample(n={n},count={count},seed={seed})"

    def size(self) -> int:
        self._check("sampling", RANDOM_WIDTH_CAP, self.count)
        return self.count

    def candidate(self, index: int) -> BooleanNetwork:
        return network_from_index(self.n, sample_table_index(self.n, self.seed, index))


class AndNets(Generator):
    """An orbit is a class of digraphs under relabelling the vertices."""

    label = "family(andnets(n={n}))"

    def size(self) -> int:
        self._check("the and-net family", 3)
        return simple_digraph_count(self.n)

    def candidate(self, index: int) -> BooleanNetwork:
        table = and_net_table(self.n, *simple_digraph_rows_from_index(self.n, index))
        return BooleanNetwork(default_components(self.n), table)

    def chunks(self, count: int, jobs: int) -> list[tuple[int, int]]:
        """Ranges holding equal numbers of orbits, give or take one."""
        members, starts = simple_digraph_orbits(self.n)
        # the representatives ascend, so those below count are a prefix
        orbits = bisect_left(starts, count, 0, len(starts) - 1, key=members.__getitem__)
        chunks = min(orbits, jobs * 4)
        cuts = [members[starts[orbits * k // chunks]] for k in range(chunks)]
        return list(zip(cuts, cuts[1:] + [count]))

    def orbits(self, lo: int, hi: int, count: int) -> Iterable[tuple[int, Sequence[int]]]:
        members, starts = simple_digraph_orbits(self.n)
        return (
            (members[a], members[a : bisect_left(members, count, a, b)])
            for a, b in zip(starts, starts[1:])
            if lo <= members[a] < hi
        )


class Circular(Generator):
    """Index bits below n are the constant; the rest rank the cycle order."""

    label = "family(circular(n={n}))"

    def size(self) -> int:
        self._check("the circular family", 8)
        return math.factorial(self.n - 1) << self.n

    @staticmethod
    @lru_cache(maxsize=8)
    def _predecessor_maps(n: int) -> tuple[tuple[int, ...], ...]:
        """The predecessor map of each cycle through 0, in permutation order."""
        orders = [(0, *rest) for rest in permutations(range(1, n))]
        return tuple(tuple(order[order.index(v) - 1] for v in range(n)) for order in orders)

    def candidate(self, index: int) -> BooleanNetwork:
        n = self.n
        if not 0 <= index < self.size():
            raise ValueError(f"circular index {index} out of range for width {n}")
        pred = self._predecessor_maps(n)[index >> n]
        return circular_network(CircularForm(default_components(n), pred, index & ((1 << n) - 1)))


class NonExpansive(Generator):
    label = "family(nonexpansive(n={n}))"

    def size(self) -> int:
        self._check("the non-expansive family", 3)
        return len(self._tables(self.n))

    @staticmethod
    @lru_cache(maxsize=4)
    def _tables(n: int) -> tuple[tuple[int, ...], ...]:
        """Every non-expansive table of width n, ascending: each point takes
        the values within distance 1 of those at its lower neighbours, and
        every edge of the cube has one lower end."""
        tables = [()]
        for x in range(1 << n):
            lower = [x ^ 1 << k for k in range(n) if x >> k & 1]
            tables = [
                t + (v,) for t in tables for v in range(1 << n)
                if all((v ^ t[y]).bit_count() < 2 for y in lower)
            ]
        return tuple(tables)

    def candidate(self, index: int) -> BooleanNetwork:
        if not 0 <= index < self.size():
            raise ValueError(f"non-expansive index {index} out of range for width {self.n}")
        return BooleanNetwork(default_components(self.n), self._tables(self.n)[index])


class Subsets(Generator):
    label = "subsets(n={n})"
    on_points = True

    def size(self) -> int:
        self._check("a subset sweep", 4)
        return 1 << (1 << self.n)

    def candidate(self, index: int) -> _PointSet:
        return _PointSet(self.n, index)


def describe_generator(gen: Generator) -> str:
    return gen.label.format_map(vars(gen))


def generator_count(gen: Generator) -> int:
    return gen.size()


def sample_table_index(n: int, seed: int, index: int) -> int:
    """Partition-independent candidate bits: a keyed hash of (seed, index).
    Past blake2b's 64-byte digest (width 7 and up), block k of 64 more bytes
    hashes "seed:index:k"."""
    bits = n << n
    size = max(8, (bits + 7) // 8)
    key = f"{seed}:{index}"
    digest = hashlib.blake2b(key.encode(), digest_size=min(64, size)).digest()
    while len(digest) < size:
        digest += hashlib.blake2b(f"{key}:{len(digest) // 64}".encode()).digest()
    return int.from_bytes(digest, "big") & ((1 << bits) - 1)


def candidate_network(gen: Generator, index: int) -> BooleanNetwork:
    if gen.on_points:
        raise ValueError("subset generators do not yield networks")
    return gen.candidate(index)


# Open questions: a candidate that meets the hypothesis and misses the
# conjectured conclusion is a discovery to report, not a failure.

_QUESTIONS: dict[
    str, tuple[Callable[[BooleanNetwork], bool], Callable[[BooleanNetwork], bool]]
] = {
    # Does every network without negative local cycles have a fixed point?
    "Q1_NEG_LOCAL_CYCLES": (
        lambda f: not _local_negative_cycle(f),
        lambda f: _fp_count(f) >= 1,
    ),
    # Is every 0-critical and-net a negative circular network?
    "Q2_0CRITICAL_ANDNET": (
        lambda f: is_and_net(f) and is_zero_critical(f),
        lambda f: _circular_sign(f) == -1,
    ),
    # Does every and-net with no negative circular subnetwork, f included,
    # have a fixed point?  (The paper's open C- analogue.)
    "Q3_ANDNET_NO_NEG_CIRCULAR_SUB": (
        lambda f: is_and_net(f) and not _has_circular_sub(f)[1],
        lambda f: _fp_count(f) >= 1,
    ),
}


# ---------------------------------------------------------------------------
# Reports.


class _Report:
    """A versioned header, then key=value lines in alphabetical order with the
    notes as note.*, then one indented payload block per candidate."""
    notes: tuple[str, ...] = ()

    def _render(self, wall_time_s: float | None) -> str:
        header, values, label, payloads = self._parts()
        lines = [f"{key}={value}" for key, value in values.items()]
        lines.extend(f"note.{note}" for note in self.notes)
        if wall_time_s is not None:
            lines.append(f"wall_time_s={wall_time_s:.3f}")
        lines = [f"# {header} report v1", *sorted(lines)]
        for index, payload in payloads:
            lines.append("")
            lines.append(f"{label} candidate={index}")
            lines.extend("  " + row for row in payload.rstrip("\n").splitlines())
        return "\n".join(lines) + "\n"

    def canonical_text(self) -> str:
        """Byte-stable rendering: everything except the wall-time line."""
        return self._render(None)

    def text(self) -> str:
        return self._render(self.wall_time_s)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class SweepReport(_Report):
    theorem: str
    generator: str
    candidates: int
    vacuous: int
    confirmed: int
    counterexamples: tuple[tuple[int, str], ...]
    notes: tuple[str, ...] = ()
    wall_time_s: float = 0.0

    @property
    def counterexample_count(self) -> int:
        return len(self.counterexamples)

    def _parts(self):
        values = {
            "candidates": self.candidates,
            "confirmed": self.confirmed,
            "counterexamples": self.counterexample_count,
            "generator": self.generator,
            "theorem": self.theorem,
            "vacuous": self.vacuous,
        }
        return "sweep", values, "counterexample", self.counterexamples


@dataclass(frozen=True)
class SearchReport(_Report):
    question: str
    generator: str
    examined: int
    hypothesis_hits: int
    discoveries: tuple[tuple[int, str], ...]
    wall_time_s: float = 0.0

    @property
    def discovery_count(self) -> int:
        return len(self.discoveries)

    def _parts(self):
        values = {
            "discoveries": self.discovery_count,
            "examined": self.examined,
            "generator": self.generator,
            "hypothesis_hits": self.hypothesis_hits,
            "question": self.question,
        }
        return "search", values, "discovery", self.discoveries


# ---------------------------------------------------------------------------
# The driver shared by sweeps and searches.


@dataclass
class _Tally:
    vacuous: int = 0
    confirmed: int = 0
    counterexamples: list[tuple[int, str]] = field(default_factory=list)

    def add(self, other: _Tally) -> None:
        """Every field is a count or a list, so chunks add up field by field."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _evaluate_keys(
    keys: tuple[str, ...], gen: Generator, count: int, chunk: tuple[int, int]
) -> dict[str, _Tally]:
    """Tally each key over the orbits of the chunk [lo, hi), one candidate per
    orbit and each verdict once per member below count; a counterexample
    lists every member."""
    tallies = {key: _Tally() for key in keys}
    entries = [(tallies[key], *_entry(key)) for key in keys]
    for index, members in gen.orbits(*chunk, count):
        f = gen.candidate(index)
        weight = len(members)
        for tally, hyp, concl in entries:
            if not hyp(f):
                tally.vacuous += weight
            elif concl(f):
                tally.confirmed += weight
            else:
                tally.counterexamples.extend(
                    (m, _render(f if m == index else gen.candidate(m))) for m in members
                )
    return tallies


def _worker_count(jobs: int, chunks: int) -> int:
    """Worker processes to start: no more than the jobs asked for, the chunks
    to run or the CPUs present."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, chunks, os.cpu_count() or 1)


def _drive(
    keys: tuple[str, ...], generator: Generator, jobs: int, budget: int | None = None
) -> tuple[dict[str, _Tally], int, float]:
    """The tallies of each key over the generator's candidates, the first
    budget of them when one is given, their number and the wall time.  Chunks
    run in this process for one worker, else in a process pool."""
    if any((key == "LEMMA1_HYPERCUBE") != generator.on_points for key in keys):
        raise ValueError("LEMMA1_HYPERCUBE sweeps over subsets; every other key sweeps networks")
    count = generator_count(generator)
    if budget is not None:
        if budget < 0:
            raise ValueError(f"--budget must be at least 0, got {budget}")
        count = min(count, budget)
    started = time.perf_counter()
    ranges = generator.chunks(count, jobs)
    evaluate = partial(_evaluate_keys, keys, generator, count)
    workers = _worker_count(jobs, len(ranges))
    if workers < 2:
        chunks = list(map(evaluate, ranges))
    else:
        # imported here: multiprocessing costs about 2 MB, and one worker needs none of it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(evaluate, ranges))
    merged = {key: _Tally() for key in keys}
    for tallies in chunks:
        for key, tally in tallies.items():
            merged[key].add(tally)
    return merged, count, time.perf_counter() - started


def sweep_many(
    theorems: Iterable[Union[TheoremId, str]],
    generator: Generator,
    jobs: int = 1,
) -> dict[str, SweepReport]:
    """Run several catalog entries over one candidate stream in a single pass."""
    keys = tuple(_resolve(t, _THEOREM_KEYS, "theorem") for t in theorems)
    noted = tuple(_NOTED_TALLIES[key][0] for key in keys if key in _NOTED_TALLIES)
    tallies, count, wall = _drive(tuple(dict.fromkeys(keys + noted)), generator, jobs)
    descriptor = describe_generator(generator)
    reports = {}
    for key in keys:
        tally = tallies[key]
        notes = ()
        if key in _NOTED_TALLIES:
            other, prefix = _NOTED_TALLIES[key]
            notes = (
                f"{prefix}_confirmed={tallies[other].confirmed}",
                f"{prefix}_counterexamples={len(tallies[other].counterexamples)}",
            )
        reports[key] = SweepReport(
            theorem=key,
            generator=descriptor,
            candidates=count,
            vacuous=tally.vacuous,
            confirmed=tally.confirmed,
            counterexamples=tuple(sorted(tally.counterexamples)),
            notes=notes,
            wall_time_s=wall,
        )
    return reports


def sweep(
    theorem: Union[TheoremId, str], generator: Generator, jobs: int = 1
) -> SweepReport:
    (report,) = sweep_many([theorem], generator, jobs=jobs).values()
    return report


def open_question_search(
    question: Union[OpenQuestion, str],
    generator: Generator,
    budget: int | None = None,
    jobs: int = 1,
) -> SearchReport:
    key = _resolve(question, _QUESTIONS, "question")
    tallies, count, wall = _drive((key,), generator, jobs, budget)
    tally = tallies[key]
    return SearchReport(
        question=key,
        generator=describe_generator(generator),
        examined=count,
        hypothesis_hits=count - tally.vacuous,
        discoveries=tuple(sorted(tally.counterexamples)),
        wall_time_s=wall,
    )


def check(
    theorem: Union[TheoremId, str],
    candidate: Union[BooleanNetwork, Iterable[Point]],
) -> Verdict:
    """Classify one candidate: Vacuous, Confirmed, or Counterexample.
    LEMMA1_HYPERCUBE takes points over one component list, every other key a
    network."""
    key = _resolve(theorem, _THEOREM_KEYS, "theorem")
    on_points = key == "LEMMA1_HYPERCUBE"
    if on_points == isinstance(candidate, BooleanNetwork):
        wanted = "a set of points" if on_points else "a BooleanNetwork"
        raise ValueError(f"{key} expects {wanted}")
    if on_points:
        candidate = _point_set(candidate)
    hyp, concl = _entry(key)
    if not hyp(candidate):
        return Verdict(VerdictKind.VACUOUS)
    if concl(candidate):
        return Verdict(VerdictKind.CONFIRMED)
    return Verdict(VerdictKind.COUNTEREXAMPLE, _render(candidate))


def check_point_set(points: Iterable[Point]) -> Verdict:
    return check("LEMMA1_HYPERCUBE", points)
