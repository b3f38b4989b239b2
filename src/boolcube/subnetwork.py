"""Subnetworks obtained by freezing components, and criticality analysis.

Fixing the components outside I to the values of a point z yields the
subnetwork on I that evaluates f with the frozen bits in place and reads back
the free coordinates.  Enumeration order everywhere: |I| ascending, then I in
lexicographic order, then z in lexicographic (bitstring) order, so witnesses
are deterministic.

Every walk over the subnetworks reads the masks of one SubnetworkPlan per
width, and each mask's record, built the first time a walk reaches it.  Walks
over whole masks build a mask's tables in one pass along its item order; the
EOSD search builds one table at a time and stops at its witness.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterator

from .hypercube import Point, component_mask, coordinate_sets, gather_bits, mask_labels
from .network import (
    BooleanNetwork,
    check_width,
    enumerate_networks,
    fixed_point_codes,
    memo,
    output_bitsets,
    table_eosd_class,
    table_planes,
    unstable_sets,
)
from .siggraph import detect_circular, literal_cycle

# Widest network whose subnetworks are walked: a mask's gather table and item
# order hold 2^n entries each, so a walk over every mask keeps 4^n of each,
# about 12 MB of gather tables and 4 MB of orders at width 10.
SUBNETWORK_WIDTH_CAP = 10


def _check_item(n: int, free_mask: int, fixed_code: int = 0) -> None:
    """Refuse a free mask outside 1..2^n - 1, or a frozen code on a free bit."""
    full = (1 << n) - 1
    if not 0 < free_mask <= full:
        raise ValueError("free component set must be nonempty")
    if fixed_code & ~(full ^ free_mask):
        raise ValueError("fixed values must lie on the frozen components")


@dataclass(frozen=True)
class SubnetworkSpec:
    """Free components I (as a mask over the parent) plus frozen values z."""

    components: tuple[str, ...]
    free_mask: int
    fixed_code: int

    def __post_init__(self) -> None:
        _check_item(len(self.components), self.free_mask, self.fixed_code)

    @property
    def free(self) -> tuple[str, ...]:
        return mask_labels(self.components, self.free_mask)

    @property
    def is_full(self) -> bool:
        return self.free_mask == (1 << len(self.components)) - 1

    @property
    def fixed(self) -> Point | None:
        """The frozen assignment as a point over V minus I (None for I = V)."""
        if self.is_full:
            return None
        fixed_mask = ((1 << len(self.components)) - 1) ^ self.free_mask
        return Point(
            mask_labels(self.components, fixed_mask),
            gather_bits(self.fixed_code, fixed_mask),
        )

    def __str__(self) -> str:
        text = "I={" + ",".join(self.free) + "}"
        for k, label in enumerate(self.components):
            if not self.free_mask >> k & 1:
                text += f" z[{label}]={self.fixed_code >> k & 1}"
        return text


class MaskRecords(dict):
    """Per free mask of one width, (codes, scatter, points, gather), built when
    first read from the mask without its top bit t: item (mask, code) for code in
    codes, in order, has point y at parent point code | scatter[y]; points is their
    bitset; gather maps a parent code to its free bits, a 2^t-entry block repeated."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, mask: int) -> tuple:
        _check_item(self.n, mask)
        n, top = self.n, 1 << (mask.bit_length() - 1)
        _, scatter, points, gather = self[mask ^ top] if mask != top else ((), (0,), 1, (0,) * top)
        low = gather[:top]
        high = tuple(map((1 << (mask.bit_count() - 1)).__or__, low))
        fixed = [0]  # z in bitstring-lex order: the lowest frozen bit varies slowest
        for k in range(n - 1, -1, -1):
            if not mask >> k & 1:
                fixed += [c | 1 << k for c in fixed]
        scatter += tuple(map(top.__or__, scatter))
        gather = (low + high) * ((1 << n) // (2 * top))
        return self.setdefault(mask, (tuple(fixed), scatter, points | points << top, gather))


@dataclass(frozen=True)
class SubnetworkPlan:
    """Every subnetwork item (mask, code) of one width: for mask in masks, for
    code in the codes of records[mask], f's own item last."""

    masks: tuple[int, ...]
    records: MaskRecords

    def items(self) -> Iterator[tuple[int, int]]:
        for mask in self.masks:
            for code in self.records[mask][0]:
                yield mask, code


@lru_cache(maxsize=None)
def subnetwork_plan(n: int) -> SubnetworkPlan:
    """The mask order of width n, and its records, none built yet."""
    check_width("the subnetwork walk", n, SUBNETWORK_WIDTH_CAP)
    bits = [1 << k for k in range(n)]
    masks = map(sum, chain.from_iterable(combinations(bits, m) for m in range(1, n + 1)))
    return SubnetworkPlan(tuple(masks), MaskRecords(n))


@lru_cache(maxsize=None)
def item_order(n: int, mask: int) -> tuple[array, array]:
    """(order, inverse) of one free mask of width n, as 2-byte arrays built on
    first use: order lists the parent points code | scatter[y] of the mask's
    items, for code in codes, then y, so item k holds positions k * 2^|mask|
    on, and inverse is its inverse permutation, each parent point's position."""
    codes, scatter, _, _ = subnetwork_plan(n).records[mask]
    order = array("H", [code | s for code in codes for s in scatter])
    return order, array("H", sorted(range(len(order)), key=order.__getitem__))


def _lookup(at: Callable[[int], int], gather: tuple, scatter: tuple, code: int) -> tuple:
    """A subnetwork's table: f (at) at code | s packed by gather, per s in scatter."""
    return tuple(map(gather.__getitem__, map(at, map(code.__or__, scatter))))


def sub_table(
    table: tuple[int, ...], free_mask: int, fixed_code: int
) -> tuple[int, ...]:
    """Truth table of the subnetwork: evaluate with frozen bits, keep free bits."""
    n = len(table).bit_length() - 1
    _, scatter, _, gather = subnetwork_plan(n).records[free_mask]
    _check_item(n, free_mask, fixed_code)
    return _lookup(table.__getitem__, gather, scatter, fixed_code)


def induced_subnetwork(f: BooleanNetwork, spec: SubnetworkSpec) -> BooleanNetwork:
    if spec.components != f.components:
        raise ValueError("spec components do not match the network")
    return BooleanNetwork(spec.free, sub_table(f.table, spec.free_mask, spec.fixed_code))


def immediate_subnetwork(f: BooleanNetwork, label: str, value: int) -> BooleanNetwork:
    """Freeze a single component; defined only for networks of width >= 2."""
    if f.width < 2:
        raise ValueError("immediate subnetworks need width at least 2")
    if value not in (0, 1):
        raise ValueError(f"component value must be 0 or 1, got {value!r}")
    bit = component_mask(f.components, [label])
    full = (1 << f.width) - 1
    return induced_subnetwork(
        f, SubnetworkSpec(f.components, full ^ bit, bit if value else 0)
    )


def mask_tables(at: Callable[[int], int], gather: tuple, order: array) -> tuple[int, ...]:
    """The tables of every item of one free mask, concatenated in item order:
    f (at) at each point of the mask's item order, packed onto the mask."""
    return tuple(map(gather.__getitem__, map(at, order)))


def item_tables(
    f: BooleanNetwork, include_self: bool = True
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(free_mask, fixed_code, table) per subnetwork in enumeration order, f's
    own last; a mask's tables are built when the walk reaches the mask."""
    plan, at = subnetwork_plan(f.width), f.table.__getitem__
    for mask in plan.masks if include_self else plan.masks[:-1]:
        codes, scatter, _, gather = plan.records[mask]
        tables, width = mask_tables(at, gather, item_order(f.width, mask)[0]), len(scatter)
        for start, code in zip(range(0, len(tables), width), codes):
            yield mask, code, tables[start : start + width]


@lru_cache(maxsize=None)
def strict_blocks(n: int) -> tuple[int, tuple[int, ...]]:
    """(tile, free) for strict_sub_planes at width n: a set of the n-cube
    times tile is its copy in every block, and free[k], the union of the
    blocks whose mask frees component k, is plane k of the stacked table whose
    entries are their block's mask."""
    size, masks = 1 << n, subnetwork_plan(n).masks[:-1]
    tile = ((1 << (len(masks) << n)) - 1) // ((1 << size) - 1)
    return tile, table_planes([mask for mask in masks for _ in range(size)], n)


@memo
def strict_sub_planes(f: BooleanNetwork) -> tuple[int, ...]:
    """The n output planes of every strict subnetwork's table, stacked in
    2^n - 2 blocks of 2^n bits, one copy of the parent cube per strict mask in
    plan order: point y of item (mask, code) is point code | scatter[y] of its
    mask's block and holds the item's value scattered back onto the mask.  The
    items of one mask tile its block, so a block is its mask's tables read
    through the inverse of the item order, in one pass."""
    n, at, stacked = f.width, f.table.__getitem__, []
    plan = subnetwork_plan(n)
    for mask in plan.masks[:-1]:
        _, scatter, _, gather = plan.records[mask]
        order, inverse = item_order(n, mask)
        tables = mask_tables(at, gather, order)
        stacked += map(scatter.__getitem__, map(tables.__getitem__, inverse))
    return table_planes(stacked, n)


@memo
def _fixed_sets(f: BooleanNetwork) -> tuple[int, ...]:
    """Per free mask, the bitset of the points x whose conjugate vanishes on
    the mask, i.e. the points fixed in the subnetwork that contains them."""
    zero = [(1 << len(f.table)) - 1] * len(f.table)
    for k, unstable in enumerate(unstable_sets(f)):
        zero[1 << k] ^= unstable
    for mask in range(1, len(f.table)):
        top = 1 << (mask.bit_length() - 1)
        zero[mask] = zero[mask ^ top] & zero[top]
    return tuple(zero)


class _FormTable(dict):
    """The circular form per key of one free mask of m <= 2 components: a key
    packs the item's m free output planes on the mask's points, plane a in
    bits a * 2^n on, so the table holds at most 2^(m * 2^m) keys, 4 or 256.
    A missing key is unpacked and solved once per process."""

    def __init__(self, n: int, on: int, literals: dict[int, tuple[int, int]], m: int) -> None:
        super().__init__()
        self.on, self.literals, self.fields = on, literals, tuple(a << n for a in range(m))

    def __missing__(self, key: int) -> tuple[tuple[int, ...], int] | None:
        on = self.on
        form = self[key] = literal_cycle(self.literals, [key >> s & on for s in self.fields])
        return form


@lru_cache(maxsize=None)
def _free_literals(n: int) -> tuple[tuple, tuple, tuple]:
    """The strict masks of width n as item_circular_forms reads them, in plan
    order, where every mask of one or two components precedes the wider ones:
    (pairs, small, wide).  Per mask of one or two free components, pairs
    holds the components (i, j) whose planes it packs, j = n (a zero plane)
    for one, and small holds (forms, spread, codes): the mask's _FormTable,
    its points repeated in field a of a packed key (bits a * 2^n on) per free
    component a, and its frozen codes.  Per wider mask, whose keys almost
    never repeat, wide holds (codes, on, free, literals): its frozen codes and
    points, its free components, and their literals x_j and not x_j restricted
    to its points, as a map from each bitset to (local index of j, 1 if
    negated else 0)."""
    plan, cube = subnetwork_plan(n), coordinate_sets(n)
    pairs, small, wide = [], [], []
    for mask in plan.masks[:-1]:
        codes, _, on, _ = plan.records[mask]
        free = tuple(k for k in range(n) if mask >> k & 1)
        xs = [cube[j] & on for j in free]
        literals = {v: (b, neg) for b, x in enumerate(xs) for neg, v in enumerate((x, on ^ x))}
        if len(free) > 2:
            wide.append((codes, on, free, literals))
            continue
        forms = _FormTable(n, on, literals, len(free))
        spread = sum(on << (a << n) for a in range(len(free)))
        small.append((forms, spread, codes))
        pairs.append(free if len(free) == 2 else (free[0], n))
    return tuple(pairs), tuple(small), tuple(wide)


@memo
def item_circular_forms(f: BooleanNetwork) -> tuple[tuple[tuple[int, ...], int] | None, ...]:
    """Per item in plan order, f's own last, (predecessor map, constant) in
    the item's local indices when the subnetwork is a circular network, else
    None.  Reads f's output bitsets, builds no table; f's own is detect_circular's.
    A mask of one or two components packs its free planes once, plane a shifted
    by a * 2^n, so its item at a frozen code has the key packed >> code & spread
    in the mask's form table; a wider mask solves each item's planes directly."""
    n, ones = f.width, output_bitsets(f)
    pairs, small, wide = _free_literals(n)
    planes, field = (*ones, 0), 1 << n
    packed = [planes[i] | planes[j] << field for i, j in pairs]
    forms = [
        table[key >> code & spread]
        for (table, spread, codes), key in zip(small, packed)
        for code in codes
    ]
    for codes, on, free, literals in wide:
        for code in codes:
            forms.append(literal_cycle(literals, [ones[i] >> code & on for i in free]))
    own = detect_circular(f)
    forms.append(None if own is None else (own.predecessor, own.constant))
    return tuple(forms)


def item_fixed_point_counts(f: BooleanNetwork, include_self: bool = True) -> Iterator[int]:
    """Fixed-point count per item in enumeration order, f's own last, with no table."""
    plan, fixed = subnetwork_plan(f.width), _fixed_sets(f)
    for mask in plan.masks if include_self else plan.masks[:-1]:
        codes, _, on, _ = plan.records[mask]
        for code in codes:
            yield (fixed[mask] >> code & on).bit_count()


def subnetworks(
    f: BooleanNetwork, include_self: bool = False
) -> Iterator[tuple[SubnetworkSpec, BooleanNetwork]]:
    """All subnetworks of f in the documented deterministic order."""
    for mask, code, table in item_tables(f, include_self):
        spec = SubnetworkSpec(f.components, mask, code)
        yield spec, BooleanNetwork(spec.free, table)


@memo
def _first_eosd_item(f: BooleanNetwork) -> tuple[int, int, tuple[int, ...]] | None:
    """(free_mask, fixed_code, table) of the first even- or odd-self-dual
    subnetwork in enumeration order, if any; the walk builds one table at a
    time and stops there."""
    plan, at = subnetwork_plan(f.width), f.table.__getitem__
    for mask in plan.masks:
        codes, scatter, _, gather = plan.records[mask]
        for code in codes:
            table = _lookup(at, gather, scatter, code)
            if table_eosd_class(table) is not None:
                return mask, code, table
    return None


def find_eosd_subnetwork(
    f: BooleanNetwork,
) -> tuple[SubnetworkSpec, BooleanNetwork] | None:
    """First even- or odd-self-dual subnetwork in enumeration order, if any."""
    item = _first_eosd_item(f)
    if item is None:
        return None
    mask, code, table = item
    spec = SubnetworkSpec(f.components, mask, code)
    return spec, BooleanNetwork(spec.free, table)


def has_eosd_subnetwork(f: BooleanNetwork) -> bool:
    return _first_eosd_item(f) is not None


@dataclass(frozen=True)
class CriticalityReport:
    """Fixed-point counts of f against the profile of its strict subnetworks."""

    fixed_point_count: int
    two_critical: bool
    zero_critical: bool
    strict_min: int | None
    strict_max: int | None


def criticality(f: BooleanNetwork) -> CriticalityReport:
    counts = list(item_fixed_point_counts(f, include_self=False))
    return CriticalityReport(
        fixed_point_count=len(fixed_point_codes(f)),
        two_critical=is_two_critical(f),
        zero_critical=is_zero_critical(f),
        strict_min=min(counts) if counts else None,
        strict_max=max(counts) if counts else None,
    )


def is_two_critical(f: BooleanNetwork) -> bool:
    return is_minimal_violation(BaseProperty.AT_MOST_ONE, f)


def is_zero_critical(f: BooleanNetwork) -> bool:
    return is_minimal_violation(BaseProperty.AT_LEAST_ONE, f)


def all_subnetworks_fixed_point_census(f: BooleanNetwork) -> tuple[int, int]:
    """(min, max) fixed-point count over every subnetwork, f included."""
    # A list, not a tuple: a tuple built from a generator is resized to its
    # length, and once freed it joins the interpreter's free list of tuples of
    # that length, which no later resize draws from, up to 2,000 of them.
    counts = list(item_fixed_point_counts(f))
    return min(counts), max(counts)


class BaseProperty(Enum):
    AT_MOST_ONE = "AtMostOne"
    AT_LEAST_ONE = "AtLeastOne"
    EXACTLY_ONE = "ExactlyOne"

    def holds(self, fp_count: int) -> bool:
        if self is BaseProperty.AT_MOST_ONE:
            return fp_count <= 1
        if self is BaseProperty.AT_LEAST_ONE:
            return fp_count >= 1
        return fp_count == 1


def is_minimal_violation(prop: BaseProperty, f: BooleanNetwork) -> bool:
    """f fails the base while every strict subnetwork passes it.  The walk
    stops at the first strict subnetwork that fails."""
    # f's own count decides most networks before any subnetwork is counted.
    if prop.holds(len(fixed_point_codes(f))):
        return False
    return all(map(prop.holds, item_fixed_point_counts(f, include_self=False)))


def minimal_forbidden_set(prop: BaseProperty, n: int) -> Iterator[BooleanNetwork]:
    """Every network of width <= n that is a minimal violation of the property.

    Exhausts all widths up to n over canonical labels; n = 3 is permitted but
    walks 2^24 networks, so expect minutes.
    """
    check_width("minimal_forbidden_set", n, 3)
    for width in range(1, n + 1):
        for f in enumerate_networks(width):
            if is_minimal_violation(prop, f):
                yield f
