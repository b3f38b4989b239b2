"""Subnetworks obtained by freezing components, and criticality analysis.

Fixing the components outside I to the values of a point z yields the
subnetwork on I that evaluates f with the frozen bits in place and reads back
the free coordinates.  Enumeration order everywhere: |I| ascending, then I in
lexicographic order, then z in lexicographic (bitstring) order, so witnesses
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator

from .hypercube import (
    Point,
    component_mask,
    gather_bits,
    mask_labels,
    scatter_bits,
)
from .network import (
    BooleanNetwork,
    WidthCapError,
    default_components,
    enumerate_networks,
    fixed_point_codes,
    is_eosd,
    memo,
    table_fixed_point_codes,
    table_is_eosd,
)


@dataclass(frozen=True)
class SubnetworkSpec:
    """Free components I (as a mask over the parent) plus frozen values z."""

    components: tuple[str, ...]
    free_mask: int
    fixed_code: int

    def __post_init__(self) -> None:
        full = (1 << len(self.components)) - 1
        if not 0 < self.free_mask <= full:
            raise ValueError("free component set must be nonempty")
        if self.fixed_code & ~(full ^ self.free_mask):
            raise ValueError("fixed values must lie on the frozen components")

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
        fixed = self.fixed
        if fixed is not None:
            for label in fixed.components:
                text += f" z[{label}]={fixed.value(label)}"
        return text


def make_spec(
    f: BooleanNetwork, free: Iterable[str], fixed: dict[str, int] | None = None
) -> SubnetworkSpec:
    free_mask = component_mask(f.components, free)
    fixed = dict(fixed or {})
    fixed_code = 0
    for label, value in fixed.items():
        bit = component_mask(f.components, [label])
        if bit & free_mask:
            raise ValueError(f"component {label!r} is free, cannot be frozen")
        if value:
            fixed_code |= bit
    full = (1 << f.width) - 1
    missing = full & ~free_mask & ~component_mask(f.components, fixed)
    if missing:
        raise ValueError(f"no value for frozen components {mask_labels(f.components, missing)}")
    return SubnetworkSpec(f.components, free_mask, fixed_code)


def sub_table(
    table: tuple[int, ...], free_mask: int, fixed_code: int
) -> tuple[int, ...]:
    """Truth table of the subnetwork: evaluate with frozen bits, keep free bits."""
    m = free_mask.bit_count()
    return tuple(
        gather_bits(table[fixed_code | scatter_bits(y, free_mask)], free_mask)
        for y in range(1 << m)
    )


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


def subnetwork_specs(
    components: tuple[str, ...], include_self: bool = True
) -> Iterator[SubnetworkSpec]:
    n = len(components)
    top = n if include_self else n - 1
    for size in range(1, top + 1):
        for combo in combinations(range(n), size):
            free_mask = sum(1 << i for i in combo)
            fixed_bits = [1 << i for i in range(n) if not free_mask >> i & 1]
            for z in range(1 << len(fixed_bits)):
                # z counts in bitstring-lex order: leftmost fixed label first.
                fixed_code = 0
                for k, bit in enumerate(fixed_bits):
                    if z >> (len(fixed_bits) - 1 - k) & 1:
                        fixed_code |= bit
                yield SubnetworkSpec(components, free_mask, fixed_code)


def subnetworks(
    f: BooleanNetwork, include_self: bool = False
) -> Iterator[tuple[SubnetworkSpec, BooleanNetwork]]:
    """All subnetworks of f in the documented deterministic order."""
    for spec in subnetwork_specs(f.components, include_self):
        yield spec, induced_subnetwork(f, spec)


@memo
def spec_items(f: BooleanNetwork) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(free_mask, fixed_code, table) for every subnetwork, f itself last."""
    return tuple(
        (spec.free_mask, spec.fixed_code, sub_table(f.table, spec.free_mask, spec.fixed_code))
        for spec in subnetwork_specs(f.components, include_self=True)
    )


@memo
def item_fixed_point_counts(f: BooleanNetwork) -> dict[tuple[int, int], int]:
    """Fixed-point count per subnetwork item (free mask, frozen code), f last."""
    return {
        (mask, code): len(table_fixed_point_codes(table))
        for mask, code, table in spec_items(f)
    }


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


@memo
def find_eosd_subnetwork(
    f: BooleanNetwork,
) -> tuple[SubnetworkSpec, BooleanNetwork] | None:
    """First even- or odd-self-dual subnetwork in enumeration order, if any."""
    for free_mask, fixed_code, table in spec_items(f):
        if table_is_eosd(table):
            spec = SubnetworkSpec(f.components, free_mask, fixed_code)
            return spec, induced_subnetwork(f, spec)
    return None


def has_eosd_subnetwork(f: BooleanNetwork) -> bool:
    return find_eosd_subnetwork(f) is not None


@dataclass(frozen=True)
class CriticalityReport:
    """Fixed-point counts of f against the profile of its strict subnetworks."""

    fixed_point_count: int
    two_critical: bool
    zero_critical: bool
    strict_min: int | None
    strict_max: int | None


def criticality(f: BooleanNetwork) -> CriticalityReport:
    counts = tuple(item_fixed_point_counts(f).values())[:-1]
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


def is_critical_eosd(f: BooleanNetwork) -> bool:
    """Even- or odd-self-dual with no strict subnetwork of either kind."""
    if not is_eosd(f):
        return False
    return not any(table_is_eosd(table) for _, _, table in spec_items(f)[:-1])


def all_subnetworks_fixed_point_census(f: BooleanNetwork) -> tuple[int, int]:
    """(min, max) fixed-point count over every subnetwork, f included."""
    counts = item_fixed_point_counts(f).values()
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


def satisfies_everywhere(prop: BaseProperty, f: BooleanNetwork) -> bool:
    """The closed property: every subnetwork of f (f included) passes the base."""
    if not prop.holds(len(fixed_point_codes(f))):
        return False
    return all(prop.holds(c) for c in item_fixed_point_counts(f).values())


def item_is_minimal_violation(
    prop: BaseProperty, fps: dict[tuple[int, int], int], item: tuple[int, int]
) -> bool:
    """The item fails the base while every strict sub-item passes it; fps is
    item_fixed_point_counts of the network the item belongs to."""
    return not prop.holds(fps[item]) and all(
        prop.holds(fps[sub]) for sub in strict_subitems(*item)
    )


def is_minimal_violation(prop: BaseProperty, f: BooleanNetwork) -> bool:
    """f fails the base while every strict subnetwork passes it."""
    # f's own count decides most networks before any subnetwork table is built.
    if prop.holds(len(fixed_point_codes(f))):
        return False
    return item_is_minimal_violation(
        prop, item_fixed_point_counts(f), ((1 << f.width) - 1, 0)
    )


def minimal_forbidden_set(prop: BaseProperty, n: int) -> Iterator[BooleanNetwork]:
    """Every network of width <= n that is a minimal violation of the property.

    Exhausts all widths up to n over canonical labels; n = 3 is permitted but
    walks 2^24 networks, so expect minutes.
    """
    if n > 3:
        raise WidthCapError(f"minimal_forbidden_set is capped at width 3, got {n}")
    for width in range(1, n + 1):
        components = default_components(width)
        for f in enumerate_networks(width, components):
            if is_minimal_violation(prop, f):
                yield f
