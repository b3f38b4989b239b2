"""Boolean networks as explicit truth tables.

A network f over components (v_1, ..., v_n) maps each point of the hypercube
to a point of the same hypercube.  The table is the ground truth: entry
table[x] is the code of f at the point with code x.  All classification below
is in terms of the conjugate network x -> f(x) xor x, whose zeros are exactly
the fixed points of f.

Facts derived from a network are memoized with @memo, per instance: only
one-argument functions of the instance are memoized, each in the instance's
__dict__ under a key derived from the function's module and qualified name, so
the cached data lives and dies with the network.  An exception is never cached.
Only sub-table facts outlive their network, in one per-process cache:
subnetwork.item_circular_forms keeps, per free mask of one or two
components, a table from each key of the mask's packed output planes to its
circular form: 4 or 256 keys at most, so n*4 + C(n,2)*256 entries at width n,
780 at width 3 and 11,560 at 10, each key an integer of at most 2^(n+1) bits.
A mask of three or more components has no table: it has 2^(m 2^m) keys, and
the keys random networks meet there almost never repeat.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, wraps
from itertools import chain
from operator import xor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .hypercube import (
    FormatError,
    Point,
    check_components,
    code_names,
    component_mask,
    coordinate_sets,
    default_components,
    parse_code,
    parse_header,
    parity_sets,
)

S = TypeVar("S")
T = TypeVar("T")

_MISSING = object()

# Widest random or sampled network: its table has 2^16 entries.
RANDOM_WIDTH_CAP = 16


class WidthCapError(ValueError):
    """Raised when an operation would exceed its documented width cap."""


def check_width(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise WidthCapError(f"{what} is capped at width {cap}, got {n}")


def memo(compute: Callable[[S], T]) -> Callable[[S], T]:
    """Memoize a one-argument function in its argument's __dict__."""
    key = f"{compute.__module__}.{compute.__qualname__}"

    @wraps(compute)
    def wrapper(obj: S) -> T:
        d = obj.__dict__
        value = d.get(key, _MISSING)
        if value is _MISSING:
            value = d[key] = compute(obj)
        return value

    return wrapper


class ParityClass(Enum):
    EVEN = "Even"
    ODD = "Odd"
    NEITHER = "Neither"


@dataclass(frozen=True)
class BooleanNetwork:
    """A map f: {0,1}^V -> {0,1}^V given by its full table."""

    components: tuple[str, ...]
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        check_components(self.components)
        size = 1 << len(self.components)
        if len(self.table) != size:
            raise ValueError(f"table must have {size} entries, got {len(self.table)}")
        for value in self.table:
            if not 0 <= value < size:
                raise ValueError(f"table value {value} out of range")

    @property
    def width(self) -> int:
        return len(self.components)

    def point(self, code: int) -> Point:
        return Point(self.components, code)


def evaluate(f: BooleanNetwork, x: Point) -> Point:
    if x.components != f.components:
        raise ValueError("point components do not match the network")
    return Point(f.components, f.table[x.code])


def conjugate(f: BooleanNetwork) -> BooleanNetwork:
    """The network x -> f(x) xor x; its fixed-point-free zeros drive everything."""
    return BooleanNetwork(f.components, conjugate_codes(f))


@memo
def conjugate_codes(f: BooleanNetwork) -> tuple[int, ...]:
    return tuple(v ^ x for x, v in enumerate(f.table))


_DIGITS = tuple(bytes(48 + (b >> k & 1) for b in range(256)) for k in range(8))


def table_planes(table: Sequence[int], n: int) -> tuple[int, ...]:
    """The n bit planes of a table of n-bit entries, plane i the bitset of the
    indices whose entry has bit i set: the entries, last first, as
    little-endian 4-byte words on any host; plane i reads byte i // 8 of each
    word as the ASCII digit of its bit i % 8 (_DIGITS), base 2."""
    if not table:
        return (0,) * n
    words = struct.pack(f"<{len(table)}I", *reversed(table))
    return tuple(int(words[i >> 3 :: 4].translate(_DIGITS[i & 7]), 2) for i in range(n))


@memo
def output_bitsets(f: BooleanNetwork) -> tuple[int, ...]:
    """The bit planes O_i, the bitsets of the points where f_i is 1."""
    return table_planes(f.table, f.width)


_LANE_BITS = tuple(bytes.maketrans(b"01", bytes((0, 1 << k))) for k in range(8))


def plane_codes(planes, size: int) -> tuple[int, ...]:
    """The inverse of table_planes: entry x has bit i set when plane i holds
    x.  Plane i's base-2 digits become byte i // 8 of each word, as bit i % 8."""
    words = bytearray(size << 2)
    for lane in range(0, len(planes), 8):
        packed = 0
        for k, plane in enumerate(planes[lane : lane + 8]):
            digits = format(plane, f"0{size}b").encode()
            packed |= int.from_bytes(digits.translate(_LANE_BITS[k]), "big")
        words[lane >> 3 :: 4] = packed.to_bytes(size, "little")
    return struct.unpack(f"<{size}I", words)


@memo
def unstable_sets(f: BooleanNetwork) -> tuple[int, ...]:
    """O_k xor X_k: the points where f_k(x) != x_k, the conjugate's bit k."""
    return tuple(map(xor, output_bitsets(f), coordinate_sets(f.width)))


def table_fixed_point_codes(table: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x for x, v in enumerate(table) if v == x)


@memo
def fixed_point_codes(f: BooleanNetwork) -> tuple[int, ...]:
    return table_fixed_point_codes(f.table)


def fixed_points(f: BooleanNetwork) -> tuple[Point, ...]:
    return tuple(Point(f.components, x) for x in fixed_point_codes(f))


def table_is_self_dual(table: tuple[int, ...]) -> bool:
    """f(x xor 1) == f(x) xor 1 for the all-ones point 1."""
    full = len(table) - 1
    return all(table[x ^ full] == table[x] ^ full for x in range(len(table) // 2 or 1))


@memo
def is_self_dual(f: BooleanNetwork) -> bool:
    return table_is_self_dual(f.table)


def table_parity(table: tuple[int, ...]) -> ParityClass:
    """Even (odd) when the conjugate's image is exactly the even (odd) points.

    Containment is not enough: the image must cover the whole parity class,
    so the image's point bitset is compared with parity_sets.
    """
    image = 0
    for x, v in enumerate(table):
        image |= 1 << (v ^ x)
    even, odd = parity_sets(len(table).bit_length() - 1)
    if image == even:
        return ParityClass.EVEN
    if image == odd:
        return ParityClass.ODD
    return ParityClass.NEITHER


@memo
def parity_class(f: BooleanNetwork) -> ParityClass:
    return table_parity(f.table)


def table_eosd_class(table: tuple[int, ...]) -> ParityClass | None:
    """ParityClass.EVEN/ODD for even-/odd-self-dual tables, else None."""
    p = table_parity(table)
    if p is ParityClass.NEITHER or not table_is_self_dual(table):
        return None
    return p


@memo
def eosd_class(f: BooleanNetwork) -> ParityClass | None:
    """ParityClass.EVEN/ODD for even-/odd-self-dual networks, else None."""
    p = parity_class(f)
    return None if p is ParityClass.NEITHER or not is_self_dual(f) else p


@memo
def is_non_expansive(f: BooleanNetwork) -> bool:
    """d(f(x), f(y)) <= d(x, y); adjacent pairs suffice by the triangle inequality."""
    table = f.table
    for x in range(len(table)):
        fx = table[x]
        y = x
        while y:
            low = y & -y
            if (fx ^ table[x ^ low]).bit_count() > 1:
                return False
            y ^= low
    return True


@memo
def is_conjugate_bijective(f: BooleanNetwork) -> bool:
    return len(set(conjugate_codes(f))) == len(f.table)


def xor_output(f: BooleanNetwork, members: Iterable[str]) -> BooleanNetwork:
    """x -> f(x) xor e_I: flips the listed output components everywhere."""
    mask = component_mask(f.components, members)
    return BooleanNetwork(f.components, tuple(v ^ mask for v in f.table))


def translate(f: BooleanNetwork, members: Iterable[str]) -> BooleanNetwork:
    """x -> f(x xor e_I) xor e_I: conjugation by the translation along e_I."""
    mask = component_mask(f.components, members)
    table = f.table
    return BooleanNetwork(
        f.components, tuple(table[x ^ mask] ^ mask for x in range(len(table)))
    )


def network_from_index(n: int, index: int) -> BooleanNetwork:
    """Decode a table from an integer: component block c holds f(c), low bits first.
    Halving the index into words of at most 64 blocks keeps every shift short."""
    size = 1 << n
    mask = size - 1
    bits = n * size
    if not 0 <= index < 1 << bits:
        raise ValueError(f"network index {index} out of range for width {n}")
    words = [index]
    while bits > n << 6:
        bits >>= 1
        low = (1 << bits) - 1
        words = [w for word in words for w in (word & low, word >> bits)]
    table = tuple([word >> s & mask for word in words for s in range(0, bits, n)])
    return BooleanNetwork(default_components(n), table)


def enumerate_networks(n: int) -> Iterator[BooleanNetwork]:
    """All 2^(n 2^n) networks of width n <= 3 in ascending table-index order."""
    check_width("exhaustive enumeration", n, 3)
    for index in range(1 << (n << n)):
        yield network_from_index(n, index)


def random_network(n: int, seed: int) -> BooleanNetwork:
    """The width-n network drawn from a fresh PRNG with the given seed."""
    check_width("random network generation", n, RANDOM_WIDTH_CAP)
    index = random.Random(seed).getrandbits(n << n)
    return network_from_index(n, index)


def parse_bn(
    text: str | Iterable[str], width_cap: tuple[str, int] | None = None
) -> BooleanNetwork:
    """Parse the .bn format, given as a string or its lines: a components
    line, then one row per input point.

    Rows may appear in any order; missing, duplicate or malformed rows are
    rejected.  '#' starts a comment.  With width_cap = (what, cap), a header
    wider than cap raises WidthCapError before any row is read.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    components, rest = parse_header(lines, "components", "network")
    n = len(components)
    if width_cap is not None:
        check_width(width_cap[0], n, width_cap[1])
    rows = list(rest)
    size = 1 << n
    if len(rows) != size:
        raise FormatError(f"expected {size} table rows, got {len(rows)}")
    codes = _code_texts(n)
    table: list[int | None] = [None] * size
    for line in rows:
        parts = line.split()
        if len(parts) != 3 or parts[1] != "->":
            raise FormatError(f"bad table row {line!r}")
        src = codes.get(parts[0])
        if src is None:  # no code, or a width past the map: parse_code decides
            src = parse_code(parts[0], n)
        if table[src] is not None:
            raise FormatError(f"duplicate table row for input {parts[0]}")
        dst = codes.get(parts[2])
        table[src] = parse_code(parts[2], n) if dst is None else dst
    return BooleanNetwork(components, tuple(table))  # type: ignore[arg-type]


@lru_cache(maxsize=None)
def _code_texts(n: int) -> dict[str, int]:
    """Each of the 2^n texts parse_code accepts at width n, mapped to its code, up
    to width 12 (0.5 MB); wider, none, since at width 16 the map alone is 9 MB."""
    return dict(zip(code_names(n), range(1 << n))) if n <= 12 else {}


def render_bn(f: BooleanNetwork) -> str:
    """Canonical .bn text: rows in ascending input-code order."""
    names = code_names(f.width)
    lines = ["components " + " ".join(f.components)]
    lines.extend(f"{names[x]} -> {names[v]}" for x, v in enumerate(f.table))
    return "\n".join(lines) + "\n"


def load_bn(path: str, width_cap: tuple[str, int] | None = None) -> BooleanNetwork:
    """Read a .bn file line by line, as parse_bn(text, width_cap) would."""
    with open(path, "r", encoding="utf-8") as handle:
        # split each file line again so the lines are those of text.splitlines()
        return parse_bn(chain.from_iterable(map(str.splitlines, handle)), width_cap)
