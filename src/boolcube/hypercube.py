"""Points of the Boolean hypercube, point sets as bitsets, and component bookkeeping.

A point over an ordered list of component labels is stored as an int whose
bit k is the value of the k-th component.  In the textual form the leftmost
character belongs to the first (smallest) label, so "100" over components
(1, 2, 3) is the point with component 1 on and code 1.  A set of points is
the bitset with bit c set for each member's code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator


class FormatError(ValueError):
    """Raised when a textual point, network or graph cannot be parsed."""


# The one label tuple per width that default_components hands out, filled
# only by it.  That tuple is valid by construction; any other is checked.
_DEFAULT_LABELS: dict[int, tuple[str, ...]] = {}


def default_components(n: int) -> tuple[str, ...]:
    """The labels "1", ..., "n", the same tuple on every call."""
    labels = _DEFAULT_LABELS.get(n)
    if labels is None:
        labels = _DEFAULT_LABELS[n] = tuple(str(i) for i in range(1, n + 1))
    return labels


def check_components(components: tuple[str, ...]) -> None:
    if not components:
        raise ValueError("component list must be nonempty")
    if components is _DEFAULT_LABELS.get(len(components)):
        return
    seen = set()
    for label in components:
        # split() cuts at exactly the characters that isspace() accepts
        if not label or label.startswith("#") or label.split() != [label]:
            raise ValueError(f"bad component label {label!r}")
        if label in seen:
            raise ValueError(f"duplicate component label {label!r}")
        seen.add(label)


def parse_header(
    lines: Iterable[str], keyword: str, what: str
) -> tuple[tuple[str, ...], Iterator[str]]:
    """(labels, the remaining lines) of a text, given as its lines, whose first
    line is '<keyword> <label> <label> ...'; '#' starts a comment and blank
    lines are dropped.  No line past the header is read here."""
    heads = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    content = filter(None, map(str.strip, heads))
    first = next(content, None)
    if first is None:
        raise FormatError(f"empty {what} description")
    head = first.split()
    if head[0] != keyword or len(head) < 2:
        raise FormatError(f"first line must be: {keyword} <label> <label> ...")
    labels = tuple(head[1:])
    try:
        check_components(labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return labels, content


def component_mask(components: tuple[str, ...], members: Iterable[str]) -> int:
    """Bitmask of the given labels, validated against the component list."""
    index = {label: k for k, label in enumerate(components)}
    mask = 0
    for label in members:
        try:
            mask |= 1 << index[label]
        except KeyError:
            raise ValueError(f"unknown component {label!r}") from None
    return mask


def mask_labels(components: tuple[str, ...], mask: int) -> tuple[str, ...]:
    return tuple(label for k, label in enumerate(components) if mask >> k & 1)


@dataclass(frozen=True)
class Point:
    """A vertex of the hypercube over an ordered component list."""

    components: tuple[str, ...]
    code: int

    def __post_init__(self) -> None:
        check_components(self.components)
        if not 0 <= self.code < 1 << len(self.components):
            raise ValueError(f"code {self.code} out of range for width {len(self.components)}")

    @property
    def width(self) -> int:
        return len(self.components)

    @property
    def weight(self) -> int:
        return self.code.bit_count()

    @property
    def bits(self) -> str:
        return format_code(self.code, len(self.components))

    def __str__(self) -> str:
        return self.bits

    def value(self, label: str) -> int:
        return self.code >> _index_of(self.components, label) & 1

    def ones(self) -> frozenset[str]:
        """Set of components that are on (the support of the point)."""
        return frozenset(mask_labels(self.components, self.code))


def _index_of(components: tuple[str, ...], label: str) -> int:
    try:
        return components.index(label)
    except ValueError:
        raise ValueError(f"unknown component {label!r}") from None


def format_code(code: int, width: int) -> str:
    # the bit at width keeps the leading zeros; the reversed slice drops it and "0b"
    return bin(code | 1 << width)[:2:-1]


@lru_cache(maxsize=None)
def _kept_code_names(n: int) -> tuple[str, ...]:
    return tuple(map(format_code, range(1 << n), repeat(n)))


def code_names(n: int) -> tuple[str, ...]:
    """format_code(x, n) at index x, for every point x of the n-cube.  Kept once
    made up to width 12 (4,096 names); wider, made again on each call."""
    return _kept_code_names(n) if n <= 12 else _kept_code_names.__wrapped__(n)


def parse_code(text: str, width: int) -> int:
    # validate first: int() alone accepts "_", a sign, whitespace and non-ASCII digits
    if len(text) != width or text.strip("01"):
        raise FormatError(f"expected {width} bits, got {text!r}")
    return int(text[::-1] or "0", 2)


def parse_point(text: str, components: tuple[str, ...]) -> Point:
    return Point(components, parse_code(text, len(components)))


def all_points(components: tuple[str, ...]) -> Iterator[Point]:
    for code in range(1 << len(components)):
        yield Point(components, code)


def _same_space(x: Point, y: Point) -> None:
    if x.components != y.components:
        raise ValueError("points live over different component lists")


def xor(x: Point, y: Point) -> Point:
    _same_space(x, y)
    return Point(x.components, x.code ^ y.code)


def hamming(x: Point, y: Point) -> int:
    """Hamming distance, the number of components on which x and y differ."""
    _same_space(x, y)
    return (x.code ^ y.code).bit_count()


def basis_point(components: tuple[str, ...], label: str) -> Point:
    """e_label: the point that is on exactly at the given component."""
    return Point(components, 1 << _index_of(components, label))


def restrict(x: Point, members: Iterable[str]) -> Point:
    """x|_I: keep only the components in I (nonempty), in their original order."""
    mask = component_mask(x.components, members)
    if mask == 0:
        raise ValueError("cannot restrict to an empty component set")
    return Point(mask_labels(x.components, mask), gather_bits(x.code, mask))


def drop(x: Point, members: Iterable[str]) -> Point:
    """x_{-I}: remove the components in I (a proper subset of the labels)."""
    mask = component_mask(x.components, members)
    keep = ((1 << len(x.components)) - 1) & ~mask
    if keep == 0:
        raise ValueError("cannot drop every component")
    return Point(mask_labels(x.components, keep), gather_bits(x.code, keep))


def gather_bits(code: int, mask: int) -> int:
    """Compress the bits of code selected by mask into the low-order positions."""
    out = pos = 0
    while mask:
        low = mask & -mask
        if code & low:
            out |= 1 << pos
        pos += 1
        mask ^= low
    return out


def neighbor_set(points: Iterable[Point]) -> frozenset[Point]:
    """N(X): every point at Hamming distance exactly 1 from some point of X."""
    points = list(points)
    if not points:
        return frozenset()
    components = points[0].components
    for p in points:
        if p.components != components:
            raise ValueError("points live over different component lists")
    width = len(components)
    out = {Point(components, p.code ^ (1 << k)) for p in points for k in range(width)}
    return frozenset(out)


@lru_cache(maxsize=None)
def coordinate_sets(n: int) -> tuple[int, ...]:
    """X_j for each j < n: the bitset of the points of the n-cube with x_j = 1."""
    full = (1 << (1 << n)) - 1
    # blocks of 2^j zeros then 2^j ones: a repunit of period 2^(j+1) times one block
    return tuple(
        full // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1 << (1 << j))
        for j in range(n)
    )


@lru_cache(maxsize=None)
def cube_literals(n: int) -> dict[int, tuple[int, int]]:
    """Map from each literal x_j or not x_j of the n-cube, as the bitset of
    the points where it is 1, to (j, 1 if negated else 0)."""
    full = (1 << (1 << n)) - 1
    out = {}
    for j, x in enumerate(coordinate_sets(n)):
        out[x], out[full ^ x] = (j, 0), (j, 1)
    return out


@lru_cache(maxsize=None)
def parity_sets(n: int) -> tuple[int, int]:
    """(even, odd): the bitsets of the points of even and of odd weight; a
    point is odd where an odd number of the x_j is 1."""
    odd = reduce(int.__xor__, coordinate_sets(n), 0)
    return ((1 << (1 << n)) - 1) ^ odd, odd


def neighborhood(n: int, members: int) -> int:
    """N(X) for the point bitset X = members: flipping x_j moves the points
    where x_j holds down by 2^j, and the others up by 2^j."""
    out = 0
    for j, x in enumerate(coordinate_sets(n)):
        out |= (members & x) >> (1 << j) | (members & ~x) << (1 << j)
    return out
