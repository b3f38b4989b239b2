import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from boolcube import (
    FormatError,
    Point,
    all_points,
    basis_point,
    drop,
    hamming,
    neighbor_set,
    parse_bn,
    parse_point,
    parse_sg,
    restrict,
    xor,
)
from boolcube import hypercube
from boolcube.hypercube import (
    check_components,
    code_names,
    component_mask,
    coordinate_sets,
    cube_literals,
    default_components,
    format_code,
    gather_bits,
    mask_labels,
    neighborhood,
    parity_sets,
    parse_code,
)

ABC = ("a", "b", "c")


def test_leftmost_character_is_first_component():
    assert parse_code("100", 3) == 1
    assert parse_code("010", 3) == 2
    assert parse_code("001", 3) == 4
    assert format_code(1, 3) == "100"
    assert format_code(6, 3) == "011"


def test_parse_code_rejects_bad_text():
    with pytest.raises(FormatError):
        parse_code("10", 3)
    with pytest.raises(FormatError):
        parse_code("10x", 3)


@pytest.mark.parametrize("text", ["1_0", "+10", "-10", " 10", "10 ", "0b1", "\u0661\u0660\u0660"])
def test_parse_code_rejects_what_int_accepts(text):
    """Each text has the right length, and int(text, 2) accepts some of them
    (underscores, a sign, whitespace, Arabic-Indic digits)."""
    with pytest.raises(FormatError) as exc:
        parse_code(text, 3)
    assert str(exc.value) == f"expected 3 bits, got {text!r}"
    with pytest.raises(FormatError):
        parse_point(text, ABC)


def test_parse_code_matches_the_reference_on_every_short_string():
    alphabet = "01 _+-b\u0660\u0661x"
    for width in range(4):
        for length in range(width + 2):
            for chars in product(alphabet, repeat=length):
                text = "".join(chars)
                want = oracles.parse_code(text, width)
                if want is None:
                    with pytest.raises(FormatError):
                        parse_code(text, width)
                else:
                    assert parse_code(text, width) == want
                    if width:
                        assert parse_point(text, ABC[:width]).code == want
    assert parse_code("", 0) == 0


@given(st.integers(1, 8), st.data())
def test_format_parse_round_trip(width, data):
    code = data.draw(st.integers(0, (1 << width) - 1))
    assert parse_code(format_code(code, width), width) == code


def test_format_code_matches_oracle_at_every_code():
    for width in range(11):
        for code in range(1 << width):
            assert format_code(code, width) == oracles.format_code(code, width)


def test_code_names_are_kept_up_to_width_twelve():
    for n in (0, 1, 3, 8, 12, 13):
        names = code_names(n)
        assert names == tuple(format_code(x, n) for x in range(1 << n))
        assert (code_names(n) is names) == (n <= 12)


def test_point_basics():
    p = parse_point("101", ABC)
    assert p.code == 5
    assert p.width == 3
    assert p.weight == 2
    assert str(p) == "101"
    assert p.value("a") == 1
    assert p.value("b") == 0
    assert p.ones() == {"a", "c"}


def test_point_validation():
    with pytest.raises(ValueError):
        Point(ABC, 8)
    with pytest.raises(ValueError):
        Point((), 0)
    with pytest.raises(ValueError):
        Point(("a", "a"), 0)
    with pytest.raises(ValueError):
        Point(("a", "b c"), 0)
    with pytest.raises(ValueError):
        Point(("#a",), 0)


def test_all_points_order():
    codes = [p.code for p in all_points(("x", "y"))]
    assert codes == [0, 1, 2, 3]


def test_xor_and_hamming():
    x = parse_point("110", ABC)
    y = parse_point("011", ABC)
    assert xor(x, y).bits == "101"
    assert hamming(x, y) == 2
    assert hamming(x, x) == 0
    with pytest.raises(ValueError):
        hamming(x, parse_point("00", ("a", "b")))


def test_basis_point():
    assert basis_point(ABC, "b").bits == "010"
    with pytest.raises(ValueError):
        basis_point(ABC, "z")


def test_restrict_and_drop():
    p = parse_point("101", ABC)
    assert restrict(p, ["a", "c"]).bits == "11"
    assert restrict(p, ["c", "a"]).bits == "11"  # order comes from the space
    assert restrict(p, ["b"]).bits == "0"
    assert drop(p, ["b"]) == restrict(p, ["a", "c"])
    with pytest.raises(ValueError):
        restrict(p, [])
    with pytest.raises(ValueError):
        drop(p, ["a", "b", "c"])
    with pytest.raises(ValueError):
        restrict(p, ["nope"])


def test_component_mask_and_labels():
    assert component_mask(ABC, ["a", "c"]) == 5
    assert mask_labels(ABC, 5) == ("a", "c")
    with pytest.raises(ValueError):
        component_mask(ABC, ["d"])


@given(st.integers(0, 255), st.integers(0, 255))
def test_gather_scatter_round_trip(code, mask):
    packed = gather_bits(code, mask)
    assert packed < 1 << mask.bit_count()
    assert oracles.scatter_bits(packed, mask) == code & mask
    assert gather_bits(oracles.scatter_bits(packed, mask), mask) == packed


def test_neighbor_set():
    p = parse_point("00", ("a", "b"))
    assert {q.bits for q in neighbor_set([p])} == {"10", "01"}
    assert neighbor_set([]) == frozenset()
    both = [parse_point("00", ("a", "b")), parse_point("11", ("a", "b"))]
    assert {q.bits for q in neighbor_set(both)} == {"10", "01"}
    with pytest.raises(ValueError, match="points live over different component lists"):
        neighbor_set([p, parse_point("00", ("a", "c"))])


@given(st.integers(1, 6), st.data())
def test_neighbors_are_at_distance_one(width, data):
    labels = tuple(str(k + 1) for k in range(width))
    codes = data.draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1, max_size=6))
    points = [Point(labels, c) for c in codes]
    for q in neighbor_set(points):
        assert any(hamming(q, p) == 1 for p in points)


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_sets_and_neighborhood_match_brute_force(n):
    space = list(all_points(tuple(str(k + 1) for k in range(n))))
    xs = tuple(sum(1 << p.code for p in space if p.code >> j & 1) for j in range(n))
    assert coordinate_sets(n) == xs
    full = (1 << (1 << n)) - 1
    assert cube_literals(n) == {
        **{x: (j, 0) for j, x in enumerate(xs)},
        **{full ^ x: (j, 1) for j, x in enumerate(xs)},
    }
    even, odd = parity_sets(n)
    assert even == sum(1 << p.code for p in space if p.weight % 2 == 0)
    assert odd == sum(1 << p.code for p in space if p.weight % 2 == 1)
    rng = random.Random(n)
    for members in [0, even, odd, (1 << (1 << n)) - 1] + [
        rng.getrandbits(1 << n) for _ in range(40)
    ]:
        points = [p for p in space if members >> p.code & 1]
        assert neighborhood(n, members) == sum(1 << q.code for q in neighbor_set(points))


@pytest.mark.parametrize(
    "parse, keyword, what",
    [(parse_bn, "components", "network"), (parse_sg, "vertices", "graph")],
)
@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty {what} description"),
        ("# only a comment\n\n  # another\n", "empty {what} description"),
        ("nodes a b\n", "first line must be: {keyword} <label> <label> ..."),
        ("{keyword}\n", "first line must be: {keyword} <label> <label> ..."),
        ("{keyword}  # no labels\n", "first line must be: {keyword} <label> <label> ..."),
        ("{keyword} a a\n", "duplicate component label 'a'"),
    ],
)
def test_file_header_errors(parse, keyword, what, text, message):
    """.bn and .sg files share one header reader and its messages."""
    with pytest.raises(FormatError) as info:
        parse(text.format(keyword=keyword))
    assert str(info.value) == message.format(keyword=keyword, what=what)


@pytest.mark.parametrize(
    "labels, error, message",
    [
        ((), ValueError, "component list must be nonempty"),
        (("a", ""), ValueError, "bad component label ''"),
        (("a b",), ValueError, "bad component label 'a b'"),
        (("#a",), ValueError, "bad component label '#a'"),
        (("a", "b", "a"), ValueError, "duplicate component label 'a'"),
        (["a", "a"], ValueError, "duplicate component label 'a'"),
        (("a", ["b"]), AttributeError, "'list' object has no attribute 'startswith'"),
    ],
)
def test_component_check_never_keeps_a_failure(labels, error, message):
    """A malformed label raises the same error on every call, whether the
    labels come as a tuple or a list."""
    for _ in range(2):
        with pytest.raises(error) as caught:
            check_components(labels)
        assert str(caught.value) == message


def test_default_labels_are_valid_by_construction():
    """Each width's default tuple is one object that passes at once; an equal
    copy or a list gets the full check, the empty tuple still raises, and
    checking other labels adds no width to the default table."""
    for n in range(1, 17):
        labels = default_components(n)
        assert labels is default_components(n)
        assert labels == tuple(str(i) for i in range(1, n + 1))
        check_components(labels)
    check_components(tuple(default_components(3)))
    check_components(list(default_components(3)))
    check_components(["s", "t"])
    default_components(0)
    with pytest.raises(ValueError) as caught:
        check_components(())
    assert str(caught.value) == "component list must be nonempty"
    widths = set(hypercube._DEFAULT_LABELS)
    check_components(tuple(f"v{i}" for i in range(100_000)))
    assert set(hypercube._DEFAULT_LABELS) == widths
