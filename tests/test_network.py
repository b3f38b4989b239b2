import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from boolcube import (
    BooleanNetwork,
    FormatError,
    ParityClass,
    Point,
    WidthCapError,
    enumerate_networks,
    eosd_class,
    is_conjugate_bijective,
    is_non_expansive,
    is_self_dual,
    parity_class,
    parse_bn,
    random_network,
    render_bn,
    translate,
    xor_output,
)
from boolcube import network, theorems
from boolcube.dynamics import weak_convergence
from boolcube.network import (
    conjugate,
    conjugate_codes,
    default_components,
    evaluate,
    fixed_point_codes,
    fixed_points,
    load_bn,
    memo,
    network_from_index,
    output_bitsets,
    unstable_sets,
)
from boolcube.siggraph import detect_circular, global_rows
from boolcube.subnetwork import (
    BaseProperty,
    is_zero_critical,
    item_circular_forms,
    minimal_forbidden_set,
    sub_table,
    subnetwork_plan,
)
from boolcube.theorems import AndNets, Circular, Exhaustive, Sample, Subsets, sweep

DATA = Path(__file__).parent / "data"

# the worked three-component example used throughout the docs
EX1_TABLE = (0, 2, 4, 2, 1, 1, 4, 0)
EX1_CONJUGATE = (0, 3, 6, 1, 5, 4, 2, 7)


def labels(n):
    return tuple(str(k + 1) for k in range(n))


def tables(n):
    size = 1 << n
    return st.tuples(*[st.integers(0, size - 1) for _ in range(size)])


def networks(n):
    return tables(n).map(lambda t: BooleanNetwork(labels(n), t))


def self_dual_networks(n):
    # a self-dual network is free on the lower half of the cube
    size = 1 << n
    full = size - 1

    def build(half):
        table = list(half) + [0] * (size // 2)
        for x in range(size // 2, size):
            table[x] = table[x ^ full] ^ full
        return BooleanNetwork(labels(n), tuple(table))

    return st.tuples(*[st.integers(0, full) for _ in range(size // 2)]).map(build)


def test_example_fixture_loads():
    f = load_bn(DATA / "example1.bn")
    assert f.components == ("1", "2", "3")
    assert f.table == EX1_TABLE


def test_example_conjugate_and_fixed_points():
    f = BooleanNetwork(labels(3), EX1_TABLE)
    assert conjugate(f).table == EX1_CONJUGATE
    assert conjugate_codes(f) == EX1_CONJUGATE
    assert fixed_point_codes(f) == (0,)
    assert [p.bits for p in fixed_points(f)] == ["000"]
    assert not is_self_dual(f)
    assert parity_class(f) is ParityClass.NEITHER
    assert eosd_class(f) is None
    assert not is_non_expansive(f)
    assert is_conjugate_bijective(f)


def test_evaluate():
    f = BooleanNetwork(labels(3), EX1_TABLE)
    assert evaluate(f, Point(f.components, 4)).bits == "100"
    with pytest.raises(ValueError):
        evaluate(f, Point(("a", "b", "c"), 4))


def test_network_validation():
    with pytest.raises(ValueError):
        BooleanNetwork(labels(2), (0, 1, 2))
    with pytest.raises(ValueError):
        BooleanNetwork(labels(2), (0, 1, 2, 4))


def test_parity_is_image_equality():
    # the conjugate image must be the whole half-cube, not merely inside it
    assert parity_class(oracles.identity_network(1)) is ParityClass.EVEN
    assert parity_class(oracles.negation_network(1)) is ParityClass.ODD
    assert parity_class(oracles.identity_network(2)) is ParityClass.NEITHER
    assert parity_class(oracles.negation_network(2)) is ParityClass.NEITHER
    swap = BooleanNetwork(labels(2), (0, 2, 1, 3))
    assert parity_class(swap) is ParityClass.EVEN
    assert eosd_class(swap) is ParityClass.EVEN


@given(networks(2))
def test_parity_matches_oracle(f):
    assert parity_class(f).value.lower() == oracles.parity_name(f)


@given(networks(2))
def test_non_expansive_matches_oracle(f):
    assert is_non_expansive(f) == oracles.non_expansive(f)


@given(st.integers(1, 3), st.data())
def test_parity_obstructs_conjugate_bijectivity(n, data):
    f = data.draw(networks(n))
    if parity_class(f) is not ParityClass.NEITHER:
        assert not is_conjugate_bijective(f)


@given(self_dual_networks(2))
def test_self_dual_conjugate_is_antipodal_invariant(f):
    assert is_self_dual(f)
    conj = conjugate_codes(f)
    full = len(f.table) - 1
    assert all(conj[x ^ full] == conj[x] for x in range(len(f.table)))


@given(self_dual_networks(3))
def test_eosd_fixed_point_counts(f):
    kind = eosd_class(f)
    count = len(fixed_point_codes(f))
    if kind is ParityClass.EVEN:
        a, b = fixed_point_codes(f)
        assert count == 2 and a ^ b == len(f.table) - 1
    elif kind is ParityClass.ODD:
        assert count == 0


@given(st.integers(1, 3), st.data())
def test_xor_output_keeps_the_classification(n, data):
    f = data.draw(networks(n))
    members = data.draw(st.sets(st.sampled_from(labels(n))))
    g = xor_output(f, members)
    assert is_non_expansive(g) == is_non_expansive(f)
    assert is_self_dual(g) == is_self_dual(f)
    flips = len(members) % 2 == 1
    p, q = parity_class(f), parity_class(g)
    if p is ParityClass.NEITHER:
        assert q is ParityClass.NEITHER
    elif flips:
        assert {p, q} == {ParityClass.EVEN, ParityClass.ODD}
    else:
        assert q is p


@given(st.integers(1, 3), st.data())
def test_translate_moves_fixed_points(n, data):
    f = data.draw(networks(n))
    members = data.draw(st.sets(st.sampled_from(labels(n))))
    g = translate(f, members)
    mask = sum(1 << k for k in range(n) if labels(n)[k] in members)
    assert sorted(x ^ mask for x in fixed_point_codes(f)) == list(fixed_point_codes(g))
    assert parity_class(g) is parity_class(f)
    assert is_self_dual(g) == is_self_dual(f)
    assert translate(g, members).table == f.table


def test_builtin_networks():
    assert fixed_point_codes(oracles.identity_network(2)) == (0, 1, 2, 3)
    assert fixed_point_codes(oracles.negation_network(2)) == ()
    assert fixed_point_codes(oracles.constant_network(2, 3)) == (3,)
    assert default_components(3) == ("1", "2", "3")
    assert default_components(3) is default_components(3)


def test_network_from_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        network_from_index(2, 1 << 8)


@pytest.mark.parametrize("n", range(1, 17))
def test_network_from_index_matches_the_per_entry_decode(n):
    """The per-entry oracle is quadratic in n 2^n, so the widest widths get one
    random index each."""
    rng = random.Random(n)
    bits = n << n
    mask = (1 << n) - 1
    assert network_from_index(n, 0).table == (0,) * (1 << n)
    assert network_from_index(n, (1 << bits) - 1).table == (mask,) * (1 << n)
    for _ in range(3 if n <= 12 else 1):
        index = rng.getrandbits(bits)
        assert network_from_index(n, index).table == oracles.table_from_index(n, index)


def test_enumerate_networks():
    tables_seen = [f.table for f in enumerate_networks(1)]
    assert tables_seen == [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(WidthCapError):
        next(enumerate_networks(4))


def test_random_network_is_reproducible():
    assert random_network(3, seed=7).table == random_network(3, seed=7).table
    assert random_network(3, seed=7).table != random_network(3, seed=8).table


def test_bn_round_trip():
    f = BooleanNetwork(labels(3), EX1_TABLE)
    assert parse_bn(render_bn(f)) == f
    assert render_bn(f).splitlines()[0] == "components 1 2 3"


def test_parse_bn_accepts_any_row_order_and_comments():
    text = (
        "# a two component network\n"
        "components a b\n"
        "11 -> 00\n"
        "01 -> 01  # keep\n"
        "10 -> 10\n"
        "00 -> 11\n"
    )
    f = parse_bn(text)
    assert f.components == ("a", "b")
    assert f.table == (3, 1, 2, 0)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "components\n",
        "components a a\n0 -> 0\n1 -> 1\n",
        "components a\n0 -> 0\n",  # missing a row
        "components a\n0 -> 0\n0 -> 1\n",  # duplicate row
        "components a\n0 -> 0\n1 -> 2\n",  # bad code
        "components a\n0 -> 0\n1 = 1\n",  # bad arrow
        "components a\n0 -> 0\n1 -> 1\n0 -> 0\n",  # extra row
    ],
)
def test_parse_bn_rejects(text):
    with pytest.raises(FormatError):
        parse_bn(text)


def _decoded(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def _mutants(text):
    """Every single-character substitution, deletion and duplication of text,
    then its rows reordered, duplicated, dropped, extended and commented."""
    alphabet = "01 ->#\n\r_+a\u0661\uff11\x1c\xa0\u2028"
    for k, ch in enumerate(text):
        yield text[:k] + text[k + 1 :]
        yield text[:k] + ch + text[k:]
        for sub in alphabet:
            if sub != ch:
                yield text[:k] + sub + text[k + 1 :]
    head, *rows = text.splitlines()
    for order in (rows[::-1], rows[1:] + rows[:1], sorted(rows, key=lambda r: r[::-1])):
        yield "\n".join([head, *order])
    for k, row in enumerate(rows):
        dropped, repeated, bad_dst = [], [row, row], [rows[k - 1][:-1] + "_"]
        bad_row = ["\xa0" + row.replace("->", "=>") + "\t"]
        commented = [row + " # note", "  # a comment line"]
        for middle in (dropped, repeated, [rows[k - 1]], bad_dst, bad_row, commented):
            yield "\n".join([head, *rows[:k], *middle, *rows[k + 1 :]])
    yield "# leading comment\n\n" + head + "  # labels\n" + "\n\n".join(rows)


@pytest.mark.parametrize("mapped", [True, False], ids=["mapped", "unmapped"])
@pytest.mark.parametrize("n", [2, 3])
def test_parse_bn_decodes_every_mutant_as_the_reference_does(monkeypatch, n, mapped):
    """One dict lookup per code decodes what the per-row parse_code calls
    decoded, and raises the same FormatError text in the same order, on every
    mutant of a width-2 and a width-3 text; so does parse_code alone, as at
    the widths past the map of code texts."""
    if not mapped:
        monkeypatch.setattr(network, "_code_texts", lambda n: {})
    text = render_bn(random_network(n, 5))
    seen = set()
    for mutant in _mutants(text):
        expected = _decoded(oracles.parse_bn, mutant)
        assert _decoded(parse_bn, mutant) == expected, mutant
        seen.add(expected[0] if isinstance(expected, tuple) else "ok")
    assert seen == {FormatError, "ok"}


def test_memo_is_per_instance_and_never_caches_an_exception():
    computed = []

    @memo
    def probe(f):
        computed.append(f)
        if f.table[0]:
            raise ValueError("no value for this table")
        return len(computed)

    a, b = oracles.identity_network(1), oracles.identity_network(1)
    assert probe(a) == probe(a) == 1
    assert probe(b) == 2  # an equal network is another instance
    bad = oracles.negation_network(1)
    for _ in range(2):
        with pytest.raises(ValueError):
            probe(bad)
    assert len(computed) == 4
    assert probe.__name__ == "probe"


def test_unstable_sets_are_memoized_per_instance():
    f = random_network(5, 1)
    assert unstable_sets(f) is unstable_sets(f)
    g = BooleanNetwork(f.components, f.table)
    assert unstable_sets(g) == unstable_sets(f)
    assert unstable_sets(g) is not unstable_sets(f)


def assert_planes_match_the_string_join(f):
    """The planes, and plane_codes reading them back into the table."""
    planes = output_bitsets(f)
    assert planes == tuple(oracles.output_bitset(f, i) for i in range(f.width))
    assert network.plane_codes(planes, len(f.table)) == f.table
    g = conjugate(f)
    assert unstable_sets(f) == tuple(oracles.output_bitset(g, k) for k in range(f.width))


@pytest.mark.parametrize("n", [1, 2])
def test_bit_planes_of_every_table(n):
    for f in enumerate_networks(n):
        assert_planes_match_the_string_join(f)


def random_table_network(n, seed):
    rng = random.Random(seed)
    return BooleanNetwork(labels(n), tuple(rng.getrandbits(n) for _ in range(1 << n)))


@pytest.mark.parametrize("n", range(3, 17))
def test_bit_planes_at_every_byte_width(n):
    """Widths 9-16 put two bytes in each entry; the planes of the high byte
    come from the second byte of every packed word."""
    for seed in range(3):
        assert_planes_match_the_string_join(random_table_network(n, seed))
    # a table whose every entry has its top bit set, and one whose none has
    top = 1 << (n - 1)
    for table in ([top | x % top for x in range(1 << n)], [x % top for x in range(1 << n)]):
        assert_planes_match_the_string_join(BooleanNetwork(labels(n), tuple(table)))


def test_bit_planes_at_width_20():
    """Three bytes per entry: the widest table the state-graph cap admits."""
    n = 20
    f = random_table_network(n, 20)
    planes = output_bitsets(f)
    assert planes == tuple(oracles.output_bitset(f, i) for i in range(n))
    assert output_bitsets(f) is planes
    assert network.plane_codes(planes, len(f.table)) == f.table


def test_plane_readers_share_one_build(monkeypatch):
    """Circular detection, global rows, subnetwork circular forms, subnetwork
    fixed points and weak convergence all read the output_bitsets memo."""
    packed = []
    pack = network.struct.pack

    class Counting:
        @staticmethod
        def pack(fmt, *values):
            packed.append(len(values))
            return pack(fmt, *values)

    monkeypatch.setattr(network, "struct", Counting)
    for f in (random_network(8, 4), oracles.constant_network(5, 7)):
        packed.clear()
        f = BooleanNetwork(f.components, f.table)  # no memo yet
        detect_circular(f)
        global_rows(f)
        item_circular_forms(f)
        is_zero_critical(f)
        weak_convergence(f)
        assert packed == [len(f.table)]


@pytest.mark.parametrize(
    "call, width, cap",
    [
        (lambda: sweep("ROBERT", Exhaustive(4)), 4, 3),
        (lambda: sweep("ROBERT", Sample(17, 1, 0)), 17, 16),
        (lambda: sweep("ROBERT", AndNets(4)), 4, 3),
        (lambda: sweep("ROBERT", Circular(9)), 9, 8),
        (lambda: sweep("LEMMA1_HYPERCUBE", Subsets(5)), 5, 4),
        (lambda: next(enumerate_networks(4)), 4, 3),
        (lambda: random_network(17, 0), 17, 16),
        (lambda: subnetwork_plan(11), 11, 10),
        (lambda: sub_table(tuple(range(1 << 11)), 1, 0), 11, 10),
        (lambda: next(minimal_forbidden_set(BaseProperty.AT_MOST_ONE, 4)), 4, 3),
    ],
    ids=[
        "Exhaustive",
        "Sample",
        "AndNets",
        "Circular",
        "Subsets",
        "enumerate_networks",
        "random_network",
        "subnetwork_plan",
        "sub_table",
        "minimal_forbidden_set",
    ],
)
def test_library_width_caps_raise_before_building(monkeypatch, call, width, cap):
    """Every library cap raises through network.check_width, with one message
    form, before a network or a subnetwork plan and its records are built."""

    def no_network(*args):
        raise AssertionError("a network was built")

    monkeypatch.setattr(network, "network_from_index", no_network)
    for stream in theorems.Generator.__subclasses__():
        monkeypatch.setattr(stream, "candidate", no_network)
    plans = subnetwork_plan.cache_info().currsize
    with pytest.raises(WidthCapError) as info:
        call()
    assert str(info.value).endswith(f" is capped at width {cap}, got {width}")
    assert subnetwork_plan.cache_info().currsize == plans
