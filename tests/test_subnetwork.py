import random
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from boolcube import (
    BaseProperty,
    BooleanNetwork,
    ParityClass,
    SubnetworkSpec,
    all_subnetworks_fixed_point_census,
    criticality,
    find_eosd_subnetwork,
    immediate_subnetwork,
    induced_subnetwork,
    minimal_forbidden_set,
    subnetworks,
)
from boolcube import siggraph, subnetwork, theorems
from boolcube.hypercube import gather_bits
from boolcube.network import (
    WidthCapError,
    default_components,
    enumerate_networks,
    eosd_class,
    fixed_point_codes,
    load_bn,
    random_network,
    table_eosd_class,
    table_fixed_point_codes,
)
from boolcube.subnetwork import (
    has_eosd_subnetwork,
    is_minimal_violation,
    is_two_critical,
    is_zero_critical,
    item_circular_forms,
    item_fixed_point_counts,
    item_order,
    item_tables,
    strict_sub_planes,
    sub_table,
    subnetwork_plan,
)
from boolcube.siggraph import CircularForm, circular_network, detect_circular
from boolcube.theorems import (
    AndNets,
    Circular,
    Exhaustive,
    NonExpansive,
    Sample,
    candidate_network,
    describe_generator,
    generator_count,
)

DATA = Path(__file__).parent / "data"

EX1 = BooleanNetwork(("1", "2", "3"), (0, 2, 4, 2, 1, 1, 4, 0))

# x1 xor x2 xor x3 in the first coordinate, x1 in the others: even-self-dual
# but with strict even- and odd-self-dual subnetworks, so not critical
ESD_NONCRIT = BooleanNetwork(("1", "2", "3"), (0, 7, 1, 6, 1, 6, 0, 7))


def labels(n):
    return tuple(str(k + 1) for k in range(n))


def networks(n):
    size = 1 << n
    return st.tuples(*[st.integers(0, size - 1) for _ in range(size)]).map(
        lambda t: BooleanNetwork(labels(n), t)
    )


def test_spec_str():
    spec = SubnetworkSpec(("1", "2", "3"), free_mask=0b110, fixed_code=0)
    assert str(spec) == "I={2,3} z[1]=0"
    spec = SubnetworkSpec(("1", "2", "3"), free_mask=0b010, fixed_code=0b100)
    assert str(spec) == "I={2} z[1]=0 z[3]=1"
    assert str(SubnetworkSpec(("1", "2"), 0b11, 0)) == "I={1,2}"


def test_spec_validation():
    with pytest.raises(ValueError):
        SubnetworkSpec(("1", "2"), free_mask=0, fixed_code=0)
    with pytest.raises(ValueError):
        SubnetworkSpec(("1", "2"), free_mask=0b01, fixed_code=0b01)


def test_enumeration_order_width_two():
    specs = [str(SubnetworkSpec(("1", "2"), *item)) for item in subnetwork_plan(2).items()]
    assert specs == [
        "I={1} z[2]=0",
        "I={1} z[2]=1",
        "I={2} z[1]=0",
        "I={2} z[1]=1",
        "I={1,2}",
    ]


@pytest.mark.parametrize("n,count", [(1, 1), (2, 5), (3, 19)])
def test_subnetwork_counts(n, count):
    f = BooleanNetwork(labels(n), tuple(0 for _ in range(1 << n)))
    assert sum(1 for _ in subnetworks(f, include_self=True)) == count
    assert sum(1 for _ in subnetworks(f)) == count - 1


def test_immediate_subnetworks_of_the_worked_example():
    expected = {
        ("1", 0): (("2", "3"), (0, 2, 0, 2)),
        ("1", 1): (("2", "3"), (1, 1, 0, 0)),
        ("2", 0): (("1", "3"), (0, 0, 1, 1)),
        ("2", 1): (("1", "3"), (2, 0, 2, 0)),
        ("3", 0): (("1", "2"), (0, 2, 0, 2)),
        ("3", 1): (("1", "2"), (1, 1, 0, 0)),
    }
    for (label, value), (comps, table) in expected.items():
        g = immediate_subnetwork(EX1, label, value)
        assert g.components == comps
        assert g.table == table


def test_immediate_subnetwork_validation():
    with pytest.raises(ValueError):
        immediate_subnetwork(BooleanNetwork(("1",), (0, 1)), "1", 0)
    with pytest.raises(ValueError):
        immediate_subnetwork(EX1, "1", 2)


@given(networks(3))
def test_induced_matches_oracle(f):
    for spec, g in subnetworks(f, include_self=True):
        frozen = {}
        fixed = spec.fixed
        if fixed is not None:
            frozen = {c: fixed.value(c) for c in fixed.components}
        assert g.table == oracles.sub_table(f, list(spec.free), frozen)


@given(networks(3), st.data())
def test_freezing_is_transitive(f, data):
    first = data.draw(st.sampled_from(f.components))
    second = data.draw(st.sampled_from([c for c in f.components if c != first]))
    a = data.draw(st.integers(0, 1))
    b = data.draw(st.integers(0, 1))
    two_steps = immediate_subnetwork(immediate_subnetwork(f, first, a), second, b)
    i, j = (1 << f.components.index(label) for label in (first, second))
    spec = SubnetworkSpec(f.components, 0b111 ^ i ^ j, (i if a else 0) | (j if b else 0))
    direct = induced_subnetwork(f, spec)
    assert two_steps == direct


@given(networks(3))
def test_fixed_points_project_into_subnetworks(f):
    for spec, g in subnetworks(f, include_self=True):
        frozen_mask = ((1 << f.width) - 1) ^ spec.free_mask
        sub_fps = set(fixed_point_codes(g))
        for x in fixed_point_codes(f):
            if x & frozen_mask == spec.fixed_code:
                assert gather_bits(x, spec.free_mask) in sub_fps


def test_census_of_fixtures():
    assert all_subnetworks_fixed_point_census(EX1) == (1, 1)
    assert all_subnetworks_fixed_point_census(load_bn(DATA / "crit2.bn")) == (0, 2)
    assert all_subnetworks_fixed_point_census(load_bn(DATA / "crit0.bn")) == (0, 2)
    assert all_subnetworks_fixed_point_census(load_bn(DATA / "esd4.bn")) == (1, 2)


@pytest.mark.parametrize(
    "gen",
    [Exhaustive(1), Exhaustive(2), AndNets(3), Sample(3, 2000, 1), Sample(4, 200, 2), Sample(5, 40, 3)],
    ids=describe_generator,
)
def test_census_and_strict_profile_match_the_item_counts(gen):
    """The census and criticality's strict min and max equal the extremes of
    item_fixed_point_counts(f) over all items, and over all but f's own,
    which comes last."""
    for index in range(generator_count(gen)):
        f = candidate_network(gen, index)
        census, report = all_subnetworks_fixed_point_census(f), criticality(f)
        counts = list(item_fixed_point_counts(f))
        assert census == (min(counts), max(counts)), index
        strict = counts[:-1]
        expected = (min(strict), max(strict)) if strict else (None, None)
        assert (report.strict_min, report.strict_max) == expected, index


def test_eosd_search_on_the_worked_example():
    assert find_eosd_subnetwork(BooleanNetwork(EX1.components, EX1.table)) is None
    assert not has_eosd_subnetwork(EX1)


def test_eosd_search_returns_first_witness():
    spec, g = find_eosd_subnetwork(ESD_NONCRIT)
    assert str(spec) == "I={1} z[2]=0 z[3]=0"
    assert g.table == (0, 1)  # the one-component identity
    assert eosd_class(ESD_NONCRIT) is ParityClass.EVEN


def test_critical_eosd():
    esd4 = load_bn(DATA / "esd4.bn")
    assert eosd_class(esd4) is ParityClass.EVEN
    assert oracles.is_critical_eosd(esd4)
    # both parities of strict witnesses disqualify a network from being critical
    assert not oracles.is_critical_eosd(ESD_NONCRIT)
    assert not oracles.is_critical_eosd(EX1)


def test_criticality_of_fixtures():
    crit2 = criticality(load_bn(DATA / "crit2.bn"))
    assert crit2.fixed_point_count == 2
    assert crit2.two_critical and not crit2.zero_critical
    assert (crit2.strict_min, crit2.strict_max) == (0, 1)
    crit0 = criticality(load_bn(DATA / "crit0.bn"))
    assert crit0.fixed_point_count == 0
    assert crit0.zero_critical and not crit0.two_critical
    assert (crit0.strict_min, crit0.strict_max) == (1, 2)
    esd4 = criticality(load_bn(DATA / "esd4.bn"))
    assert esd4.two_critical
    assert (esd4.strict_min, esd4.strict_max) == (1, 1)


def test_width_one_criticality():
    identity = BooleanNetwork(("1",), (0, 1))
    rep = criticality(identity)
    assert rep.two_critical and rep.strict_min is None
    negation = BooleanNetwork(("1",), (1, 0))
    assert criticality(negation).zero_critical


@given(networks(2))
def test_criticality_matches_oracle(f):
    assert is_two_critical(f) == oracles.two_critical(f)
    assert is_zero_critical(f) == oracles.zero_critical(f)


def test_minimal_violations_width_one():
    assert [g.table for g in minimal_forbidden_set(BaseProperty.AT_MOST_ONE, 1)] == [(0, 1)]
    assert [g.table for g in minimal_forbidden_set(BaseProperty.AT_LEAST_ONE, 1)] == [(1, 0)]
    assert [g.table for g in minimal_forbidden_set(BaseProperty.EXACTLY_ONE, 1)] == [
        (1, 0),
        (0, 1),
    ]


def test_minimal_violations_of_uniqueness_are_the_critical_eosd_networks():
    """The paper's F: the minimal violations of "exactly one fixed point" are
    the even- or odd-self-dual networks with no such strict subnetwork; every
    width-2 network, then one network per orbit of each family stream."""
    streams = (
        Exhaustive(2),
        AndNets(3),
        Circular(4),
        Circular(5),
        NonExpansive(3),
        Sample(3, 2000, 1),
        Sample(4, 300, 2),
    )
    for gen in streams:
        count = generator_count(gen)
        for index, _ in gen.orbits(0, count, count):
            f = candidate_network(gen, index)
            expected = oracles.is_critical_eosd(f)
            label = describe_generator(gen)
            assert is_minimal_violation(BaseProperty.EXACTLY_ONE, f) == expected, (label, index)


@given(networks(2))
def test_satisfies_everywhere_consistency(f):
    for prop, ok in (
        (BaseProperty.AT_MOST_ONE, lambda c: c <= 1),
        (BaseProperty.AT_LEAST_ONE, lambda c: c >= 1),
        (BaseProperty.EXACTLY_ONE, lambda c: c == 1),
    ):
        counts = [len(oracles.fixed_point_list(f))]
        counts += [
            sum(1 for y, v in enumerate(t) if v == y)
            for t in oracles.all_strict_sub_tables(f)
        ]
        assert all(map(prop.holds, item_fixed_point_counts(f))) == all(
            ok(c) for c in counts
        )


@pytest.mark.parametrize(
    "gen",
    [
        Exhaustive(1),
        Exhaustive(2),
        AndNets(3),
        Sample(3, 3000, 1),
        Sample(4, 300, 2),
        Sample(5, 40, 3),
        Sample(6, 20, 1),
        Circular(4),
        Circular(5),
        NonExpansive(3),
    ],
    ids=describe_generator,
)
def test_minimal_violations_match_the_sub_item_rule(gen):
    """For every base property, against the per-item rule over a count dict
    and every strict sub-item (oracles.minimal_violations): the first minimal
    violation is the first failing item in plan order, some subnetwork is one
    exactly when the rule lists any, f is one exactly when its own item is
    listed, and the criticality tests agree with the definitions on the
    sub-tables."""
    count = generator_count(gen)
    for index, _ in gen.orbits(0, count, count):
        f = candidate_network(gen, index)
        own = (len(f.table) - 1, 0)
        items = list(subnetwork_plan(f.width).items())
        counts = list(item_fixed_point_counts(f))
        for prop in BaseProperty:
            expected = oracles.minimal_violations(f, prop)
            failing = [item for item, c in zip(items, counts) if not prop.holds(c)]
            assert expected[:1] == failing[:1], (index, prop)
            assert theorems._has_minimal_violation(f, prop) == bool(expected), (index, prop)
            assert is_minimal_violation(prop, f) == (own in expected), (index, prop)
        assert is_two_critical(f) == oracles.two_critical(f), index
        assert is_zero_critical(f) == oracles.zero_critical(f), index


def test_sub_table_is_usable_directly():
    assert sub_table(EX1.table, 0b110, 0) == (0, 2, 0, 2)
    assert sub_table(EX1.table, 0b111, 0) == EX1.table


def test_bad_masks_and_codes_are_refused():
    """A mask outside 1..2^n - 1 gets no record, no item order and no table,
    and a frozen code must lie on the frozen components: each raises with
    SubnetworkSpec's message, and no record is kept for a refused mask."""
    plan = subnetwork_plan(3)
    builders = (
        lambda mask: plan.records[mask],
        lambda mask: item_order(3, mask),
        lambda mask: sub_table(EX1.table, mask, 0),
    )
    for mask in (0, 8, 9, -1):
        for build in builders:
            with pytest.raises(ValueError, match="^free component set must be nonempty$"):
                build(mask)
        assert mask not in plan.records
    for mask, code in ((1, 1), (0b110, 0b010), (1, 8), (1, -2)):
        with pytest.raises(ValueError, match="^fixed values must lie on the frozen components$"):
            sub_table(EX1.table, mask, code)
    assert sub_table(EX1.table, 1, 0b110) == oracles.sub_table(EX1, ["1"], {"2": 1, "3": 1})


def test_induced_rejects_foreign_spec():
    with pytest.raises(ValueError):
        induced_subnetwork(EX1, SubnetworkSpec(("a", "b", "c"), 0b1, 0))


# -- the compiled plan ------------------------------------------------------------


def plan_networks():
    """Every network of widths 1 and 2, then samples of widths 3, 4 and 8."""
    yield from enumerate_networks(1)
    yield from enumerate_networks(2)
    for gen in (Sample(3, 60, 1), Sample(4, 12, 2), Sample(8, 2, 3)):
        for index in range(gen.count):
            yield candidate_network(gen, index)


def documented_order(n):
    """(free mask, frozen code) straight from the definition: |I| ascending,
    I in lexicographic order, z in bitstring order with the first frozen label
    most significant."""
    items = []
    for size in range(1, n + 1):
        for free in combinations(range(n), size):
            rest = [k for k in range(n) if k not in free]
            for bits in product((0, 1), repeat=len(rest)):
                code = sum(bit << k for bit, k in zip(bits, rest))
                items.append((sum(1 << k for k in free), code))
    return items


@pytest.mark.parametrize("n", range(1, 9))
def test_plan_order_and_tuples(n):
    """The items follow the documented order, and each mask's record, built
    on demand, holds the entries of the plan first built for the whole width
    at once (oracles.eager_plan).  Each mask's item order lists its items'
    parent points, code by code, and its inverse gives each point's place."""
    plan = subnetwork_plan(n)
    items = list(plan.items())
    assert items == documented_order(n)
    assert items[-1] == ((1 << n) - 1, 0)  # f's own item: items[:-1] are the strict ones
    masks, codes, scatter, points, gather = oracles.eager_plan(n)
    assert plan.masks == masks
    for mask in range(1, 1 << n):
        m = mask.bit_count()
        record = plan.records[mask]
        assert record == (codes[mask], scatter[mask], points[mask], gather[mask])
        assert scatter[mask] == tuple(oracles.scatter_bits(y, mask) for y in range(1 << m))
        assert points[mask] == sum(1 << s for s in scatter[mask])
        assert gather[mask] == tuple(gather_bits(v, mask) for v in range(1 << n))
        assert plan.records[mask] is record
        order, inverse = item_order(n, mask)
        assert list(order) == [c | s for c in codes[mask] for s in scatter[mask]]
        assert sorted(inverse) == list(range(1 << n))
        assert [inverse[x] for x in order] == list(range(1 << n))
        assert item_order(n, mask)[0] is order
    assert subnetwork_plan(n) is plan


def test_plan_width_cap():
    with pytest.raises(WidthCapError):
        subnetwork_plan(11)
    with pytest.raises(WidthCapError):
        sub_table(tuple(range(1 << 11)), 1, 0)


def test_plan_tables_match_sub_table_and_the_oracle():
    for f in plan_networks():
        items = tuple(item_tables(f))
        assert [item[:2] for item in items] == list(subnetwork_plan(f.width).items())
        for mask, code, table in items:
            assert table == sub_table(f.table, mask, code)
            spec = SubnetworkSpec(f.components, mask, code)
            fixed = spec.fixed
            frozen = {} if fixed is None else {c: fixed.value(c) for c in fixed.components}
            assert table == oracles.sub_table(f, list(spec.free), frozen)


def test_item_counts_match_the_sub_tables():
    for f in plan_networks():
        items = list(subnetwork_plan(f.width).items())
        counts = list(item_fixed_point_counts(f))
        assert len(counts) == len(items)
        for (mask, code), count in zip(items, counts):
            assert count == len(table_fixed_point_codes(sub_table(f.table, mask, code)))
        assert list(item_fixed_point_counts(f, include_self=False)) == counts[:-1]


def test_lazy_walks_agree_with_the_eager_definitions():
    for f in plan_networks():
        items = tuple(item_tables(f))
        eosd = [item for item in items if table_eosd_class(item[2]) is not None]
        found = find_eosd_subnetwork(f)
        if eosd:
            spec, g = found
            assert (spec.free_mask, spec.fixed_code, g.table) == eosd[0]
            assert g.components == spec.free
        else:
            assert found is None
        strict_eosd = any(table_eosd_class(table) is not None for _, _, table in items[:-1])
        if f.width <= 4:
            assert oracles.is_critical_eosd(f) == (
                eosd_class(f) is not None and not strict_eosd
            )
        counts = [len(table_fixed_point_codes(table)) for _, _, table in items]
        assert is_two_critical(f) == (counts[-1] >= 2 and all(c <= 1 for c in counts[:-1]))
        assert is_zero_critical(f) == (counts[-1] == 0 and all(c >= 1 for c in counts[:-1]))
        if f.width <= 3:
            assert is_two_critical(f) == oracles.two_critical(f)
            assert is_zero_critical(f) == oracles.zero_critical(f)


def test_eosd_search_stops_at_the_witness(table_builds):
    """The search builds the tables of the items before the witness and of
    the witness, one at a time, and no other table and no whole mask."""
    f = random_network(10, 0)
    spec, _ = find_eosd_subnetwork(f)
    # the second item, I={1} z[10]=1, is the first even- or odd-self-dual one
    items = list(subnetwork_plan(10).items())
    assert table_builds == [("item", *item) for item in items[:2]]
    assert items[1] == (spec.free_mask, spec.fixed_code)
    table_builds.clear()
    assert find_eosd_subnetwork(BooleanNetwork(EX1.components, EX1.table)) is None
    assert table_builds == [("item", *item) for item in subnetwork_plan(3).items()]


def test_own_circular_item_is_solved_once(monkeypatch):
    """item_circular_forms takes f's own entry from detect_circular's solve
    and solves each strict key once per process: with empty form tables,
    asking both costs one literal_cycle call for f's own form and one per
    distinct (mask, key) among f's strict items, as the oracle counts them.
    A fresh copy of f then costs f's own solve alone, plus one per item of a
    mask of three or more components, which has no table."""
    calls = []
    solve = siggraph.literal_cycle

    def counting(literals, values):
        calls.append(values)
        return solve(literals, values)

    monkeypatch.setattr(siggraph, "literal_cycle", counting)
    monkeypatch.setattr(subnetwork, "literal_cycle", counting)
    circular = circular_network(CircularForm(labels(3), (2, 0, 1), 0b101))
    # (network, its own form, strict items of masks of three or more components):
    # width 4 has four such masks with two frozen codes each
    cases = ((circular, ((2, 0, 1), 0b101), 0), (EX1, None, 0), (random_network(4, 1), None, 8))
    for f, own, wide in cases:
        subnetwork._free_literals.cache_clear()
        first = oracles.circular_form_solves(f)
        for cost in (first, 1 + wide):
            g = BooleanNetwork(f.components, f.table)  # no memo yet
            calls.clear()
            detect_circular(g)
            forms = item_circular_forms(g)
            assert len(calls) == cost
            assert len(forms) == len(list(subnetwork_plan(f.width).items()))
            assert forms[-1] == own
    # the tables make a difference: EX1's 18 strict items have fewer keys
    assert oracles.circular_form_solves(EX1) < 19


def _form_tables(n: int) -> list[tuple[int, dict]]:
    """(free component count, form table) per mask of one or two components."""
    pairs, small, _ = subnetwork._free_literals(n)
    return [(1 if j == n else 2, table) for (_, j), (table, _, _) in zip(pairs, small)]


@pytest.mark.parametrize(
    "gen",
    [
        Exhaustive(1),
        Exhaustive(2),
        AndNets(3),
        Circular(3),
        Circular(4),
        Circular(5),
        NonExpansive(3),
        Sample(3, 3000, 1),
        Sample(4, 300, 2),
        Sample(5, 60, 3),
        Sample(6, 12, 4),
    ],
    ids=describe_generator,
)
def test_item_circular_forms_match_the_per_item_solve(gen):
    """The packed keys and per-mask form tables give every item the form that
    solving its restricted planes gives (oracles.item_circular_forms_per_item).
    Each network is checked twice on fresh objects from empty tables, so the
    second pass reads table hits only, and no table outgrows its 2^(m * 2^m)
    keys for m free components: 4 or 256."""
    subnetwork._free_literals.cache_clear()
    for _ in range(2):
        for index in range(generator_count(gen)):
            f = candidate_network(gen, index)
            assert item_circular_forms(f) == oracles.item_circular_forms_per_item(f), index
    for m, table in _form_tables(gen.n):
        assert len(table) <= 1 << (m << m)


def test_circular_form_tables_fill_to_their_bound():
    """Over every AndNets(3) representative and Sample(3, 3000, 1), the 3
    one-component and 3 two-component masks of width 3 meet 780 keys, 4 and
    256 each, and no more."""
    subnetwork._free_literals.cache_clear()
    for gen in (AndNets(3), Sample(3, 3000, 1)):
        for index in range(generator_count(gen)):
            item_circular_forms(candidate_network(gen, index))
    sizes = sorted(len(table) for _, table in _form_tables(3))
    assert sizes == [4, 4, 4, 256, 256, 256]


@pytest.mark.parametrize(
    "gen",
    [
        Exhaustive(1),
        Exhaustive(2),
        AndNets(3),
        Circular(3),
        Circular(4),
        Sample(3, 3000, 1),
        Sample(4, 300, 2),
    ],
    ids=describe_generator,
)
def test_item_circular_forms_match_the_table_solver(gen):
    """The bitset kernel gives every item, f's own included, the form the
    definition gives on the item's own table (oracles.circular_form), and
    detect_circular gives f that form too.  In and-net 108 of width 3,
    f_1 = f_2 = x_2 on the item I={1,2} z[3]=0: x_2 is chosen twice, so that
    item is no cycle, although two steps from component 1 visit both."""
    reference = {}  # the oracle's answer per item table; items repeat across networks
    for index in range(generator_count(gen)):
        f = candidate_network(gen, index)
        forms = item_circular_forms(f)
        items = tuple(item_tables(f))
        assert len(forms) == len(items)
        for (mask, _, table), form in zip(items, forms):
            if table not in reference:
                item = BooleanNetwork(default_components(mask.bit_count()), table)
                reference[table] = oracles.circular_form(item)
            assert form == reference[table], index
        assert _detected(f) == forms[-1], index


def _detected(f: BooleanNetwork) -> tuple[tuple[int, ...], int] | None:
    form = detect_circular(f)
    return None if form is None else (form.predecessor, form.constant)


def _literal_network(n: int, pred: tuple[int, ...], constant: int) -> BooleanNetwork:
    """f_i = x_pred[i], negated where bit i of constant is set."""
    table = tuple(
        sum(((x >> j & 1) ^ (constant >> i & 1)) << i for i, j in enumerate(pred))
        for x in range(1 << n)
    )
    return BooleanNetwork(default_components(n), table)


@pytest.mark.parametrize("n", [11, 12])
def test_detect_circular_above_the_plan_cap_matches_the_definition(n):
    """Detection reads the cube's literals, not the subnetwork plan, so it
    works on the wide networks Sample reaches.  The cases: random networks;
    a circular network; the same with one output bit flipped at one point;
    literals forming two cycles, {0} and the rest; and literals choosing x_1
    twice, where n steps from component 0 still visit every component."""
    with pytest.raises(WidthCapError):
        subnetwork_plan(n)
    order = list(range(n))
    random.Random(n).shuffle(order)
    pred = [0] * n
    for k, v in enumerate(order):
        pred[v] = order[k - 1]
    circular = circular_network(CircularForm(default_components(n), tuple(pred), 0b1011))
    flipped = list(circular.table)
    flipped[5] ^= 1 << 3
    cases = [
        random_network(n, 0),
        random_network(n, 1),
        circular,
        BooleanNetwork(circular.components, tuple(flipped)),
        _literal_network(n, (0, n - 1) + tuple(range(1, n - 1)), 0b110),
        _literal_network(n, tuple(range(1, n)) + (1,), 0),
    ]
    expected = [None, None, (tuple(pred), 0b1011), None, None, None]
    assert [oracles.circular_form(f) for f in cases] == expected
    assert [_detected(f) for f in cases] == expected


@pytest.mark.parametrize(
    "gen",
    [
        Exhaustive(1),
        Exhaustive(2),
        AndNets(3),
        Sample(3, 200, 1),
        Sample(4, 40, 2),
        Sample(5, 10, 3),
        Sample(6, 3, 4),
        Sample(9, 2, 1),
    ],
    ids=describe_generator,
)
def test_strict_sub_planes_match_the_per_item_build(gen):
    """Block b of the stacked planes holds the b-th strict mask's sub-tables,
    each value scattered back onto the mask at its parent point, as the
    oracle builds them point by point from its own sub-tables, with no plan
    record.  Width 1 has no strict mask, so its planes are empty; width 9
    reads a second byte lane of the stacked entries."""
    count = generator_count(gen)
    for index, _ in gen.orbits(0, count, count):
        f = candidate_network(gen, index)
        planes = strict_sub_planes(f)
        assert planes == oracles.strict_sub_planes(f)
        assert len(planes) == f.width
        if f.width == 1:
            assert planes == (0,)
