import ast
import hashlib
import os
import random
from contextlib import contextmanager
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boolcube import (
    BooleanNetwork,
    CycleFilter,
    SearchReport,
    WidthCapError,
    check,
    counting_condition,
    sweep_many,
)
from boolcube.hypercube import all_points, parse_point
from boolcube.network import default_components, network_from_index, render_bn
from boolcube.siggraph import (
    SignedDigraph,
    and_net,
    detect_circular,
    graph_from_rows,
    graph_rows,
    simple_digraph_count,
    simple_digraph_orbits,
    simple_digraph_rows_from_index,
)
from boolcube import siggraph, subnetwork, theorems
from boolcube.theorems import (
    NETWORK_CATALOG,
    AndNets,
    Circular,
    Exhaustive,
    NonExpansive,
    OpenQuestion,
    Sample,
    Subsets,
    SweepReport,
    TheoremId,
    Verdict,
    VerdictKind,
    candidate_network,
    catalog_keys,
    check_point_set,
    describe_generator,
    generator_count,
    open_question_search,
    sample_table_index,
    sweep,
)

EX1 = BooleanNetwork(("1", "2", "3"), (0, 2, 4, 2, 1, 1, 4, 0))

NETWORK_KEYS = tuple(k for k in catalog_keys() if k != "LEMMA1_HYPERCUBE")


def test_catalog_shape():
    keys = catalog_keys()
    assert len(keys) == 29
    assert set(NETWORK_CATALOG) == set(NETWORK_KEYS)
    assert set(t.name for t in TheoremId) <= set(keys)
    others = tuple(k for k in NETWORK_CATALOG if k not in TheoremId.__members__)
    assert keys == tuple(t.name for t in TheoremId) + others
    assert "LEMMA1_HYPERCUBE" not in NETWORK_CATALOG


@pytest.mark.parametrize(
    "key,expected",
    [
        ("MAIN_EOSD", VerdictKind.CONFIRMED),
        ("ROBERT", VerdictKind.VACUOUS),
        ("COR_GEODESIC", VerdictKind.CONFIRMED),
        ("SHIH_DONG", VerdictKind.VACUOUS),
        ("COR_COUNTING", VerdictKind.CONFIRMED),
        ("THM_CIRCULAR_EOSD", VerdictKind.CONFIRMED),
    ],
)
def test_check_on_the_worked_example(key, expected):
    verdict = check(key, EX1)
    assert verdict.kind == expected
    assert verdict.payload is None


def test_check_accepts_enum_and_string():
    assert check(TheoremId.MAIN_EOSD, EX1) == check("MAIN_EOSD", EX1)
    assert str(Verdict(VerdictKind.CONFIRMED)) == "Confirmed"


def test_check_type_errors():
    points = [parse_point("00", ("1", "2"))]
    with pytest.raises(ValueError):
        check("LEMMA1_HYPERCUBE", EX1)
    with pytest.raises(ValueError):
        check("ROBERT", points)
    with pytest.raises(ValueError, match="points live over different component lists"):
        check("LEMMA1_HYPERCUBE", points + [parse_point("00", ("a", "b"))])
    with pytest.raises(ValueError):
        check("NO_SUCH_THEOREM", EX1)


def test_check_point_set():
    space = ("1", "2", "3")
    even = [p for p in all_points(space) if p.weight % 2 == 0]
    odd = [p for p in all_points(space) if p.weight % 2 == 1]
    assert check_point_set(even).kind == VerdictKind.CONFIRMED
    assert check_point_set(odd).kind == VerdictKind.CONFIRMED
    assert check_point_set([even[0]]).kind == VerdictKind.VACUOUS
    assert check_point_set(all_points(space)).kind == VerdictKind.VACUOUS


def _random_point_sets(rng):
    """Random point sets of widths 1 to 4, half of them inside one parity
    class, so that some meet Lemma 1's hypothesis."""
    for n in (1, 2, 3, 4):
        space = list(all_points(default_components(n)))
        for k in range(60):
            pool = [p for p in space if p.weight % 2 == k % 2] if k % 4 < 2 else space
            yield [p for p in pool if rng.random() < 0.7]


def test_check_point_set_is_check_on_lemma1(monkeypatch):
    rng = random.Random(13)
    kinds = set()
    for points in _random_point_sets(rng):
        verdict = check_point_set(points)
        assert verdict == check("LEMMA1_HYPERCUBE", iter(points))
        kinds.add(verdict.kind)
    assert kinds == {VerdictKind.VACUOUS, VerdictKind.CONFIRMED}
    monkeypatch.setattr(theorems, "_subset_conclusion", lambda s: False)
    kinds = set()
    for points in _random_point_sets(rng):
        verdict = check_point_set(points)
        assert verdict == check("LEMMA1_HYPERCUBE", points)
        kinds.add(verdict.kind)
        if verdict.kind is VerdictKind.COUNTEREXAMPLE:
            n = len(points[0].components)
            listed = " ".join(str(p) for p in sorted(points, key=lambda p: p.code))
            assert verdict.payload == f"subset width={n}\npoints {listed}\n"
    assert kinds == {VerdictKind.VACUOUS, VerdictKind.COUNTEREXAMPLE}


def test_lemma1_predicates_match_the_oracles():
    """LEMMA1_HYPERCUBE's hypothesis and conclusion on every point set of
    width <= 3, then on 500 point sets of width 4, half of them drawn inside
    one parity class so that some meet the hypothesis."""
    hyp, concl = theorems._entry("LEMMA1_HYPERCUBE")
    rng = random.Random(41)
    cases = [(n, members) for n in (1, 2, 3) for members in range(1 << (1 << n))]
    cases += [(4, rng.getrandbits(16)) for _ in range(250)]
    space = list(all_points(default_components(4)))
    for k in range(250):
        pool = [p for p in space if p.weight % 2 == k % 2]
        cases.append((4, sum(1 << p.code for p in pool if rng.random() < 0.8)))
    confirmed = 0
    for n, members in cases:
        points = [p for p in all_points(default_components(n)) if members >> p.code & 1]
        s = theorems._PointSet(n, members)
        assert hyp(s) == oracles.lemma1_hypothesis(points)
        assert concl(s) == oracles.lemma1_conclusion(n, points)
        confirmed += hyp(s) and concl(s)
    assert confirmed > 6


def test_point_set_counterexamples_list_their_points(monkeypatch):
    """A LEMMA1_HYPERCUBE counterexample is listed as its width and points at
    every worker count.  The jobs=2 workers are forked, so they see the
    patched conclusion."""
    monkeypatch.setattr(theorems, "_subset_conclusion", lambda s: False)
    for jobs in (1, 2):
        report = sweep("LEMMA1_HYPERCUBE", Subsets(2), jobs=jobs)
        assert (report.vacuous, report.confirmed) == (14, 0)
        assert report.counterexamples == (
            (6, "subset width=2\npoints 10 01\n"),
            (9, "subset width=2\npoints 00 11\n"),
        )


def test_frozen_sweep_numbers():
    report = sweep("MAIN_EOSD", Exhaustive(2))
    assert (report.candidates, report.vacuous, report.confirmed) == (256, 244, 12)
    assert report.counterexample_count == 0

    report = sweep(TheoremId.DICHOTOMY_UNIQUE, Exhaustive(2))
    assert (report.candidates, report.vacuous, report.confirmed) == (256, 193, 63)
    assert report.notes == (
        "weak_at_most_two_confirmed=63",
        "weak_at_most_two_counterexamples=0",
    )

    report = sweep("LEMMA1_HYPERCUBE", Subsets(2))
    assert (report.candidates, report.vacuous, report.confirmed) == (16, 14, 2)
    report = sweep("LEMMA1_HYPERCUBE", Subsets(3))
    assert (report.candidates, report.vacuous, report.confirmed) == (256, 254, 2)


def test_whole_catalog_holds_exhaustively_at_width_two():
    reports = sweep_many(NETWORK_KEYS, Exhaustive(2))
    for key, report in reports.items():
        assert report.counterexample_count == 0, key
        assert report.vacuous + report.confirmed == report.candidates == 256, key


@given(st.tuples(*[st.integers(0, 7) for _ in range(8)]))
def test_hypothesis_monotonicity(table):
    f = BooleanNetwork(("1", "2", "3"), table)
    if NETWORK_CATALOG["ROBERT"][0](f):
        assert NETWORK_CATALOG["DICHOTOMY_UNIQUE"][0](f)
        assert NETWORK_CATALOG["DICHOTOMY_EXIST"][0](f)
        assert NETWORK_CATALOG["SHIH_DONG"][0](f)
    if NETWORK_CATALOG["SHIH_DONG"][0](f):
        assert NETWORK_CATALOG["COR_COUNTING"][0](f)


def test_describe_generator():
    assert describe_generator(Exhaustive(2)) == "exhaustive(n=2)"
    assert describe_generator(Sample(3, 10, 7)) == "sample(n=3,count=10,seed=7)"
    assert describe_generator(AndNets(3)) == "family(andnets(n=3))"
    assert describe_generator(Circular(4)) == "family(circular(n=4))"
    assert describe_generator(NonExpansive(3)) == "family(nonexpansive(n=3))"
    assert describe_generator(Subsets(4)) == "subsets(n=4)"


def test_generator_counts_and_caps():
    assert generator_count(Exhaustive(2)) == 256
    assert generator_count(AndNets(2)) == 81
    assert generator_count(Circular(3)) == 16
    assert generator_count(Subsets(3)) == 256
    assert generator_count(Sample(3, 1234, 0)) == 1234
    assert generator_count(NonExpansive(3)) == 15488
    for gen in (
        Exhaustive(4), AndNets(4), Circular(9), Subsets(5), Sample(17, 1, 0), NonExpansive(4)
    ):
        with pytest.raises(WidthCapError):
            generator_count(gen)


def test_sample_bits_are_deterministic():
    assert sample_table_index(3, 7, 0) == sample_table_index(3, 7, 0)
    assert sample_table_index(3, 7, 0) != sample_table_index(3, 7, 1)
    assert sample_table_index(3, 8, 0) != sample_table_index(3, 7, 0)
    assert 0 <= sample_table_index(2, 1, 5) < (1 << 8)


def test_candidate_network():
    assert candidate_network(Exhaustive(2), 57) == network_from_index(2, 57)
    with pytest.raises(ValueError):
        candidate_network(Subsets(2), 0)
    for gen in (Circular(3), NonExpansive(2)):
        for index in (-1, generator_count(gen)):
            with pytest.raises(ValueError, match="out of range"):
                candidate_network(gen, index)


def test_circular_generator_yields_circular_networks():
    seen = set()
    for index in range(generator_count(Circular(3))):
        f = candidate_network(Circular(3), index)
        assert detect_circular(f) is not None
        seen.add(f.table)
    assert len(seen) == 16


def test_and_net_generator_matches_graph_enumeration():
    generated = {
        candidate_network(AndNets(2), i).table
        for i in range(generator_count(AndNets(2)))
    }
    built = {
        and_net(graph_from_rows(("1", "2"), *simple_digraph_rows_from_index(2, index))).table
        for index in range(simple_digraph_count(2))
    }
    assert generated == built


@pytest.mark.parametrize("n,count", [(1, 4), (2, 84)])
def test_non_expansive_family_is_the_filter_over_every_table(n, count):
    members = [candidate_network(NonExpansive(n), i).table for i in range(count)]
    every = (network_from_index(n, i) for i in range(generator_count(Exhaustive(n))))
    expected = sorted(f.table for f in every if oracles.non_expansive(f))
    assert generator_count(NonExpansive(n)) == count
    assert members == expected


def test_non_expansive_family_at_width_three():
    gen = NonExpansive(3)
    tables = [candidate_network(gen, i).table for i in range(generator_count(gen))]
    assert len(tables) == 15488
    assert all(a < b for a, b in zip(tables, tables[1:]))
    assert all(oracles.non_expansive(BooleanNetwork(default_components(3), t)) for t in tables)


@pytest.mark.skipif(
    os.environ.get("BOOLCUBE_DEEP") != "1",
    reason="deep mode: set BOOLCUBE_DEEP=1 to filter all 2^24 width-3 tables",
)
def test_non_expansive_family_at_width_three_is_the_filter_over_every_table():
    """The oracle over all 2^24 tables, in ascending order: about 80 s on one
    core of a 2-core Xeon."""
    every = (BooleanNetwork(default_components(3), t) for t in product(range(8), repeat=8))
    expected = [f.table for f in every if oracles.non_expansive(f)]
    gen = NonExpansive(3)
    assert [candidate_network(gen, i).table for i in range(generator_count(gen))] == expected


def test_non_expansive_sweep_counts_every_member():
    report = sweep("MAIN_EOSD", NonExpansive(2))
    assert report.notes == ()
    assert report.candidates == 84
    assert report.vacuous + report.confirmed == report.candidates


def test_sweep_many_validates_generator_pairing():
    with pytest.raises(ValueError):
        sweep_many(["LEMMA1_HYPERCUBE"], Exhaustive(2))
    with pytest.raises(ValueError):
        sweep_many(["ROBERT"], Subsets(2))


def test_sweep_many_matches_individual_sweeps():
    combined = sweep_many(["ROBERT", "MAIN_EOSD"], Exhaustive(2))
    assert combined["ROBERT"].canonical_text() == sweep(
        "ROBERT", Exhaustive(2)
    ).canonical_text()
    assert combined["MAIN_EOSD"].canonical_text() == sweep(
        "MAIN_EOSD", Exhaustive(2)
    ).canonical_text()
    # DICHOTOMY_UNIQUE notes the tally of DICHOTOMY_UNIQUE_WEAK, whether that
    # key is swept with it or not, and at any worker count.
    alone = sweep("DICHOTOMY_UNIQUE", Exhaustive(2)).canonical_text()
    assert "note.weak_at_most_two_confirmed=" in alone
    both = sweep_many(["DICHOTOMY_UNIQUE", "DICHOTOMY_UNIQUE_WEAK"], Exhaustive(2))
    assert set(both) == {"DICHOTOMY_UNIQUE", "DICHOTOMY_UNIQUE_WEAK"}
    assert both["DICHOTOMY_UNIQUE"].canonical_text() == alone
    weak = both["DICHOTOMY_UNIQUE_WEAK"]
    assert f"note.weak_at_most_two_confirmed={weak.confirmed}" in alone
    assert (
        f"note.weak_at_most_two_counterexamples={weak.counterexample_count}" in alone
    )
    assert sweep("DICHOTOMY_UNIQUE", Exhaustive(2), jobs=2).canonical_text() == alone
    assert set(sweep_many(["DICHOTOMY_UNIQUE"], Exhaustive(2))) == {"DICHOTOMY_UNIQUE"}
    # a key named twice is swept once
    assert sweep_many(["ROBERT", "ROBERT"], Exhaustive(2))["ROBERT"].canonical_text() == (
        combined["ROBERT"].canonical_text()
    )


def test_parallel_sweeps_are_byte_identical():
    serial = sweep("THM_CIRCULAR_EOSD", Exhaustive(2), jobs=1)
    parallel = sweep("THM_CIRCULAR_EOSD", Exhaustive(2), jobs=2)
    assert serial.canonical_text() == parallel.canonical_text()

    q_serial = open_question_search("Q1_NEG_LOCAL_CYCLES", Exhaustive(2), jobs=1)
    q_parallel = open_question_search("Q1_NEG_LOCAL_CYCLES", Exhaustive(2), jobs=2)
    assert q_serial.canonical_text() == q_parallel.canonical_text()


def test_open_question_searches():
    report = open_question_search(OpenQuestion.Q2_0CRITICAL_ANDNET, AndNets(2))
    assert (report.examined, report.hypothesis_hits, report.discovery_count) == (81, 2, 0)

    report = open_question_search("Q1_NEG_LOCAL_CYCLES", Exhaustive(2))
    assert (report.examined, report.hypothesis_hits, report.discovery_count) == (
        256,
        63,
        0,
    )

    # on 3 vertices every and-net without a negative circular subnetwork has a
    # fixed point; the counterexample D_4 has 4 vertices
    report = open_question_search(OpenQuestion.Q3_ANDNET_NO_NEG_CIRCULAR_SUB, AndNets(3))
    assert (report.examined, report.hypothesis_hits, report.discovery_count) == (19683, 5116, 0)

    capped = open_question_search("Q1_NEG_LOCAL_CYCLES", Exhaustive(2), budget=10)
    assert capped.examined == 10

    with pytest.raises(ValueError):
        open_question_search("Q1_NEG_LOCAL_CYCLES", Subsets(2))
    with pytest.raises(ValueError):
        open_question_search("Q9_UNKNOWN", Exhaustive(2))


@pytest.mark.parametrize("n", [2, 3])
def test_searches_over_the_non_expansive_family(n):
    gen = NonExpansive(n)
    report = open_question_search("Q1_NEG_LOCAL_CYCLES", gen)
    # RICHARD2011 has the Q1 hypothesis plus non-expansiveness, which every
    # member of the family has, so its hits are the search's hits.
    richard = sweep("RICHARD2011", gen)
    assert report.notes == richard.notes == ()
    assert report.examined == richard.candidates == generator_count(gen)
    assert report.hypothesis_hits == richard.candidates - richard.vacuous


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    assert theorems._worker_count(1, 100) == 1
    assert theorems._worker_count(8, 3) == 2
    assert theorems._worker_count(8, 1) == 1
    assert theorems._worker_count(1000, 4000) == 2
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 64)
    assert theorems._worker_count(1000, 4000) == 64
    assert theorems._worker_count(8, 3) == 3
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: None)
    assert theorems._worker_count(8, 32) == 1


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_rejected(jobs):
    with pytest.raises(ValueError):
        sweep("ROBERT", Exhaustive(1), jobs=jobs)
    with pytest.raises(ValueError):
        open_question_search("Q1_NEG_LOCAL_CYCLES", Exhaustive(1), jobs=jobs)


def test_one_worker_runs_the_same_chunks(monkeypatch):
    """--jobs 1 evaluates the chunks a process pool would, in this process."""
    chunks = []
    evaluate = theorems._evaluate_keys

    def recording(*args):
        chunks.append(args[-1])
        return evaluate(*args)

    monkeypatch.setattr(theorems, "_evaluate_keys", recording)
    gens = (Exhaustive(2), AndNets(2), Subsets(2), NonExpansive(2))
    for gen in gens:
        chunks.clear()
        sweep("LEMMA1_HYPERCUBE" if isinstance(gen, Subsets) else "ROBERT", gen, jobs=1)
        assert chunks == gen.chunks(generator_count(gen), 1), gen
        assert len(chunks) > 1
    chunks.clear()
    open_question_search("Q1_NEG_LOCAL_CYCLES", Exhaustive(2), budget=37, jobs=1)
    assert chunks == Exhaustive(2).chunks(37, 1)


STREAMS = [
    Exhaustive(2),
    Sample(3, 10, 1),
    AndNets(2),
    AndNets(3),
    Circular(3),
    NonExpansive(2),
    Subsets(2),
]


@pytest.mark.parametrize("gen", STREAMS, ids=describe_generator)
def test_stream_chunks_and_orbits_cover_every_candidate_once(gen):
    """At every budget and --jobs, a stream's chunks cover [0, count) end to
    end, at most 4 * jobs of them, each opening with an orbit's index; every
    index below count is a member of exactly one orbit, whose index is its
    smallest member.  And-net chunks hold equal numbers of orbits, give or
    take one."""
    full = generator_count(gen)
    for count in sorted({min(b, full) for b in (0, 1, 7, 100, full // 3, full)}):
        for jobs in (1, 2, 3, 8):
            ranges = gen.chunks(count, jobs)
            assert [i for lo, hi in ranges for i in range(lo, hi)] == list(range(count))
            assert len(ranges) <= 4 * jobs
            chunks = [list(gen.orbits(lo, hi, count)) for lo, hi in ranges]
            assert all(chunk and chunk[0][0] == lo for chunk, (lo, _) in zip(chunks, ranges))
            orbits = [orbit for chunk in chunks for orbit in chunk]
            assert all(index == min(members) for index, members in orbits)
            assert sorted(m for _, members in orbits for m in members) == list(range(count))
            if isinstance(gen, AndNets):
                sizes = [len(chunk) for chunk in chunks]
                assert len(sizes) == min(len(orbits), 4 * jobs)
                assert not sizes or max(sizes) - min(sizes) <= 1, (count, jobs, sizes)
    if gen == Sample(3, 10, 1):
        assert gen.chunks(10, 1) == [(0, 3), (3, 6), (6, 9), (9, 10)]


ITEM_TABLES = subnetwork.item_tables
MASK_TABLES = subnetwork.mask_tables


@contextmanager
def _corrupt_item(f, k, bad):
    """A fresh copy of f (facts are memoized per network) on which the per-mask
    kernel, where every reader gets its sub-tables, builds table bad for strict
    item k: item_tables yields it, and strict_sub_planes places it.  The kernel
    is restored on exit, so the caller lists the next network's items intact."""
    plan = subnetwork.subnetwork_plan(f.width)
    mask, code = list(plan.items())[k]
    order = subnetwork.item_order(f.width, mask)[0]
    start = plan.records[mask][0].index(code) * len(bad)

    def tables(at, gather, points):
        # two masks can share an order's entries (1 and 5 at width 3), not its array
        built = MASK_TABLES(at, gather, points)
        return built[:start] + bad + built[start + len(bad) :] if points is order else built

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subnetwork, "mask_tables", tables)
        fresh = BooleanNetwork(f.components, f.table)
        assert list(ITEM_TABLES(fresh, include_self=False))[k] == (mask, code, bad)
        yield fresh


@pytest.mark.parametrize("key", ["LOCAL_SUBGRAPH_CONTAINMENT", "DYNAMICS_ISOMORPHISM"])
def test_subnetwork_checks_catch_a_corrupted_sub_table(key):
    """Both conclusions compare each strict subnetwork's table with f, so one
    wrong output bit in any entry of any sub-table is a counterexample."""
    assert check(key, EX1).kind is VerdictKind.CONFIRMED
    items = list(ITEM_TABLES(EX1, include_self=False))
    for k, (mask, code, table) in enumerate(items):
        for y in range(len(table)):
            bad = table[:y] + (table[y] ^ 1,) + table[y + 1 :]
            with _corrupt_item(EX1, k, bad) as fresh:
                assert check(key, fresh).kind is VerdictKind.COUNTEREXAMPLE, (k, y)


@pytest.mark.parametrize(
    "gen",
    [
        Sample(1, 4, 1),
        Sample(2, 200, 1),
        Sample(3, 500, 1),
        Sample(4, 100, 2),
        Sample(5, 20, 3),
        Sample(6, 4, 4),
        AndNets(3),
        Circular(4),
        NonExpansive(3),
    ],
    ids=describe_generator,
)
def test_local_subgraph_planes_match_the_per_point_loop(gen):
    """The packed-plane conclusion gives the per-point loop's verdict."""
    for k in range(generator_count(gen)):
        f = candidate_network(gen, k)
        assert theorems._concl_local_subgraph(f) is oracles.local_subgraph_containment(f) is True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_local_subgraph_planes_catch_every_single_bit_corruption(n):
    """Any one output bit flipped in any entry of any sub-table is caught, as
    the per-point loop catches it."""
    for index in range(3):
        f = candidate_network(Sample(n, 3, 5), index)
        items = list(ITEM_TABLES(f, include_self=False))
        for k, (mask, code, table) in enumerate(items):
            for y in range(len(table)):
                for bit in range(mask.bit_count()):
                    bad = table[:y] + (table[y] ^ 1 << bit,) + table[y + 1 :]
                    with _corrupt_item(f, k, bad) as fresh:
                        new = theorems._concl_local_subgraph(fresh)
                        assert new is oracles.local_subgraph_containment(fresh) is False, (
                            k, y, bit
                        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_local_subgraph_planes_catch_a_sign_only_corruption(n):
    """One free output plane of one item complemented keeps the item's arcs and
    flips their signs: a counterexample exactly when that plane has an arc,
    that is, when it is not constant on the item."""
    flips = 0
    for index in range(3):
        f = candidate_network(Sample(n, 3, 5), index)
        items = list(ITEM_TABLES(f, include_self=False))
        for k, (mask, code, table) in enumerate(items):
            for a in range(mask.bit_count()):
                bad = tuple(v ^ 1 << a for v in table)
                signed = len({v >> a & 1 for v in table}) == 2
                with _corrupt_item(f, k, bad) as fresh:
                    new = theorems._concl_local_subgraph(fresh)
                    assert new is oracles.local_subgraph_containment(fresh) is not signed, (k, a)
                    assert check("LOCAL_SUBGRAPH_CONTAINMENT", fresh).kind is (
                        VerdictKind.COUNTEREXAMPLE if signed else VerdictKind.CONFIRMED
                    )
                flips += signed
    assert flips


# the networks of each stream on which every subnetwork's conjugate is bijective
BIJECTIVE_COUNTS = [
    (Exhaustive(2), 12),
    (AndNets(3), 27),
    (NonExpansive(3), 224),
    (Sample(3, 200, 1), 0),
    (Sample(4, 20, 2), 0),
    (Sample(5, 5, 3), 0),
    (Sample(6, 3, 4), 0),
    (Sample(7, 2, 5), 0),
    (Sample(8, 1, 6), 0),
]


@pytest.mark.parametrize(
    "gen, bijective", BIJECTIVE_COUNTS, ids=[describe_generator(g) for g, _ in BIJECTIVE_COUNTS]
)
def test_bijectivity_leg_matches_the_per_table_walk(gen, bijective):
    """COR11's leg, read as one permutation x -> x xor (f(x) and I) per free
    set I, gives the verdict of a walk over every subnetwork's own table,
    f's included, where the leg holds and where it fails."""
    verdicts = []
    for f in _reader_networks(gen):
        verdicts.append(theorems._all_subs_conjugate_bijective(f))
        assert verdicts[-1] is oracles.all_subs_conjugate_bijective(f)
    assert verdicts.count(True) == bijective


@pytest.mark.parametrize(
    "gen",
    [Sample(3, 2000, 1), AndNets(3), Circular(4), Exhaustive(2)],
    ids=describe_generator,
)
def test_local_cycle_hypotheses_match_oracles(gen):
    """The local positive- and negative-cycle facts, loops first, give the
    verdicts of the cycle search over each state's arcs."""
    for k in range(generator_count(gen)):
        f = candidate_network(gen, k)
        assert theorems._local_positive_cycle(f) is oracles.local_positive_cycle(f)
        assert theorems._local_negative_cycle(f) is oracles.local_negative_cycle(f)


def test_battery_sweep_builds_no_local_rows_memo(monkeypatch):
    """The criterion-2 battery reads the local graphs point by point or from
    the girth kernel, never the local rows of every point."""
    calls = []
    build = siggraph.local_rows

    def counting(f):
        calls.append(f.width)
        return build(f)

    monkeypatch.setattr(siggraph, "local_rows", counting)
    assert not hasattr(theorems, "local_rows")
    keys = (
        "MAIN_EOSD", "COR11_EQUIVALENCE", "ROBERT", "DICHOTOMY_UNIQUE",
        "DICHOTOMY_EXIST", "SHIH_DONG", "REMY_RUET_THIEFFRY", "RICHARD2010",
        "RICHARD2011", "COR_COUNTING", "COR_GEODESIC", "THM_CIRCULAR_EOSD",
        "THM_CRITICAL_NONEXP", "PROP_ODD_OUTDEGREE", "LOCAL_SUBGRAPH_CONTAINMENT",
        "DYNAMICS_ISOMORPHISM",
    )
    sweep_many(keys, Sample(3, 300, 1))
    assert calls == []


def test_signed_counting_sweep_builds_no_local_rows_memo(monkeypatch):
    """COR_COUNTING_SIGNED reads both chordless filters from one census that
    walks the points itself.  Every NonExpansive(3) candidate meets the
    hypothesis, so each one reaches the census."""
    calls = []
    build = siggraph.local_rows

    def counting(f):
        calls.append(f.width)
        return build(f)

    monkeypatch.setattr(siggraph, "local_rows", counting)
    report = sweep("COR_COUNTING_SIGNED", NonExpansive(3))
    assert report.candidates > 0 and report.vacuous == 0
    assert calls == []


def test_and_net_sweep_builds_each_global_rows_once(monkeypatch, table_builds):
    """Circular detection and the subnetwork items' circular forms come from
    bitsets: no subnetwork table and no subnetwork's global rows are built."""
    calls = {}
    build = siggraph.bitset_global_rows

    def counting(n, ones):
        calls[n] = calls.get(n, 0) + 1
        return build(n, ones)

    monkeypatch.setattr(siggraph, "bitset_global_rows", counting)
    keys = (
        "ANDNET_2CRITICAL",
        "EOSD_ANDNET_CIRCULAR",
        "CIRCULAR_SUBNETWORK_CRITERION",
        "ANDNET_CHORDLESS",
    )
    sweep_many(keys, AndNets(2))
    # one network per relabelling orbit (45 of the 81 digraphs), each with its
    # own global rows only
    assert calls == {2: 45}
    open_question_search("Q2_0CRITICAL_ANDNET", AndNets(2))
    assert table_builds == []


def test_chordless_local_circular_builds_each_item_once(monkeypatch, table_builds):
    """The chordless-cycle check reads each network's circular forms from the
    bitset kernel, however many keys ask, and no subnetwork table is built.
    From empty form tables, a network costs f's own solve (by detect_circular)
    plus one per distinct (mask, key) among its strict items, as the oracle
    counts them; a fresh copy of it then costs f's own solve alone."""
    solved = []
    solve = siggraph.literal_cycle

    def recording(literals, values):
        solved.append(values)
        return solve(literals, values)

    monkeypatch.setattr(siggraph, "literal_cycle", recording)
    monkeypatch.setattr(subnetwork, "literal_cycle", recording)
    gen = Sample(3, 300, 1)
    keys = (
        "CHORDLESS_LOCAL_CYCLE_CIRCULAR",
        "COR_NONEXP_DICHOTOMY",
        "CHORDLESS_LOCAL_CYCLE_CIRCULAR",
    )
    for index in range(300):
        subnetwork._free_literals.cache_clear()
        first = oracles.circular_form_solves(candidate_network(gen, index))
        for cost in (first, 1):
            solved.clear()
            f = candidate_network(gen, index)
            for key in keys:
                check(key, f)
            assert len(solved) == cost, index
    assert table_builds == []


def _delocalized(g, vertices):
    """Some vertex of g sends a positive arc and a negative arc into two
    distinct vertices of the cycle."""
    return any(
        (v, 1, a) in g.arcs and (v, -1, b) in g.arcs
        for v in g.vertices
        for a in vertices
        for b in vertices
        if a != b
    )


def _oracle_bare_cycle_forms(f):
    """(free mask, (predecessor map, constant)) per chordless cycle of G(f)
    with no delocalizing vertex, all from the brute-force oracles."""
    g = SignedDigraph(f.components, frozenset(oracles.global_arcs(f)))
    forms = set()
    for path, signs in oracles.cycle_set(g):
        if not oracles.chordless(g, path) or _delocalized(g, path):
            continue
        free = sorted(f.components.index(v) for v in path)
        local = {f.components[k]: b for b, k in enumerate(free)}
        pred = [0] * len(free)
        constant = 0
        for k, v in enumerate(path):
            # the arc path[k - 1] -> v carries signs[k - 1]
            pred[local[v]] = local[path[k - 1]]
            if signs[k - 1] == -1:
                constant |= 1 << local[v]
        forms.add((sum(1 << k for k in free), (tuple(pred), constant)))
    return forms


def test_bare_cycle_forms_match_the_oracles():
    """CIRCULAR_SUBNETWORK_CRITERION and ANDNET_CHORDLESS both read this memo,
    so a wrong memo would pass every sweep; pin it on and-nets."""
    cases = [(AndNets(2), i) for i in range(generator_count(AndNets(2)))]
    cases += [(AndNets(3), i) for i in range(0, generator_count(AndNets(3)), 50)]
    nonempty = 0
    for gen, index in cases:
        f = candidate_network(gen, index)
        expected = _oracle_bare_cycle_forms(f)
        assert theorems._bare_cycle_forms(f) == expected, (gen, index)
        nonempty += bool(expected)
    assert 0 < nonempty < len(cases)


READER_GENERATORS = (
    Exhaustive(2),
    AndNets(3),
    Sample(3, 200, 1),
    Sample(4, 60, 2),
    Sample(5, 20, 3),
    Sample(6, 8, 4),
    Sample(7, 3, 5),
)


def _reader_networks(gen):
    """Every candidate of gen, or one per orbit of an and-net family."""
    if isinstance(gen, AndNets):
        members, starts = simple_digraph_orbits(gen.n)
        return [candidate_network(gen, members[a]) for a in starts[:-1]]
    return [candidate_network(gen, k) for k in range(generator_count(gen))]


@pytest.mark.parametrize("gen", READER_GENERATORS, ids=describe_generator)
def test_chordless_readers_match_the_filtered_enumeration(gen):
    """The three readers of the chordless-cycle kernel against the loops they
    replaced, which list every signed cycle and keep the chordless ones:
    the bare cycle forms, the CHORDLESS_LOCAL_CYCLE_CIRCULAR conclusion and
    counting_condition's two chordless filters."""
    filters = ((CycleFilter.POSITIVE_CHORDLESS, 1), (CycleFilter.NEGATIVE_CHORDLESS, -1))
    for f in _reader_networks(gen):
        assert theorems._bare_cycle_forms(f) == oracles.bare_cycle_forms(f)
        concl = theorems._concl_chordless_local_circular(f)
        assert concl is oracles.chordless_local_circular(f)
        for filt, want in filters:
            assert counting_condition(f, filt) == oracles.chordless_counting_condition(f, want)


def test_bare_cycle_forms_on_every_three_vertex_and_net():
    """Every member of AndNets(3), not one per orbit: on three vertices a
    chord back into the middle of the path is met under one labelling of a
    graph and not under another, and the representatives lack it."""
    gen = AndNets(3)
    for index in range(generator_count(gen)):
        f = candidate_network(gen, index)
        assert theorems._bare_cycle_forms(f) == oracles.bare_cycle_forms(f), index


@pytest.mark.parametrize("gen", (Exhaustive(2), Sample(3, 200, 1)), ids=describe_generator)
def test_chordless_local_circular_reads_the_same_items(gen, monkeypatch):
    """The theorem holds everywhere, so a reader that skipped a local cycle
    would still answer True.  With one item's circular form spoilt at a time,
    the kernel and the filtered enumeration must fail on the same items: the
    ones some chordless local cycle lands on."""
    spoilt = object()
    outcomes = set()
    for f in _reader_networks(gen):
        forms = subnetwork.item_circular_forms(f)
        for k in range(len(forms)):
            bad = forms[:k] + (spoilt,) + forms[k + 1 :]
            monkeypatch.setattr(theorems, "item_circular_forms", lambda _: bad)
            monkeypatch.setattr(oracles, "item_circular_forms", lambda _: bad)
            concl = theorems._concl_chordless_local_circular(f)
            assert concl is oracles.chordless_local_circular(f), k
            outcomes.add(concl)
    assert outcomes == {True, False}


# sha256 of each report's canonical text over Sample(7, 20, 3), recorded
# with the enumerate-then-filter loops
WIDTH_SEVEN_DIGESTS = {
    "CHORDLESS_LOCAL_CYCLE_CIRCULAR": "254896755d089176867f3e5f8a209b4fcd352a2513ba082c950f797c217118d0",
    "COR_COUNTING_SIGNED": "976b27fc8b19d24b5ac79edef9423a0dc80a105b7633c3865a5c143bb5ff4073",
}


@pytest.mark.parametrize("key", sorted(WIDTH_SEVEN_DIGESTS))
def test_chordless_sweeps_keep_their_width_seven_reports(key):
    """The chordless kernel on width-7 graphs, which no manifest generator
    reaches.  No candidate of Sample(7, 20, 3) is non-expansive, so the
    COR_COUNTING_SIGNED report is all vacuous and pins its hypothesis only;
    the reader test above checks the counting filters at width 7."""
    for jobs in (1, 2):
        text = sweep(key, Sample(7, 20, 3), jobs=jobs).canonical_text()
        assert hashlib.sha256(text.encode()).hexdigest() == WIDTH_SEVEN_DIGESTS[key]


# sha256 of each report's canonical text over Sample(8, 20, 1) and
# Sample(10, 2, 1), recorded with the per-table walks over a memo of every
# sub-table
WIDE_SUBNETWORK_DIGESTS = {
    ("DYNAMICS_ISOMORPHISM", 8): "a038b75ee8b0df0c25e3635e51b0fff9851e4fd244f8f52c135d5afac11a09d2",
    ("LOCAL_SUBGRAPH_CONTAINMENT", 8): "d0c7a5e91e224ba5ba627f2404baccd4ce94752a1b05bb7be91b555e237dd76f",
    ("COR11_EQUIVALENCE", 8): "da8c4a15f17847117edccb09d6b5aed7a8c827f88763c59e234faec838abdca6",
    ("DYNAMICS_ISOMORPHISM", 10): "491a00d10eb15e47737bce82afb51349e93c793abf498f0f14a25409d7b80b21",
    ("LOCAL_SUBGRAPH_CONTAINMENT", 10): "20e1ebd48230a5d464890d2a002e1c2fe034efc942e3181bf154baec4cea667e",
    ("COR11_EQUIVALENCE", 10): "f0bb88ce4d2542628da339cb298586befe4469d5cc2c5568c6654884e92f4a58",
}


@pytest.mark.parametrize("key, n", sorted(WIDE_SUBNETWORK_DIGESTS))
def test_subnetwork_identities_keep_their_wide_reports(key, n):
    """The stacked sub-table planes and the bijectivity permutations at widths
    8 and 10, which the report manifest, stopping at width 5, does not reach."""
    gen = Sample(8, 20, 1) if n == 8 else Sample(10, 2, 1)
    for jobs in (1, 2):
        text = sweep(key, gen, jobs=jobs).canonical_text()
        assert hashlib.sha256(text.encode()).hexdigest() == WIDE_SUBNETWORK_DIGESTS[key, n]


def test_theorems_imports_no_private_kernels():
    """The catalog uses the public kernels of the other modules."""
    tree = ast.parse(Path(theorems.__file__).read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "boolcube"
        ):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_sweep_report_rendering():
    report = SweepReport(
        theorem="ROBERT",
        generator="exhaustive(n=1)",
        candidates=4,
        vacuous=1,
        confirmed=2,
        counterexamples=((3, "components 1\n1 -> 0\n"),),
        notes=("zeta=1", "alpha=9"),
        wall_time_s=1.5,
    )
    assert report.canonical_text() == (
        "# sweep report v1\n"
        "candidates=4\n"
        "confirmed=2\n"
        "counterexamples=1\n"
        "generator=exhaustive(n=1)\n"
        "note.alpha=9\n"
        "note.zeta=1\n"
        "theorem=ROBERT\n"
        "vacuous=1\n"
        "\n"
        "counterexample candidate=3\n"
        "  components 1\n"
        "  1 -> 0\n"
    )
    assert "wall_time_s=1.500" in report.text()
    assert "wall_time_s" not in report.canonical_text()
    assert str(report) == report.text()


def test_search_report_rendering():
    report = SearchReport(
        question="Q1_NEG_LOCAL_CYCLES",
        generator="sample(n=3,count=2,seed=0)",
        examined=2,
        hypothesis_hits=1,
        discoveries=((1, "components 1\n1 -> 1\n"),),
        wall_time_s=0.25,
    )
    assert report.canonical_text() == (
        "# search report v1\n"
        "discoveries=1\n"
        "examined=2\n"
        "generator=sample(n=3,count=2,seed=0)\n"
        "hypothesis_hits=1\n"
        "question=Q1_NEG_LOCAL_CYCLES\n"
        "\n"
        "discovery candidate=1\n"
        "  components 1\n"
        "  1 -> 1\n"
    )
    assert "wall_time_s=0.250" in report.text()


@settings(max_examples=30)
@given(st.integers(0, 2**24 - 1))
def test_sampled_candidates_respect_width(index):
    f = candidate_network(Sample(3, 1 << 24, 99), index)
    assert f.width == 3
    assert all(0 <= v < 8 for v in f.table)


# ---------------------------------------------------------------------------
# And-nets are swept one vertex-relabelling orbit at a time.


def _orbit_list(n: int) -> list[tuple[int, ...]]:
    members, starts = simple_digraph_orbits(n)
    return [tuple(members[a:b]) for a, b in zip(starts, starts[1:])]


@pytest.mark.parametrize("n,count", [(1, 3), (2, 45), (3, 3411)])
def test_orbits_are_the_relabelling_classes(n, count):
    """The orbits partition the digraph indices, and each is the set of
    relabellings of its representative, built on the graph itself."""
    orbits = _orbit_list(n)
    assert len(orbits) == count
    assert sorted(m for members in orbits for m in members) == list(
        range(simple_digraph_count(n))
    )
    assert all(list(members) == sorted(members) for members in orbits)
    assert [members[0] for members in orbits] == sorted(m[0] for m in orbits)
    labels = default_components(n)
    for members in orbits:
        g = graph_from_rows(labels, *simple_digraph_rows_from_index(n, members[0]))
        images = set()
        for p in permutations(labels):
            # vertex k of g becomes p[k], listed back in the order of labels
            moved = graph_from_rows(p, *graph_rows(g))
            images.add(graph_rows(SignedDigraph(labels, moved.arcs)))
        assert images == {simple_digraph_rows_from_index(n, m) for m in members}


def _verdicts(f: BooleanNetwork) -> tuple[tuple[bool, bool], ...]:
    """(hypothesis, conclusion if the hypothesis holds) of every network key
    and every open question, in catalog order."""
    pairs = []
    for hyp, concl in (*NETWORK_CATALOG.values(), *theorems._QUESTIONS.values()):
        holds = hyp(f)
        pairs.append((holds, holds and concl(f)))
    return tuple(pairs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_key_is_relabelling_invariant_on_and_nets(n):
    """The and-net driver evaluates one network per orbit, so every key's
    verdict must be the same on every member.  At 3 vertices the default run
    compares each representative with the largest member; BOOLCUBE_DEEP=1
    compares every member."""
    every = n < 3 or os.environ.get("BOOLCUBE_DEEP") == "1"
    for members in _orbit_list(n):
        chosen = members if every else (members[0], members[-1])
        verdicts = {_verdicts(candidate_network(AndNets(n), m)) for m in chosen}
        assert len(verdicts) == 1, members


def _reference(
    key: str, gen, count: int
) -> tuple[int, int, tuple[tuple[int, str], ...]]:
    """(vacuous, confirmed, counterexamples) of one key over [0, count), one
    candidate at a time."""
    hyp, concl = NETWORK_CATALOG.get(key) or theorems._QUESTIONS[key]
    vacuous = confirmed = 0
    found = []
    for index in range(count):
        f = candidate_network(gen, index)
        if key in NETWORK_CATALOG:
            verdict = check(key, f)
        elif not hyp(f):
            verdict = Verdict(VerdictKind.VACUOUS)
        elif concl(f):
            verdict = Verdict(VerdictKind.CONFIRMED)
        else:
            verdict = Verdict(VerdictKind.COUNTEREXAMPLE, render_bn(f))
        if verdict.kind is VerdictKind.VACUOUS:
            vacuous += 1
        elif verdict.kind is VerdictKind.CONFIRMED:
            confirmed += 1
        else:
            found.append((index, verdict.payload))
    return vacuous, confirmed, tuple(found)


def _searched(report: SearchReport) -> tuple[int, int, tuple[tuple[int, str], ...]]:
    hits = report.hypothesis_hits
    return report.examined - hits, hits - report.discovery_count, report.discoveries


def test_and_net_orbit_sweep_matches_the_per_candidate_reference():
    gen = AndNets(2)
    reports = sweep_many(NETWORK_KEYS, gen)
    for key in NETWORK_KEYS:
        report = reports[key]
        assert report.candidates == 81
        got = (report.vacuous, report.confirmed, report.counterexamples)
        assert got == _reference(key, gen, 81), key
    for question in OpenQuestion:
        report = open_question_search(question, gen)
        assert report.examined == 81
        assert _searched(report) == _reference(question.name, gen, 81), question


def test_and_net_discoveries_expand_to_every_orbit_member(monkeypatch):
    """A question false on 1,361 and-nets (those with three fixed points or
    more) gives the reference's discoveries, index and payload, at every
    budget and worker count: each discovery lists the members of its orbit
    below the budget, and each member is counted by the chunk holding its
    representative.  The jobs=2 workers are forked, so they see the patched
    question."""
    monkeypatch.setitem(
        theorems._QUESTIONS,
        "UNIQUE_FIXED_POINT",
        (lambda f: theorems._fp_count(f) >= 1, lambda f: theorems._fp_count(f) <= 2),
    )
    gen = AndNets(3)
    count = generator_count(gen)
    vacuous, confirmed, found = _reference("UNIQUE_FIXED_POINT", gen, count)
    assert len(found) == 1361
    for budget in (0, 100, 5000, None):
        cut = count if budget is None else budget
        for jobs in (1, 2):
            report = open_question_search("UNIQUE_FIXED_POINT", gen, budget, jobs)
            assert report.examined == cut
            assert report.discoveries == tuple(d for d in found if d[0] < cut)
    assert _searched(report) == (vacuous, confirmed, found)
