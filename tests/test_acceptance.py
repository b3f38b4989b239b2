"""End-to-end acceptance battery.

Each test covers one numbered criterion; the conftest hook prints a one-line
PASS/FAIL summary per criterion after the run.  Budgets are wall-clock seconds
on a single core.
"""

import hashlib
import itertools
import os
import random
import re
import time
from pathlib import Path

import pytest

import oracles
from conftest import note
from boolcube import (
    BooleanNetwork,
    asynchronous_state_graph,
    conjugate,
    counting_condition,
    detect_circular,
    enumerate_cycles,
    eosd_class,
    find_eosd_subnetwork,
    global_interaction_graph,
    is_conjugate_bijective,
    load_bn,
    local_interaction_graph,
    shih_dong_condition,
    strong_convergence,
    sweep_many,
    weak_convergence,
)
from boolcube.network import ParityClass, fixed_point_codes, parity_class
from boolcube.siggraph import SignedDigraph, circular_network, global_rows, local_rows
from boolcube.subnetwork import all_subnetworks_fixed_point_census, criticality
from boolcube.theorems import (
    AndNets,
    Circular,
    Exhaustive,
    NonExpansive,
    Sample,
    Subsets,
    candidate_network,
    generator_count,
    open_question_search,
    sweep,
)

DATA = Path(__file__).parent / "data"
RESULTS = Path(__file__).parent.parent / "results"
SEED = 20260825

# The theorem set named by criterion 2, reused by the sampled battery.
CRITERION2_KEYS = (
    "MAIN_EOSD",
    "COR11_EQUIVALENCE",
    "ROBERT",
    "DICHOTOMY_UNIQUE",
    "DICHOTOMY_EXIST",
    "SHIH_DONG",
    "REMY_RUET_THIEFFRY",
    "RICHARD2010",
    "RICHARD2011",
    "COR_COUNTING",
    "COR_GEODESIC",
    "THM_CIRCULAR_EOSD",
    "THM_CRITICAL_NONEXP",
    "PROP_ODD_OUTDEGREE",
    "LOCAL_SUBGRAPH_CONTAINMENT",
    "DYNAMICS_ISOMORPHISM",
)

# The paper's non-expansive theorems and the fixed-point theorem they extend.
NONEXP_KEYS = (
    "THM_CIRCULAR_EOSD",
    "THM_CRITICAL_NONEXP",
    "COR_NONEXP_DICHOTOMY",
    "COR_COUNTING_SIGNED",
    "RICHARD2011",
)

ANDNET_KEYS = (
    "ANDNET_2CRITICAL",
    "EOSD_ANDNET_CIRCULAR",
    "CIRCULAR_SUBNETWORK_CRITERION",
    "ANDNET_CHORDLESS",
)


def assert_clean(reports, candidates=None):
    for key, report in reports.items():
        assert report.counterexample_count == 0, f"{key}:\n{report.text()}"
        assert report.vacuous + report.confirmed == report.candidates, key
        if candidates is not None:
            assert report.candidates == candidates, key


def labels(n):
    return tuple(str(k + 1) for k in range(n))


def test_criterion_1_worked_example():
    started = time.perf_counter()
    f = load_bn(DATA / "example1.bn")

    assert conjugate(f).table == (0, 3, 6, 1, 5, 4, 2, 7)
    assert fixed_point_codes(f) == (0,)
    assert find_eosd_subnetwork(f) is None
    assert all_subnetworks_fixed_point_census(f) == (1, 1)
    assert is_conjugate_bijective(f)

    at0 = local_interaction_graph(f, f.point(0))
    assert at0.arc_list() == (("1", 1, "2"), ("2", 1, "3"), ("3", 1, "1"))
    at7 = local_interaction_graph(f, f.point(7))
    assert at7.arc_list() == (("1", -1, "3"), ("2", -1, "1"), ("3", -1, "2"))

    g = global_interaction_graph(f)
    assert g.arc_list() == (
        ("1", 1, "2"),
        ("1", -1, "3"),
        ("2", -1, "1"),
        ("2", 1, "3"),
        ("3", 1, "1"),
        ("3", -1, "2"),
    )

    gamma = asynchronous_state_graph(f)
    assert gamma.arcs == frozenset(
        {(1, 0), (1, 3), (2, 0), (2, 6), (3, 2), (4, 0), (4, 5),
         (5, 1), (6, 4), (7, 3), (7, 5), (7, 6)}
    )

    assert weak_convergence(f)
    assert not strong_convergence(f)
    assert not shih_dong_condition(f)
    assert counting_condition(f)

    elapsed = time.perf_counter() - started
    note(1, f"{elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_2_exhaustive_width_two():
    started = time.perf_counter()
    for n in (1, 2):
        reports = sweep_many(CRITERION2_KEYS, Exhaustive(n))
        assert_clean(reports, candidates=1 << (n << n))
        weak = reports["DICHOTOMY_UNIQUE"].notes
        assert any(item == "weak_at_most_two_counterexamples=0" for item in weak)
    elapsed = time.perf_counter() - started
    note(2, f"{elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_3_subset_lemma():
    started = time.perf_counter()
    for n in range(1, 5):
        report = sweep("LEMMA1_HYPERCUBE", Subsets(n))
        assert report.counterexample_count == 0
        assert report.candidates == 1 << (1 << n)
        assert report.confirmed == 2  # exactly the even points and the odd points
    elapsed = time.perf_counter() - started
    note(3, f"{elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_4_andnet_family():
    started = time.perf_counter()
    reports = sweep_many(ANDNET_KEYS, AndNets(3))
    assert_clean(reports, candidates=3**9)

    search = open_question_search("Q2_0CRITICAL_ANDNET", AndNets(3))
    assert search.examined == 3**9
    for index, payload in search.discoveries:
        print(f"DISCOVERY Q2 candidate={index}\n{payload}")

    elapsed = time.perf_counter() - started
    note(
        4,
        f"{elapsed:.2f}s, Q2 hits={search.hypothesis_hits}"
        f" discoveries={search.discovery_count}",
    )
    assert elapsed < 60.0


def test_criterion_5_circular_family():
    started = time.perf_counter()
    total = 0
    for n in range(1, 7):
        gen = Circular(n)
        for index in range(generator_count(gen)):
            f = candidate_network(gen, index)
            form = detect_circular(f)
            assert form is not None
            assert circular_network(form).table == f.table
            parity = bin(form.constant).count("1") % 2
            assert form.sign == (1 if parity == 0 else -1)
            assert len(fixed_point_codes(f)) == (2 if form.sign == 1 else 0)
            rows = global_rows(f)
            assert all(point_rows == rows for point_rows in local_rows(f))
            total += 1
    elapsed = time.perf_counter() - started
    note(5, f"{total} forms, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_6_sampled_battery():
    started = time.perf_counter()
    reports = sweep_many(CRITERION2_KEYS, Sample(3, 100_000, SEED))
    assert_clean(reports, candidates=100_000)
    weak = reports["DICHOTOMY_UNIQUE"].notes
    assert any(item == "weak_at_most_two_counterexamples=0" for item in weak)
    battery = time.perf_counter() - started

    q1_n3 = open_question_search("Q1_NEG_LOCAL_CYCLES", Sample(3, 600_000, SEED + 1))
    q1_n4 = open_question_search("Q1_NEG_LOCAL_CYCLES", Sample(4, 400_000, SEED + 2))
    assert q1_n3.examined + q1_n4.examined == 1_000_000
    discoveries = q1_n3.discovery_count + q1_n4.discovery_count
    for report in (q1_n3, q1_n4):
        for index, payload in report.discoveries:
            print(f"DISCOVERY Q1 candidate={index}\n{payload}")

    elapsed = time.perf_counter() - started
    note(
        6,
        f"battery {battery:.0f}s, Q1 hits={q1_n3.hypothesis_hits + q1_n4.hypothesis_hits}"
        f" discoveries={discoveries}, total {elapsed:.0f}s",
    )


@pytest.mark.skipif(
    os.environ.get("BOOLCUBE_DEEP") != "1",
    reason="deep mode: set BOOLCUBE_DEEP=1 to sweep all 2^24 width-3 networks",
)
def test_optional_deep_exhaustive_width_three():
    started = time.perf_counter()
    jobs = os.cpu_count() or 1
    reports = sweep_many(CRITERION2_KEYS, Exhaustive(3), jobs=jobs)
    assert_clean(reports, candidates=1 << 24)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0


def test_criterion_7_cycle_oracle():
    started = time.perf_counter()

    for n in (1, 2, 3):
        verts = labels(n)
        pairs = [(s, d) for s in verts for d in verts]
        for states in itertools.product(range(4), repeat=n * n):
            arcs = set()
            for (s, d), state in zip(pairs, states):
                if state & 1:
                    arcs.add((s, 1, d))
                if state & 2:
                    arcs.add((s, -1, d))
            graph = SignedDigraph(verts, frozenset(arcs))
            found = {(c.vertices, c.signs) for c in enumerate_cycles(graph)}
            assert found == oracles.cycle_set(graph)

    rng = random.Random(SEED)
    for _ in range(10_000):
        n = rng.choice((4, 5))
        verts = labels(n)
        arcs = set()
        for s in verts:
            for d in verts:
                state = rng.randrange(4)
                if state & 1:
                    arcs.add((s, 1, d))
                if state & 2:
                    arcs.add((s, -1, d))
        graph = SignedDigraph(verts, frozenset(arcs))
        found = {(c.vertices, c.signs) for c in enumerate_cycles(graph)}
        assert found == oracles.cycle_set(graph)

    cycles = enumerate_cycles(global_interaction_graph(load_bn(DATA / "example1.bn")))
    assert [(str(c), c.sign) for c in cycles] == [
        ("(1 + 2 -)", -1),
        ("(1 - 3 +)", -1),
        ("(2 + 3 -)", -1),
        ("(1 + 2 + 3 +)", 1),
        ("(1 - 3 - 2 -)", -1),
    ]

    elapsed = time.perf_counter() - started
    note(7, f"{elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_8_fixture_classification():
    started = time.perf_counter()

    crit2 = load_bn(DATA / "crit2.bn")
    report = criticality(crit2)
    assert report.two_critical and not report.zero_critical
    assert parity_class(crit2) is not ParityClass.EVEN

    crit0 = load_bn(DATA / "crit0.bn")
    report = criticality(crit0)
    assert report.zero_critical and not report.two_critical
    assert parity_class(crit0) is not ParityClass.ODD

    esd4 = load_bn(DATA / "esd4.bn")
    assert eosd_class(esd4) is ParityClass.EVEN
    assert oracles.is_critical_eosd(esd4)
    assert detect_circular(esd4) is None

    elapsed = time.perf_counter() - started
    note(8, f"{elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_9_determinism():
    gen = Sample(3, 2_000, seed=11)
    first = sweep("MAIN_EOSD", gen, jobs=1).canonical_text()
    again = sweep("MAIN_EOSD", gen, jobs=1).canonical_text()
    parallel = sweep("MAIN_EOSD", gen, jobs=2).canonical_text()
    assert first == again == parallel

    lemma = sweep("LEMMA1_HYPERCUBE", Subsets(3), jobs=1).canonical_text()
    assert lemma == sweep("LEMMA1_HYPERCUBE", Subsets(3), jobs=2).canonical_text()

    search = open_question_search("Q1_NEG_LOCAL_CYCLES", gen, jobs=1).canonical_text()
    repeat = open_question_search("Q1_NEG_LOCAL_CYCLES", gen, jobs=2).canonical_text()
    assert search == repeat
    note(9, "jobs=1 and jobs=2 byte-identical")


def test_criterion_10_non_expansive_family():
    started = time.perf_counter()
    gen = NonExpansive(3)
    reports = sweep_many(NONEXP_KEYS, gen)
    assert_clean(reports, candidates=15_488)
    richard = reports["RICHARD2011"]
    assert (richard.confirmed, richard.vacuous) == (3_049, 12_439)
    circular = [i for i in range(15_488) if detect_circular(candidate_network(gen, i)) is not None]
    assert len(circular) == 16  # 2! cycle orders times 2^3 sign patterns

    text = (RESULTS / "nonexpansive3.txt").read_text(encoding="utf-8")
    pinned = {key: digest for digest, key in re.findall(r"^([0-9a-f]{64}) (\w+)$", text, re.M)}
    for key, report in reports.items():
        assert hashlib.sha256(report.canonical_text().encode()).hexdigest() == pinned[key], key

    elapsed = time.perf_counter() - started
    note(10, f"{elapsed:.2f}s, {len(circular)} circular")
    assert elapsed < 60.0
