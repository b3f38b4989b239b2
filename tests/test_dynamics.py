import random
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boolcube import (
    BooleanNetwork,
    Point,
    WidthCapError,
    asynchronous_state_graph,
    attractor_summary,
    attractors,
    load_bn,
    strong_convergence,
    weak_convergence,
)
from boolcube import dynamics
from boolcube.network import conjugate_codes

DATA = Path(__file__).parent / "data"

EX1 = BooleanNetwork(("1", "2", "3"), (0, 2, 4, 2, 1, 1, 4, 0))

EX1_ARCS = frozenset(
    {
        (1, 0),
        (1, 3),
        (2, 0),
        (2, 6),
        (3, 2),
        (4, 0),
        (4, 5),
        (5, 1),
        (6, 4),
        (7, 3),
        (7, 5),
        (7, 6),
    }
)


def tables(n):
    full = (1 << n) - 1
    return st.tuples(*[st.integers(0, full) for _ in range(1 << n)])


def test_state_graph_of_the_worked_example():
    graph = asynchronous_state_graph(EX1)
    assert graph.components == EX1.components
    assert graph.arcs == EX1_ARCS
    assert graph.arc_list() == tuple(sorted(EX1_ARCS))
    assert graph.point(6) == Point(EX1.components, 6)
    assert str(graph.point(6)) == "011"


@given(tables(3))
def test_state_graph_matches_successor_oracle(table):
    f = BooleanNetwork(("1", "2", "3"), table)
    graph = asynchronous_state_graph(f)
    succ = oracles.successor_map(f)
    assert graph.arcs == {(x, y) for x, ys in enumerate(succ) for y in ys}


def test_attractors_of_the_fixtures():
    only = attractors(EX1)
    assert len(only) == 1
    assert only[0].states == frozenset({0})
    assert not only[0].cyclic
    assert [str(p) for p in only[0].state_points()] == ["000"]

    crit2 = load_bn(DATA / "crit2.bn")
    assert [a.states for a in attractors(crit2)] == [frozenset({0}), frozenset({7})]
    assert attractor_summary(crit2) == (2, False)

    crit0 = load_bn(DATA / "crit0.bn")
    cyclic = attractors(crit0)
    assert len(cyclic) == 1
    assert cyclic[0].cyclic
    assert cyclic[0].states == frozenset(range(1, 7))
    assert attractor_summary(crit0) == (1, True)


def test_attractors_of_builtin_networks():
    assert attractor_summary(oracles.identity_network(2)) == (4, False)
    assert attractor_summary(oracles.negation_network(2)) == (1, True)
    loop = attractors(oracles.negation_network(2))[0]
    assert loop.states == frozenset({0, 1, 2, 3})


@settings(max_examples=150)
@given(tables(3))
def test_attractors_match_reachability_oracle(table):
    f = BooleanNetwork(("1", "2", "3"), table)
    assert [a.states for a in attractors(f)] == oracles.attractor_sets(f)


@given(tables(3))
def test_punctual_attractors_are_fixed_points(table):
    f = BooleanNetwork(("1", "2", "3"), table)
    punctual = {min(a.states) for a in attractors(f) if not a.cyclic}
    assert punctual <= set(oracles.fixed_point_list(f))


def test_convergence_of_the_worked_example():
    assert weak_convergence(EX1)
    assert not strong_convergence(EX1)


def test_strong_convergence_example():
    f = oracles.constant_network(2, 3)
    assert strong_convergence(f)
    assert weak_convergence(f)
    assert not strong_convergence(oracles.identity_network(2))
    assert not weak_convergence(oracles.negation_network(2))


@settings(max_examples=150)
@given(tables(3))
def test_convergence_matches_oracle(table):
    f = BooleanNetwork(("1", "2", "3"), table)
    assert weak_convergence(f) == oracles.weakly_convergent(f)
    assert strong_convergence(f) == oracles.strongly_convergent(f)


def test_convergence_exhaustive_width_two():
    for index in range(256):
        table = tuple(index >> (2 * c) & 3 for c in range(4))
        f = BooleanNetwork(("1", "2"), table)
        assert weak_convergence(f) == oracles.weakly_convergent(f)
        assert strong_convergence(f) == oracles.strongly_convergent(f)
        assert [a.states for a in attractors(f)] == oracles.attractor_sets(f)


def converging_table(n, rng):
    """x -> x xor s(x), s(x) a random nonempty subset of the bits where x
    differs from a chosen c: c is the one fixed point, and every arc of the
    state graph steps toward it."""
    c = rng.randrange(1 << n)
    table = []
    for x in range(1 << n):
        step = 0
        while x != c and not step:
            step = rng.getrandbits(n) & (x ^ c)
        table.append(x ^ step)
    return table


@pytest.mark.parametrize("n", range(4, 11))
def test_weak_convergence_matches_oracle_on_converging_networks(n):
    """Random tables of width 4 and up rarely converge; these all do, and a
    copy with one entry changed may or may not."""
    rng = random.Random(n)
    labels = tuple(str(k + 1) for k in range(n))
    verdicts = set()
    for _ in range(12):
        table = converging_table(n, rng)
        f = BooleanNetwork(labels, tuple(table))
        assert weak_convergence(f) and oracles.weakly_convergent(f)
        for _ in range(3):
            perturbed = list(table)
            x = rng.randrange(1 << n)
            perturbed[x] ^= rng.randrange(1, 1 << n)
            g = BooleanNetwork(labels, tuple(perturbed))
            verdicts.add(weak_convergence(g))
            assert weak_convergence(g) == oracles.weakly_convergent(g)
    assert verdicts == {True, False}


def networks_at(n, rng):
    """The identity (no arcs), the negation (every arc), random tables, and
    converging tables (acyclic state graphs: every component a singleton),
    each converging table also with one entry changed."""
    labels = tuple(str(k + 1) for k in range(n))
    yield oracles.identity_network(n)
    yield oracles.negation_network(n)
    for _ in range(3):
        yield BooleanNetwork(labels, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
    for _ in range(6):
        table = converging_table(n, rng)
        f = BooleanNetwork(labels, tuple(table))
        assert strong_convergence(f)
        yield f
        table[rng.randrange(1 << n)] = rng.randrange(1 << n)
        yield BooleanNetwork(labels, tuple(table))


@pytest.mark.parametrize("n", range(1, 9))
def test_arc_list_is_the_sorted_successor_oracle_at_every_width(n):
    for f in networks_at(n, random.Random(n)):
        graph = asynchronous_state_graph(f)
        succ = oracles.successor_map(f)
        assert graph.arcs == {(x, y) for x, ys in enumerate(succ) for y in ys}
        assert graph.arc_list() == tuple(sorted(graph.arcs))


def tarjan_reference(f):
    """(the attractors' state sets, strong convergence) from the per-state Tarjan."""
    terminal, count = oracles.tarjan_components(conjugate_codes(f))
    states = sorted((frozenset(comp) for comp in terminal), key=min)
    return states, len(oracles.fixed_point_list(f)) == 1 and count == len(f.table)


def assert_matches_the_references(f):
    """Tarjan at every width; the reachability-set oracles, quadratic in the
    number of states, up to width 8."""
    found = [a.states for a in attractors(f)]
    assert (found, strong_convergence(f)) == tarjan_reference(f)
    if f.width <= 8:
        assert found == oracles.attractor_sets(f)
        assert strong_convergence(f) == oracles.strongly_convergent(f)


@contextmanager
def time_limit(seconds):
    """Fail the test once seconds have passed: a closure that stops checking
    its marks walks a cycle forever.  The alarm interrupts the walk wherever
    it is, so the failure is reported without that traceback."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"no answer within {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n", range(1, 13))
def test_attractors_and_strong_convergence_match_oracles_at_wider_widths(n):
    verdicts = set()
    with time_limit(60):
        for f in networks_at(n, random.Random(100 + n)):
            assert_matches_the_references(f)
            verdicts.add(strong_convergence(f))
    assert verdicts == {True, False}


@pytest.mark.parametrize("shape", ["cycle", "path", "lasso"])
@pytest.mark.parametrize("n", range(1, 13))
def test_gray_counters_match_tarjan(n, shape):
    """One arc per state: from width 7 on, the closures walk these point by
    point.  A cycle is one attractor of every state, a path ends at its one
    fixed point, and a lasso's attractor is the second half of the codes."""
    f = oracles.gray_counter(n, shape)
    with time_limit(60):
        assert_matches_the_references(f)
    size = 1 << n
    gray = [i ^ i >> 1 for i in range(size)]
    expected = {
        "cycle": [frozenset(gray)],
        "path": [frozenset(gray[-1:])],
        "lasso": [frozenset(gray[size >> 1 :])],
    }[shape]
    assert [a.states for a in attractors(f)] == expected
    assert strong_convergence(f) == (shape == "path" or n == 1 and shape == "lasso")


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 13) for m in (1, 2, 4) if m <= n])
def test_oscillators_beside_the_identity_match_tarjan(n, m):
    """2^(n-m) attractors, the cosets of the first m components' cycle."""
    f = oracles.oscillator_network(n, m)
    with time_limit(60):
        assert_matches_the_references(f)
    low = (1 << m) - 1
    expected = [frozenset(range(high, high + low + 1)) for high in range(0, 1 << n, low + 1)]
    assert [a.states for a in attractors(f)] == expected
    assert strong_convergence(f) is False


def test_many_small_attractors_cost_what_they_reach():
    """x -> x xor e_1 at width 16 has 2^15 two-state attractors.  Each costs
    about what its closures reach, well under a second in all.  Stepping
    every closure by bit planes instead makes about 4n passes over the 2^16
    states per step, over 10^7 passes in all, and overruns the limit."""
    f = oracles.oscillator_network(16, 1)
    with time_limit(5):
        atts = attractors(f)
    assert len(atts) == 1 << 15
    assert all(a.states == {x, x + 1} for a, x in zip(atts, range(0, 1 << 16, 2)))


@pytest.mark.parametrize("n", range(1, 13))
def test_predecessor_codes_invert_the_successor_oracle(n):
    """Bit k of entry y is set when y xor e_k steps to y: the point-by-point
    backward step, one byte lane per 8 components."""
    for f in (oracles.gray_counter(n, "lasso"), *networks_at(n, random.Random(400 + n))):
        preds = [0] * len(f.table)
        for x, ys in enumerate(oracles.successor_map(f)):
            for y in ys:
                preds[y] |= x ^ y
        assert dynamics._predecessor_codes(f) == tuple(preds)


def test_width_cap_raises_on_every_call(monkeypatch):
    monkeypatch.setattr(dynamics, "WIDTH_CAP", 1)
    f = oracles.identity_network(2)
    entry_points = (
        asynchronous_state_graph,
        attractors,
        attractor_summary,
        weak_convergence,
        strong_convergence,
    )
    for check in entry_points:
        for _ in range(2):
            with pytest.raises(WidthCapError):
                check(f)
