import random
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import rows_girth
from boolcube import siggraph, theorems
from boolcube import (
    BooleanNetwork,
    CircularForm,
    Cycle,
    CycleFilter,
    FormatError,
    SignedDigraph,
    and_net,
    circular_network,
    counting_condition,
    delocalizing_vertices,
    detect_circular,
    discrete_derivative,
    enumerate_cycles,
    global_interaction_graph,
    is_and_net,
    is_chordless,
    local_interaction_graph,
    parse_sg,
    render_sg,
    shih_dong_condition,
)
from boolcube.hypercube import coordinate_sets, parse_point
from boolcube.network import fixed_point_codes, output_bitsets, random_network
from boolcube.siggraph import (
    cycle_sign,
    cyclic_components,
    graph_from_rows,
    graph_rows,
    has_local_loop,
    load_sg,
    point_rows,
    rows_has_negative_cycle,
    rows_has_positive_cycle,
    rows_reach,
    simple_digraph_count,
    simple_digraph_orbits,
    simple_digraph_rows_from_index,
    transpose,
)
from boolcube.subnetwork import is_zero_critical, item_circular_forms
from boolcube.theorems import (
    AndNets,
    Circular,
    Exhaustive,
    NonExpansive,
    Sample,
    candidate_network,
    describe_generator,
    generator_count,
    sweep,
)

DATA = Path(__file__).parent / "data"

EX1 = BooleanNetwork(("1", "2", "3"), (0, 2, 4, 2, 1, 1, 4, 0))

EX1_GLOBAL_ARCS = (
    ("1", 1, "2"),
    ("1", -1, "3"),
    ("2", -1, "1"),
    ("2", 1, "3"),
    ("3", 1, "1"),
    ("3", -1, "2"),
)


def labels(n):
    return tuple(str(k + 1) for k in range(n))


def graphs(n_max=4):
    def build(draw_tuple):
        n, picks = draw_tuple
        verts = labels(n)
        arcs = set()
        k = 0
        for s in verts:
            for d in verts:
                pick = picks[k]
                k += 1
                if pick & 1:
                    arcs.add((s, 1, d))
                if pick & 2:
                    arcs.add((s, -1, d))
        return SignedDigraph(verts, frozenset(arcs))

    return (
        st.integers(1, n_max)
        .flatmap(
            lambda n: st.tuples(
                st.just(n), st.tuples(*[st.integers(0, 3) for _ in range(n * n)])
            )
        )
        .map(build)
    )


def test_graph_validation():
    with pytest.raises(ValueError):
        SignedDigraph(("a",), frozenset({("a", 0, "a")}))
    with pytest.raises(ValueError):
        SignedDigraph(("a",), frozenset({("a", 1, "b")}))


def test_arc_list_order_and_simplicity():
    g = SignedDigraph(
        ("1", "2"), frozenset({("1", 1, "2"), ("1", -1, "2"), ("2", 1, "1")})
    )
    assert g.arc_list() == (("1", 1, "2"), ("1", -1, "2"), ("2", 1, "1"))
    assert not g.is_simple
    assert SignedDigraph(("1",), frozenset({("1", -1, "1")})).is_simple


@given(graphs(3))
def test_rows_round_trip(g):
    pos, neg = graph_rows(g)
    assert graph_from_rows(g.vertices, pos, neg) == g


def test_discrete_derivative_on_the_worked_example():
    assert discrete_derivative(EX1, "1", "3", parse_point("000", EX1.components)) == 1
    assert discrete_derivative(EX1, "1", "2", parse_point("001", EX1.components)) == -1
    assert discrete_derivative(EX1, "1", "1", parse_point("000", EX1.components)) == 0
    with pytest.raises(ValueError):
        discrete_derivative(EX1, "9", "1", parse_point("000", EX1.components))


def test_local_graphs_of_the_worked_example():
    at0 = local_interaction_graph(EX1, parse_point("000", EX1.components))
    assert at0.arc_list() == (("1", 1, "2"), ("2", 1, "3"), ("3", 1, "1"))
    at7 = local_interaction_graph(EX1, parse_point("111", EX1.components))
    assert at7.arc_list() == (("1", -1, "3"), ("2", -1, "1"), ("3", -1, "2"))
    with pytest.raises(ValueError, match="point components do not match the network"):
        local_interaction_graph(EX1, parse_point("000", ("a", "b", "c")))


def test_global_graph_of_the_worked_example():
    g = global_interaction_graph(EX1)
    assert g.arc_list() == EX1_GLOBAL_ARCS
    assert load_sg(DATA / "example1.sg") == g


@given(st.tuples(*[st.integers(0, 7) for _ in range(8)]))
def test_local_and_global_graphs_match_oracle(table):
    f = BooleanNetwork(labels(3), table)
    assert set(global_interaction_graph(f).arcs) == oracles.global_arcs(f)
    for code in range(8):
        point = f.point(code)
        assert set(local_interaction_graph(f, point).arcs) == oracles.local_arcs(f, code)
        for (i, vi), (j, vj) in product(enumerate(f.components), repeat=2):
            hi, lo = table[code | 1 << j], table[code & ~(1 << j)]
            assert discrete_derivative(f, vi, vj, point) == (hi >> i & 1) - (lo >> i & 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_global_graphs_match_oracle_at_every_width(n):
    """Global rows come from output bitsets; check them on random networks,
    whose graphs are dense, and on random and-nets, whose graphs are sparse."""
    rng = random.Random(n)
    for seed in range(20):
        f = random_network(n, seed)
        assert set(global_interaction_graph(f).arcs) == oracles.global_arcs(f)
        rows = simple_digraph_rows_from_index(n, rng.randrange(simple_digraph_count(n)))
        f = and_net(graph_from_rows(labels(n), *rows))
        assert set(global_interaction_graph(f).arcs) == oracles.global_arcs(f)


def test_cycles_of_the_worked_example():
    cycles = enumerate_cycles(global_interaction_graph(EX1))
    assert [str(c) for c in cycles] == [
        "(1 + 2 -)",
        "(1 - 3 +)",
        "(2 + 3 -)",
        "(1 + 2 + 3 +)",
        "(1 - 3 - 2 -)",
    ]
    assert [c.sign for c in cycles] == [-1, -1, -1, 1, -1]
    g = global_interaction_graph(EX1)
    assert [is_chordless(g, c) for c in cycles] == [True, True, True, False, False]
    assert delocalizing_vertices(g, cycles[0]) == ("3",)
    assert delocalizing_vertices(g, cycles[1]) == ("2",)
    assert delocalizing_vertices(g, cycles[2]) == ("1",)
    assert delocalizing_vertices(g, cycles[3]) == ("1", "2", "3")


@settings(max_examples=60)
@given(graphs(5))
def test_cycle_enumeration_matches_brute_force(g):
    assert {(c.vertices, c.signs) for c in enumerate_cycles(g)} == oracles.cycle_set(g)


def sparse_wide_graphs():
    """300 seeded sparse graphs on 6-8 vertices, where the cycle search's
    reachability pruning cuts paths; loops and opposite-sign pairs included.
    Each comes with a random vertex mask."""
    rng = random.Random(1302)
    for _ in range(300):
        n = rng.randint(6, 8)
        density = rng.uniform(0.1, 0.4)
        verts = labels(n)
        arcs = set()
        for src in verts:
            for dst in verts:
                if rng.random() < density:
                    signs = rng.choice(((1,), (-1,), (1, -1)))
                    arcs.update((src, sign, dst) for sign in signs)
        yield SignedDigraph(verts, frozenset(arcs)), rng.getrandbits(n)


def test_sparse_wide_graphs_match_brute_force():
    """The reachability kernels against a brute-force search: acyclicity, as
    the oracle's rows_girth and as ROBERT's hypothesis (no cycle of either
    sign) on the and-net of the same arcs, transpose, rows_reach,
    cyclic_components, and the strong connectivity that ARACENA_* read from
    that and-net."""
    acyclic_seen = cyclic_seen = connected_seen = 0
    for g, allowed in sparse_wide_graphs():
        n = len(g.vertices)
        verts = g.vertices
        expected = oracles.cycle_set(g)
        assert {(c.vertices, c.signs) for c in enumerate_cycles(g)} == expected
        pos, neg = graph_rows(g)
        adj = tuple(p | m for p, m in zip(pos, neg))
        assert (rows_girth(n, adj) is None) == (not expected)
        acyclic_seen += not expected
        cyclic_seen += bool(expected)
        succ = {j: {i for i in range(n) if adj[j] >> i & 1} for j in range(n)}
        assert transpose(n, adj) == tuple(
            sum(1 << j for j in range(n) if i in succ[j]) for i in range(n)
        )
        reach = {}
        for v in range(n):
            reached = set()
            frontier = {w for w in succ[v] if allowed >> w & 1}
            while frontier:
                reached |= frontier
                frontier = {w for u in frontier for w in succ[u] if allowed >> w & 1} - reached
            assert rows_reach(adj, 1 << v, allowed) == sum(1 << w for w in reached)
            on_cycle = any(verts[v] in vs for vs, _ in expected)
            assert rows_reach(adj, 1 << v) >> v & 1 == on_cycle
            reach[v] = {v}
            frontier = succ[v]
            while frontier - reach[v]:
                reach[v] |= frontier
                frontier = {w for u in frontier for w in succ[u]}
        # the vertices on a cycle, grouped by mutual reachability, by lowest vertex
        components = []
        for v in range(n):
            if v in succ[v] or any(v in reach[w] for w in succ[v]):
                comp = sum(1 << w for w in range(n) if w in reach[v] and v in reach[w])
                if comp not in components:
                    components.append(comp)
        assert list(cyclic_components(n, adj)) == components
        # keep one sign of each both-sign arc: the same adjacency, a simple graph
        f = and_net(graph_from_rows(verts, pos, tuple(m & ~p for p, m in zip(pos, neg))))
        connected = components == [(1 << n) - 1]
        assert theorems._strongly_connected_with_arc(f) == connected
        assert theorems._global_acyclic(f) == (not expected)
        connected_seen += connected
    assert acyclic_seen and cyclic_seen and connected_seen


def assert_cycle_predicates(n, pos, neg, cycles):
    """The girth and sign predicates against cycles, a list of
    (vertex indices, signs) listing every cycle of the rows."""
    adj = tuple(p | m for p, m in zip(pos, neg))
    assert rows_girth(n, adj) == min((len(verts) for verts, _ in cycles), default=None)
    signs = {cycle_sign(s) for _, s in cycles}
    assert rows_has_negative_cycle(n, pos, neg) == (-1 in signs)
    assert rows_has_positive_cycle(n, pos, neg) == (1 in signs)


def test_cycle_predicates_on_every_small_graph():
    """Every signed digraph on 1-3 vertices, 4 states per ordered pair (no
    arc, +, -, both), against the oracle's cycles of the unsigned graph with
    each arc's signs put back in."""
    states = ((1,), (-1,), (1, -1))
    checked = 0
    for n in range(1, 4):
        verts = labels(n)
        pairs = [(j, i) for j in range(n) for i in range(n)]
        for present in range(1 << n * n):
            arcs = [pair for k, pair in enumerate(pairs) if present >> k & 1]
            adj = [0] * n
            for j, i in arcs:
                adj[j] |= 1 << i
            unsigned = [
                tuple(verts.index(v) for v in vs)
                for vs, _ in oracles.cycle_set(graph_from_rows(verts, tuple(adj), (0,) * n))
            ]
            for choice in product(states, repeat=len(arcs)):
                arc_signs = dict(zip(arcs, choice))
                pos = [0] * n
                neg = [0] * n
                for (j, i), signs in arc_signs.items():
                    if 1 in signs:
                        pos[j] |= 1 << i
                    if -1 in signs:
                        neg[j] |= 1 << i
                cycles = [
                    (vs, hops)
                    for vs in unsigned
                    for hops in product(
                        *(arc_signs[vs[k], vs[(k + 1) % len(vs)]] for k in range(len(vs)))
                    )
                ]
                assert_cycle_predicates(n, tuple(pos), tuple(neg), cycles)
                checked += 1
    assert checked == 4 + 4**4 + 4**9


def test_cycle_predicates_on_sparse_wide_graphs():
    kinds = set()
    for g, _ in sparse_wide_graphs():
        n = len(g.vertices)
        pos, neg = graph_rows(g)
        cycles = [
            (tuple(g.vertices.index(v) for v in vs), signs)
            for vs, signs in oracles.cycle_set(g)
        ]
        assert_cycle_predicates(n, pos, neg, cycles)
        kinds.add(frozenset(cycle_sign(s) for _, s in cycles))
    assert len(kinds) == 4


def test_counting_and_q1_enumerate_no_cycles(monkeypatch):
    """counting_condition reads the girth kernel, the Q1 hypothesis its loop
    steps or the parity cover's negative test, and ROBERT's hypothesis the
    negative fact before the positive one: none lists a cycle.  The and-net
    of D_4 is unbalanced, all negative, with no both-sign arc, no positive
    loop and more than one cycle, so only the enumeration could answer its
    positive question."""
    listed = []

    def counted(name):
        real = getattr(siggraph, name)

        def wrapper(*args):
            listed.append(name)
            return real(*args)

        return wrapper

    monkeypatch.setattr(siggraph, "rows_signed_cycles", counted("rows_signed_cycles"))
    monkeypatch.setattr(siggraph, "_unsigned_cycles", counted("_unsigned_cycles"))
    monkeypatch.setattr(
        theorems, "rows_has_positive_cycle", counted("rows_has_positive_cycle")
    )
    q1_hypothesis = theorems._QUESTIONS["Q1_NEG_LOCAL_CYCLES"][0]
    robert_hypothesis = theorems.NETWORK_CATALOG["ROBERT"][0]
    for seed in range(4):
        f = random_network(5, seed)
        assert not shih_dong_condition(f)
        counting_condition(f)
        q1_hypothesis(BooleanNetwork(f.components, f.table))
        assert not robert_hypothesis(f)
    assert not theorems._global_acyclic(and_net(load_sg(DATA / "d4.sg")))
    assert listed == []


def test_loop_steps_answer_random_networks_before_any_walk(monkeypatch):
    """REMY_RUET_THIEFFRY's and Q1's hypotheses find a loop of their sign on
    random networks, at point 0 or across the cube, and build no local
    graph's cycle search.  The and-net of D_4 has no loop, so both still
    reach the walk."""
    listed = []

    def counted(name):
        real = getattr(theorems, name)

        def wrapper(*args):
            listed.append(name)
            return real(*args)

        return wrapper

    for name in ("rows_has_positive_cycle", "rows_has_negative_cycle", "_any_local"):
        monkeypatch.setattr(theorems, name, counted(name))
    remy_hypothesis = theorems.NETWORK_CATALOG["REMY_RUET_THIEFFRY"][0]
    q1_hypothesis = theorems._QUESTIONS["Q1_NEG_LOCAL_CYCLES"][0]
    for n in range(5, 9):
        for seed in range(4):
            f = random_network(n, seed)
            assert not remy_hypothesis(f)
            assert not q1_hypothesis(f)
    assert listed == []
    d4 = and_net(load_sg(DATA / "d4.sg"))
    assert not has_local_loop(d4, 0) and not has_local_loop(d4, 1)
    remy_hypothesis(d4)
    q1_hypothesis(d4)
    assert listed.count("_any_local") == 2
    assert "rows_has_positive_cycle" in listed and "rows_has_negative_cycle" in listed


LOOP_GENERATORS = [
    Exhaustive(1),
    Exhaustive(2),
    Circular(4),
    AndNets(3),
    *(Sample(n, 40, n) for n in range(3, 9)),
]


@pytest.mark.parametrize("gen", LOOP_GENERATORS, ids=describe_generator)
def test_local_loop_sets_match_the_oracle(gen):
    """The bit-plane loop test of each sign against the loops read off each
    state's arcs; circular networks have no loop at all."""
    signs = set()
    for k in range(generator_count(gen)):
        f = candidate_network(gen, k)
        found = (has_local_loop(f, 0), has_local_loop(f, 1))
        assert found == tuple(points != 0 for points in oracles.local_loop_points(f))
        signs.update(sign for sign, loop in zip((1, -1), found) if loop)
    assert signs == (set() if isinstance(gen, Circular) else {1, -1})


@given(graphs(4))
def test_chordless_matches_brute_force(g):
    for c in enumerate_cycles(g):
        assert is_chordless(g, c) == oracles.chordless(g, c.vertices)


def test_loops_count_as_chords():
    g = parse_sg("vertices 1 2\n1 + 2\n2 + 1\n2 - 2\n")
    two_cycle = next(c for c in enumerate_cycles(g) if c.length == 2)
    assert not is_chordless(g, two_cycle)
    loop = next(c for c in enumerate_cycles(g) if c.length == 1)
    assert is_chordless(g, loop)


def test_delocalizing_needs_two_distinct_targets():
    base = "vertices 1 2 3\n1 + 2\n2 + 1\n"
    same = parse_sg(base + "3 + 1\n3 - 1\n")
    split = parse_sg(base + "3 + 1\n3 - 2\n")
    cycle = next(c for c in enumerate_cycles(same) if c.length == 2)
    assert delocalizing_vertices(same, cycle) == ()
    assert delocalizing_vertices(split, cycle) == ("3",)
    stranger = Cycle(("1", "4"), (1, 1))
    for judge in (is_chordless, delocalizing_vertices):
        with pytest.raises(ValueError, match="cycle vertex '4' is not in the graph"):
            judge(same, stranger)


def _kernel_cycles(n, adj):
    """rows_chordless_cycles as a sorted list, after checking that it yields
    each cycle once and starts each at its smallest vertex."""
    found = list(siggraph.rows_chordless_cycles(n, adj))
    assert len(found) == len(set(found))
    assert all(verts[0] == min(verts) for verts in found)
    return sorted(found)


def test_chordless_kernel_on_every_graph_up_to_three_vertices():
    """Every unsigned digraph on 1-3 vertices, loops included, against the
    filtered enumeration and against the brute-force cycles and chords."""
    for n in range(1, 4):
        verts = labels(n)
        for present in range(1 << n * n):
            adj = tuple(present >> (j * n) & (1 << n) - 1 for j in range(n))
            found = _kernel_cycles(n, adj)
            assert found == sorted(oracles.chordless_cycles(n, adj)), (n, adj)
            g = graph_from_rows(verts, adj, (0,) * n)
            brute = sorted(
                tuple(verts.index(v) for v in vs)
                for vs, _ in oracles.cycle_set(g)
                if oracles.chordless(g, vs)
            )
            assert found == brute, (n, adj)


@pytest.mark.parametrize("n", range(1, 9))
def test_chordless_kernel_on_random_graphs_of_every_density(n):
    """Random digraphs from almost empty to almost complete, loops included;
    half of them hold a cycle through every vertex in a random order, so the
    kernel meets chords of every kind and chordless cycles of every length."""
    rng = random.Random(2700 + n)
    lengths = set()
    for density in (0.0, 0.03, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        for trial in range(40):
            adj = [sum(1 << i for i in range(n) if rng.random() < density) for _ in range(n)]
            if trial & 1:
                order = rng.sample(range(n), n)
                for j, i in zip(order, order[1:] + order[:1]):
                    adj[j] |= 1 << i
            adj = tuple(adj)
            found = _kernel_cycles(n, adj)
            assert found == sorted(oracles.chordless_cycles(n, adj)), (n, adj)
            lengths.update(map(len, found))
    assert lengths == set(range(1, n + 1))


CENSUS_GENERATORS = (
    Exhaustive(1),
    Exhaustive(2),
    Circular(4),
    Circular(5),
    NonExpansive(3),
    AndNets(3),
    Sample(3, 200, 1),
    Sample(4, 60, 2),
    Sample(5, 20, 3),
    Sample(6, 8, 4),
    Sample(7, 3, 5),
    Sample(8, 2, 6),
)


@pytest.mark.parametrize("gen", CENSUS_GENERATORS, ids=describe_generator)
def test_chordless_census_matches_the_oracle(gen):
    """_chordless_census against each point's shortest chordless cycle of
    each sign from the sorted signed enumeration, on one network per orbit
    of gen."""
    count = generator_count(gen)
    for index, _ in gen.orbits(0, count, count):
        f = candidate_network(gen, index)
        n = f.width
        expected = ([0] * n, [0] * n)
        for x in range(1 << n):
            rows = point_rows(n, f.table, x)
            for counts, want in zip(expected, (1, -1)):
                shortest = oracles.min_chordless_cycle_len(n, rows, want)
                if shortest is not None:
                    counts[shortest - 1] += 1
        assert siggraph._chordless_census(f) == tuple(map(tuple, expected)), f.table


def test_chordless_census_walks_each_local_graph_once(monkeypatch):
    """Every local graph of a circular network is G(f), so the census makes
    one kernel pass per network; a random width-7 network repeats none."""
    passes = []
    kernel = siggraph.rows_chordless_cycles

    def counting_kernel(n, adj):
        passes.append(adj)
        return kernel(n, adj)

    monkeypatch.setattr(siggraph, "rows_chordless_cycles", counting_kernel)
    gen = Circular(5)
    for index in range(0, generator_count(gen), 97):
        f = candidate_network(gen, index)
        passes.clear()
        siggraph._chordless_census(BooleanNetwork(f.components, f.table))
        assert len(passes) == 1, f.table
    for seed in range(3):
        passes.clear()
        siggraph._chordless_census(random_network(7, seed))
        assert len(passes) == 1 << 7, seed


def test_cycle_str_and_validation():
    c = Cycle(("1", "2"), (1, -1))
    assert str(c) == "(1 + 2 -)"
    assert c.arcs() == (("1", 1, "2"), ("2", -1, "1"))
    with pytest.raises(ValueError):
        Cycle((), ())
    with pytest.raises(ValueError):
        Cycle(("1", "1"), (1, 1))
    with pytest.raises(ValueError):
        Cycle(("1", "2"), (1,))


def test_circular_form_validation():
    with pytest.raises(ValueError):
        CircularForm(("1", "2"), (0, 1), 0)  # two loops, not one cycle
    with pytest.raises(ValueError):
        CircularForm(("1", "2"), (1, 1), 0)
    with pytest.raises(ValueError):
        CircularForm(("1", "2"), (1, 0), 4)


def cyclic_forms(n_max=5):
    def build(draw_tuple):
        n, rest, constant = draw_tuple
        order = [0] + list(rest)
        pred = [0] * n
        for t, v in enumerate(order):
            pred[v] = order[t - 1]
        return CircularForm(labels(n), tuple(pred), constant)

    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.permutations(range(1, n)),
            st.integers(0, (1 << n) - 1),
        )
    ).map(build)


@given(cyclic_forms())
def test_circular_round_trip(form):
    f = circular_network(form)
    assert detect_circular(f) == form
    assert global_interaction_graph(f) == form.graph()
    assert form.sign == (1 if bin(form.constant).count("1") % 2 == 0 else -1)
    count = len(fixed_point_codes(f))
    assert count == (2 if form.sign == 1 else 0)


@given(cyclic_forms(4))
def test_circular_local_graphs_are_constant(form):
    f = circular_network(form)
    g = global_interaction_graph(f)
    for code in range(1 << f.width):
        assert local_interaction_graph(f, f.point(code)) == g


def test_detect_circular_rejects_non_circular():
    assert detect_circular(EX1) is None
    assert detect_circular(oracles.identity_network(2)) is None
    assert detect_circular(oracles.constant_network(2, 0)) is None


def test_and_net_basics():
    g = parse_sg("vertices 1 2\n1 + 2\n")
    f = and_net(g)
    assert f.table == (1, 3, 1, 3)  # component 1 has no inputs, so constant 1
    assert is_and_net(f)
    with pytest.raises(ValueError):
        and_net(SignedDigraph(("1",), frozenset({("1", 1, "1"), ("1", -1, "1")})))


def test_the_worked_example_is_an_and_net():
    assert is_and_net(EX1)
    assert and_net(global_interaction_graph(EX1)).table == EX1.table
    assert is_and_net(oracles.constant_network(1, 1))  # empty graph, no inputs
    assert not is_and_net(oracles.constant_network(1, 0))
    assert not is_and_net(BooleanNetwork(("1", "2"), (0, 1, 3, 3)))  # first is an OR


def test_and_net_recovers_every_two_vertex_graph():
    for index in range(simple_digraph_count(2)):
        g = graph_from_rows(("1", "2"), *simple_digraph_rows_from_index(2, index))
        f = and_net(g)
        assert global_interaction_graph(f) == g
        assert is_and_net(f)


@given(st.integers(0, 3**9 - 1))
def test_and_net_recovers_sampled_three_vertex_graphs(index):
    g = graph_from_rows(labels(3), *simple_digraph_rows_from_index(3, index))
    assert global_interaction_graph(and_net(g)) == g


def test_and_net_table_matches_the_oracle():
    """Every simple digraph on 1-3 vertices, then random sparse and dense
    simple rows on 4-10 vertices."""
    for n in range(1, 4):
        for index in range(simple_digraph_count(n)):
            rows = simple_digraph_rows_from_index(n, index)
            assert siggraph.and_net_table(n, *rows) == oracles.and_net_table(n, *rows)
    rng = random.Random(14)
    for n in range(4, 11):
        for density in (0.15, 0.7):
            for _ in range(3):
                pos, neg = [0] * n, [0] * n
                for j, i in product(range(n), repeat=2):
                    if rng.random() < density:
                        (pos if rng.random() < 0.5 else neg)[j] |= 1 << i
                rows = (tuple(pos), tuple(neg))
                assert siggraph.and_net_table(n, *rows) == oracles.and_net_table(n, *rows)


def test_is_and_net_matches_the_table_oracle():
    """Every AndNets(3) orbit representative, each with one output bit
    flipped at every point, then 2,000 random tables of widths 1-5, some
    built as and-nets of random graphs."""
    members, starts = simple_digraph_orbits(3)
    gen = AndNets(3)
    verdicts = set()
    for a in starts[:-1]:
        f = candidate_network(gen, members[a])
        assert is_and_net(f)
        x = members[a] % 8
        table = f.table[:x] + (f.table[x] ^ 1 << x % 3,) + f.table[x + 1 :]
        g = BooleanNetwork(f.components, table)
        assert is_and_net(g) is oracles.is_and_net(g)
        verdicts.add(is_and_net(g))
    rng = random.Random(2702)
    for k in range(2000):
        n = rng.randint(1, 5)
        if k & 1:
            rows = simple_digraph_rows_from_index(n, rng.randrange(simple_digraph_count(n)))
            table = siggraph.and_net_table(n, *rows)
        else:
            table = tuple(rng.randrange(1 << n) for _ in range(1 << n))
        f = BooleanNetwork(labels(n), table)
        assert is_and_net(f) is oracles.is_and_net(f)
        verdicts.add(is_and_net(f))
    assert verdicts == {True, False}


def test_every_small_circular_form_round_trips_through_the_oracle():
    """circular_network, the and-net of the form's cycle, against the
    oracle's literal reading of each output, for every form of width <= 5."""
    checked = 0
    for n in range(1, 6):
        for rest in permutations(range(1, n)):
            order = (0,) + rest
            pred = [0] * n
            for t, v in enumerate(order):
                pred[v] = order[t - 1]
            for constant in range(1 << n):
                form = CircularForm(labels(n), tuple(pred), constant)
                f = circular_network(form)
                assert oracles.circular_form(f) == (form.predecessor, constant)
                checked += 1
    assert checked == 2 + 4 + 2 * 8 + 6 * 16 + 24 * 32



# D_n is the all-negative and-net with arcs i -> i+d (mod n) for d = 1..n-2.
# It has no fixed point, yet no subnetwork of it, itself included, is a
# circular network with an odd number of negative arcs.  That answers the
# paper's open C- question for and-nets in the negative, but only on this
# code's definitions: C- is read off the global interaction graph, and a
# vertex with no in-arc reads 1.  PAPER.md holds only the abstract, so these
# definitions are not checked against the paper's text.


def d_net(n: int) -> BooleanNetwork:
    neg = tuple(sum(1 << (i + d) % n for d in range(1, n - 1)) for i in range(n))
    return and_net(graph_from_rows(labels(n), (0,) * n, neg))


def _negative_circular(form) -> bool:
    return form is not None and bin(form[1]).count("1") % 2 == 1


def test_d4_against_the_oracles():
    f = and_net(load_sg(str(DATA / "d4.sg")))
    rows = simple_digraph_rows_from_index(4, 4624800)
    assert siggraph.global_rows(f) == rows
    assert f == d_net(4)
    assert is_and_net(f) and f.table == oracles.and_net_table(4, *rows)
    assert oracles.fixed_point_list(f) == []
    assert oracles.zero_critical(f)
    for table in oracles.all_strict_sub_tables(f) + [f.table]:
        g = BooleanNetwork(labels(len(table).bit_length() - 1), table)
        assert not _negative_circular(oracles.circular_form(g))


@pytest.mark.parametrize("n", range(4, 9))
def test_d_n_is_a_zero_critical_and_net_with_no_negative_circular_subnetwork(n):
    f = d_net(n)
    assert is_and_net(f)
    assert fixed_point_codes(f) == ()
    assert is_zero_critical(f)
    assert detect_circular(f) is None
    assert not any(map(_negative_circular, item_circular_forms(f)))


def test_d_n_answers_the_c_minus_question_no():
    """Q3's hypothesis holds on D_4 (the fixture) and on D_5..D_8, and its
    conclusion fails: an and-net with no negative circular subnetwork, f
    itself included, need not have a fixed point."""
    hyp, concl = theorems._QUESTIONS["Q3_ANDNET_NO_NEG_CIRCULAR_SUB"]
    for f in [and_net(load_sg(str(DATA / "d4.sg")))] + [d_net(n) for n in range(5, 9)]:
        assert hyp(f) and not concl(f)


def test_simple_digraph_enumeration():
    seen = {
        graph_from_rows(labels(2), *simple_digraph_rows_from_index(2, index))
        for index in range(simple_digraph_count(2))
    }
    assert len(seen) == simple_digraph_count(2) == 81
    assert all(g.is_simple for g in seen)
    with pytest.raises(ValueError):
        simple_digraph_rows_from_index(2, 81)


def test_has_cycle_of_sign():
    g = load_sg(DATA / "example1.sg")
    assert rows_has_positive_cycle(3, *graph_rows(g))
    assert rows_has_negative_cycle(3, *graph_rows(g))
    acyclic = parse_sg("vertices 1 2\n1 + 2\n")
    assert not rows_has_positive_cycle(2, *graph_rows(acyclic))
    assert not rows_has_negative_cycle(2, *graph_rows(acyclic))


def test_shih_dong_condition():
    assert not shih_dong_condition(EX1)
    assert shih_dong_condition(oracles.constant_network(2, 1))
    assert not shih_dong_condition(oracles.identity_network(2))


def test_counting_condition():
    assert counting_condition(EX1)
    assert counting_condition(EX1, CycleFilter.POSITIVE_CHORDLESS)
    assert counting_condition(EX1, CycleFilter.NEGATIVE_CHORDLESS)
    assert not counting_condition(oracles.identity_network(2))
    negation = oracles.negation_network(2)
    assert not counting_condition(negation)
    assert counting_condition(negation, CycleFilter.POSITIVE_CHORDLESS)
    assert not counting_condition(negation, CycleFilter.NEGATIVE_CHORDLESS)


def _check_girth_kernel(f):
    """local_girth_sets, the two conditions that read it, the arc sets and the
    odd out-degree conclusion against the per-point oracles; True when some k
    has exactly 2^k points with a cycle of length <= k, the counting bound."""
    n = f.width
    sets = siggraph.local_girth_sets(f)
    assert sets == oracles.local_girth_sets(f)
    assert shih_dong_condition(f) == oracles.shih_dong_condition(f)
    assert counting_condition(f) == oracles.counting_condition(f)
    arcs = [[0] * n for _ in range(n)]
    for x in range(1 << n):
        pos, neg = point_rows(n, f.table, x)
        for j in range(n):
            for i in range(n):
                if (pos[j] | neg[j]) >> i & 1:
                    arcs[j][i] |= 1 << x
    assert siggraph.local_arc_sets(f) == tuple(map(tuple, arcs))
    assert theorems._concl_odd_outdegree(f) == oracles.odd_outdegree(f)
    return any(found.bit_count() == 1 << k for k, found in enumerate(sets, 1))


def test_local_girth_sets_on_every_table_up_to_width_2():
    at_bound = 0
    for n in (1, 2):
        size = 1 << n
        for table in product(range(size), repeat=size):
            at_bound += _check_girth_kernel(BooleanNetwork(labels(n), table))
    assert at_bound


def _perturbed(base, density, rng):
    """base's table with each output bit flipped with probability density."""
    n = base.width
    table = tuple(
        v ^ sum(1 << i for i in range(n) if rng.random() < density) for v in base.table
    )
    return BooleanNetwork(base.components, table)


@pytest.mark.parametrize("n", range(1, 9))
def test_local_girth_sets_on_random_tables_of_every_density(n):
    """Tables near a constant, the identity and a circular network, from
    untouched to uniformly random, so girths run from none to n."""
    rng = random.Random(n)
    pred = tuple((i - 1) % n for i in range(n))
    bases = (
        oracles.constant_network(n, 0),
        oracles.identity_network(n),
        circular_network(CircularForm(labels(n), pred, rng.randrange(1 << n))),
    )
    girths = set()
    for base in bases:
        for density in (0.0, 0.01, 0.03, 0.1, 0.3, 0.5):
            for _ in range(2):
                f = _perturbed(base, density, rng)
                _check_girth_kernel(f)
                sets = (0, *siggraph.local_girth_sets(f))
                girths.update(k for k in range(1, n + 1) if sets[k] != sets[k - 1])
    assert girths == set(range(1, n + 1))


@pytest.mark.parametrize("key", ["SHIH_DONG", "COR_COUNTING"])
def test_girth_sweeps_match_the_per_point_oracle(key, monkeypatch):
    """Width-8 sweeps: every candidate's girth sets, then the report with the
    oracle as the hypothesis."""
    gen = Sample(8, 30, 1)
    report = sweep(key, gen).canonical_text()
    for index in range(gen.count):
        f = candidate_network(gen, index)
        assert siggraph.local_girth_sets(f) == oracles.local_girth_sets(f)
    oracle = {"SHIH_DONG": oracles.shih_dong_condition, "COR_COUNTING": oracles.counting_condition}
    concl = theorems.NETWORK_CATALOG[key][1]
    monkeypatch.setitem(theorems.NETWORK_CATALOG, key, (oracle[key], concl))
    assert sweep(key, gen).canonical_text() == report


def test_sg_round_trip():
    g = load_sg(DATA / "example1.sg")
    assert parse_sg(render_sg(g)) == g


@given(graphs(3))
def test_sg_round_trip_everywhere(g):
    assert parse_sg(render_sg(g)) == g


@pytest.mark.parametrize(
    "text",
    [
        "",
        "vertices\n",
        "vertices a b\na * b\n",
        "vertices a\na + b\n",
        "vertices a\na + a\na + a\n",
        "vertices a a\n",
    ],
)
def test_parse_sg_rejects(text):
    with pytest.raises(FormatError):
        parse_sg(text)


@pytest.mark.parametrize("n", range(1, 9))
def test_local_arc_signs_match_point_rows_at_every_width(n):
    """An arc j -> i of A[j][i] is negative exactly where f_i differs from x_j,
    the sign rule LOCAL_SUBGRAPH_CONTAINMENT applies to the stacked sub-table
    planes: on random tables, the identity, a constant, and at width 4 every
    circular network."""
    rng = random.Random(n)
    nets = [random_network(n, rng.randrange(1 << 30)) for _ in range(3)]
    nets += [oracles.identity_network(n), oracles.constant_network(n, 1)]
    if n == 4:
        nets += [candidate_network(Circular(4), k) for k in range(generator_count(Circular(4)))]
    xs = coordinate_sets(n)
    for f in nets:
        signed = [[[0, 0] for _ in range(n)] for _ in range(n)]
        for x in range(1 << n):
            for t, row in enumerate(point_rows(n, f.table, x)):
                for j in range(n):
                    for i in range(n):
                        if row[j] >> i & 1:
                            signed[j][i][t] |= 1 << x
        for j, row in enumerate(siggraph.local_arc_sets(f)):
            for i, arcs in enumerate(row):
                neg = arcs & (output_bitsets(f)[i] ^ xs[j])
                assert [arcs ^ neg, neg] == signed[j][i], (j, i)
