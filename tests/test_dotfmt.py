"""The DOT renderers against the grammar check in oracles, for every label
that check_components accepts."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boolcube import FormatError, SignedDigraph, asynchronous_state_graph, random_network
from boolcube.dotfmt import digraph_dot, state_graph_dot
from boolcube.hypercube import format_code
from boolcube.network import fixed_point_codes

# Characters that mean something to a DOT tokenizer, plus non-ASCII ones.
_AWKWARD = '"\\#->{};[]=,é中∅'

_labels = st.text(
    st.one_of(st.sampled_from(_AWKWARD), st.characters(blacklist_categories=("Cs",))),
    min_size=1,
    max_size=6,
).filter(lambda s: not s.startswith("#") and not any(ch.isspace() for ch in s))


@st.composite
def signed_digraphs(draw):
    vertices = tuple(draw(st.lists(_labels, min_size=1, max_size=5, unique=True)))
    arc = st.tuples(st.sampled_from(vertices), st.sampled_from((1, -1)), st.sampled_from(vertices))
    return SignedDigraph(vertices, draw(st.frozensets(arc, max_size=12)))


def test_the_oracle_rejects_broken_text():
    oracles.validate_dot('digraph g {\n  "a\\"b" -> "c" [sign="-"];\n}\n')
    for text in ('digraph g { "a"" ; }', 'digraph g { "a" -> ; }', 'digraph g { "a"; '):
        with pytest.raises(FormatError):
            oracles.validate_dot(text)


@settings(max_examples=300)
@given(signed_digraphs())
def test_digraph_dot_is_valid_for_any_accepted_labels(g):
    oracles.validate_dot(digraph_dot(g))


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_state_graph_dot_is_valid(n, seed):
    f = random_network(n, seed)
    oracles.validate_dot(state_graph_dot(asynchronous_state_graph(f)))


@pytest.mark.parametrize("n", range(1, 7))
def test_state_graph_dot_double_circles_exactly_the_fixed_points(n):
    for f in (random_network(n, 1), random_network(n, 2), oracles.identity_network(n)):
        text = state_graph_dot(asynchronous_state_graph(f))
        doubled = re.findall(r'^  "([01]+)" \[shape=doublecircle\];$', text, re.M)
        assert doubled == [format_code(x, n) for x in fixed_point_codes(f)]
        assert text.count("[shape=") == 1 << n
