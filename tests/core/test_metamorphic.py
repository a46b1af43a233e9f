"""Metamorphic identities of ``compute_all`` over generated graphs.

Each identity follows from the paper's definitions and is checked by
transforming the input graph (Wan & Meila's robustness testing: a
property is tested by what a transform must leave unchanged):

- an order-preserving relabel maps every signature entry exactly;
- scaling every weight by a power of two leaves TT, IT and RWR (hop
  limited and unbounded) byte-identical, and multiplies UT weights by the
  same power exactly (rwr-push is not scale-exact: its residual threshold
  moves which pushes happen, so it is left out);
- ``RWR_0^1`` ranks exactly as TT;
- every registered distance between computed signatures is in [0, 1].

Weights stay within [2^-10, 2^10] and scales within 2^-8..2^8, so no
scaled sum overflows or falls into subnormals.  Graphs are built twice
from one edge list, so node and row orders agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distances import available_distances, get_distance
from repro.core.scheme import create_scheme
from repro.graph.builders import graph_from_edges

#: name -> (registered scheme, parameters, scale-exact).
SCHEMES = {
    "tt": ("tt", {}, True),
    "ut": ("ut", {}, True),
    "it": ("it", {}, True),
    "rwr-h3": ("rwr", {"max_hops": 3}, True),
    "rwr": ("rwr", {}, True),
    "rwr-push": ("rwr-push", {}, False),
}

K = 4


@st.composite
def edge_lists(draw):
    """A general or bipartite graph on at most 9 nodes, as its edge list."""
    bipartite = draw(st.booleans())
    if bipartite:
        srcs = st.sampled_from([f"u{i}" for i in range(4)])
        dsts = st.sampled_from([f"t{i}" for i in range(5)])
    else:
        srcs = dsts = st.sampled_from([f"n{i}" for i in range(9)])
    weights = st.one_of(
        st.integers(1, 5).map(float),
        st.floats(min_value=2.0**-10, max_value=2.0**10),
    )
    edges = draw(st.lists(st.tuples(srcs, dsts, weights), min_size=1, max_size=30))
    return bipartite, edges


def signatures(name, graph, **overrides):
    registered, params, _ = SCHEMES[name]
    return create_scheme(registered, k=K, **{**params, **overrides}).compute_all(graph)


@settings(max_examples=120, deadline=None)
@given(edge_lists(), st.integers(-8, 8))
def test_relabel_scale_and_distance_identities(trace, exponent):
    bipartite, edges = trace
    graph = graph_from_edges(edges, bipartite=bipartite)
    relabelled = graph_from_edges(
        [(f"r-{src}", f"r-{dst}", weight) for src, dst, weight in edges], bipartite=bipartite
    )
    scale = 2.0**exponent
    scaled = graph_from_edges(
        [(src, dst, weight * scale) for src, dst, weight in edges], bipartite=bipartite
    )
    for name, (_, _, scale_exact) in SCHEMES.items():
        base = signatures(name, graph)
        assert list(base) == graph.nodes()
        renamed = signatures(name, relabelled)
        for owner, signature in base.items():
            assert renamed[f"r-{owner}"].entries == tuple(
                (f"r-{node}", weight) for node, weight in signature.entries
            ), (name, owner)
        if scale_exact:
            factor = scale if name == "ut" else 1.0
            rescaled = signatures(name, scaled)
            for owner, signature in base.items():
                assert rescaled[owner].entries == tuple(
                    (node, weight * factor) for node, weight in signature.entries
                ), (name, owner)
        values = list(base.values())
        for distance in map(get_distance, available_distances()):
            for first in values:
                for second in values:
                    assert 0.0 <= distance(first, second) <= 1.0, (name, distance)


@settings(max_examples=120, deadline=None)
@given(edge_lists())
def test_rwr_without_resets_over_one_hop_ranks_as_top_talkers(trace):
    bipartite, edges = trace
    graph = graph_from_edges(edges, bipartite=bipartite)
    top_talkers = signatures("tt", graph)

    def ranked(signature_map, owner):
        return [node for node, _ in signature_map[owner].entries]

    directed = signatures("rwr", graph, reset_probability=0.0, max_hops=1, symmetrize=False)
    walked = signatures("rwr", graph, reset_probability=0.0, max_hops=1)
    for owner in graph.nodes():
        assert ranked(directed, owner) == ranked(top_talkers, owner)
        # On a bipartite graph the default walk is symmetrised, so a right
        # owner walks back to its senders where TT has no out-row; only
        # left owners (and every owner of a general graph) rank as TT.
        if not bipartite or graph.side(owner) == "left":
            assert ranked(walked, owner) == ranked(top_talkers, owner)
        else:
            assert ranked(top_talkers, owner) == []
