"""The schemes against an exact reference on ``fractions.Fraction``.

Straight from the definitions, in exact rational arithmetic:
``C[i, j]`` is the sum of the records on ``(i, j)``; TT weighs ``j`` by
``C[i, j]`` over ``i``'s outgoing volume to nodes other than ``i``; IT
does the same over ``i``'s in-row; UT divides ``C[i, j]`` by ``|I(j)|``;
``RWR_c^h`` takes ``h`` exact steps of ``r <- (1 - c) P^T r + c s_i``,
mass on a dangling node returning to ``i``.  Graphs hold at most 9 nodes,
so ``k = 9`` keeps every candidate and no top-k cut is compared.

Every float answer — ``compute_all`` and per-node ``compute``, on the
graph ``aggregate_records`` builds and on the one a ``GraphBuilder``
builds — must name the reference's members and give each a weight within
a stated relative bound of the exact value:

- ``SUM_BOUND`` for UT and RWR, whose float paths add only non-negative
  terms: one ulp per addition, a few dozen additions per value, bounded
  far above by ``2**-40``.
- TT and IT subtract the self-loop from the row total, which amplifies
  the total's rounding by ``total / (total - self-loop)``; their bound is
  ``SUM_BOUND`` times that factor.

Inputs the float paths cannot answer (ROADMAP item 2) are named
``xfail(strict=True)`` cases below, not filtered out of the inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import create_scheme
from repro.graph.builders import aggregate_records
from repro.graph.comm_graph import GraphBuilder
from repro.graph.stream import EdgeRecord

SUM_BOUND = Fraction(2) ** -40
NODES = list("abcdefghi")
K = len(NODES)

Records = List[Tuple[str, str, float]]
Exact = Dict[str, Tuple[Fraction, Fraction]]  # member -> (weight, bound)


def volumes(records: Records) -> Tuple[List[str], Dict[Tuple[str, str], Fraction]]:
    """The nodes, in first-seen order, and every positive ``C[i, j]``."""
    nodes: Dict[str, None] = {}
    volume: Dict[Tuple[str, str], Fraction] = {}
    for src, dst, weight in records:
        nodes.setdefault(src)
        nodes.setdefault(dst)
        volume[src, dst] = volume.get((src, dst), Fraction(0)) + Fraction(weight)
    return list(nodes), {edge: value for edge, value in volume.items() if value > 0}


def shares(row: Dict[str, Fraction], owner: str) -> Exact:
    """TT/IT: each neighbour's share of the row's volume to other nodes."""
    total = sum(row.values(), Fraction(0))
    denominator = total - row.get(owner, Fraction(0))
    if denominator <= 0:
        return {}
    bound = SUM_BOUND * total / denominator
    return {node: (value / denominator, bound) for node, value in row.items() if node != owner}


def tt(records: Records, owner: str) -> Exact:
    _, volume = volumes(records)
    return shares({dst: value for (src, dst), value in volume.items() if src == owner}, owner)


def it(records: Records, owner: str) -> Exact:
    _, volume = volumes(records)
    return shares({src: value for (src, dst), value in volume.items() if dst == owner}, owner)


def ut(records: Records, owner: str) -> Exact:
    _, volume = volumes(records)
    in_degree: Dict[str, int] = {}
    for _, dst in volume:
        in_degree[dst] = in_degree.get(dst, 0) + 1
    return {
        dst: (value / in_degree[dst], SUM_BOUND)
        for (src, dst), value in volume.items()
        if src == owner and dst != owner
    }


def rwr(records: Records, owner: str, c: Fraction, hops: int) -> Exact:
    nodes, volume = volumes(records)
    out: Dict[str, Dict[str, Fraction]] = {node: {} for node in nodes}
    for (src, dst), value in volume.items():
        out[src][dst] = value
    occupancy = {node: Fraction(int(node == owner)) for node in nodes}
    for _ in range(hops):
        stepped = dict.fromkeys(nodes, Fraction(0))
        for node, mass in occupancy.items():
            total = sum(out[node].values(), Fraction(0))
            if total == 0:
                stepped[owner] += mass
            for dst, value in out[node].items():
                stepped[dst] += mass * value / total
        occupancy = {node: (1 - c) * mass for node, mass in stepped.items()}
        occupancy[owner] += c
    return {
        node: (mass, SUM_BOUND) for node, mass in occupancy.items() if node != owner and mass > 0
    }


REFERENCES = {
    "tt": (tt, {}),
    "it": (it, {}),
    "ut": (ut, {"scaling": "inverse"}),
    "rwr-h1": (lambda records, owner: rwr(records, owner, Fraction(0.1), 1), {"max_hops": 1}),
    "rwr-h3": (lambda records, owner: rwr(records, owner, Fraction(0.1), 3), {"max_hops": 3}),
    "rwr-c0.5-h4": (
        lambda records, owner: rwr(records, owner, Fraction(0.5), 4),
        {"reset_probability": 0.5, "max_hops": 4},
    ),
}


def graphs(records: Records):
    """The records' graph from ``aggregate_records`` and from a builder."""
    builder = GraphBuilder()
    for src, dst, weight in records:
        builder.add_edge(src, dst, weight)
    return [aggregate_records([EdgeRecord(0.0, *record) for record in records]), builder.build()]


def assert_matches(name: str, records: Records) -> None:
    reference, params = REFERENCES[name]
    scheme = create_scheme(name.split("-")[0], k=K, **params)
    for graph in graphs(records):
        nodes = graph.nodes()
        batch = scheme.compute_all(graph, nodes)
        for owner in nodes:
            exact = reference(records, owner)
            for signature in (batch[owner], scheme.compute(graph, owner)):
                got = dict(signature.entries)
                assert set(got) == set(exact), (name, owner)
                for node, (value, bound) in exact.items():
                    assert abs(Fraction(got[node]) - value) <= bound * value, (name, owner, node)


WEIGHTS = st.one_of(
    st.integers(0, 40).map(float),
    st.floats(min_value=1e-3, max_value=1e3),
)
RECORDS = st.integers(2, len(NODES)).flatmap(
    lambda count: st.lists(
        st.tuples(st.sampled_from(NODES[:count]), st.sampled_from(NODES[:count]), WEIGHTS),
        min_size=1,
        max_size=40,
    )
)


@pytest.mark.parametrize("name", sorted(REFERENCES))
@settings(max_examples=60, deadline=None)
@given(records=RECORDS)
def test_scheme_matches_exact_reference(name, records):
    assert_matches(name, records)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_self_loops_and_dangling_nodes(name):
    # a's self-loop dominates its row; d has no out-edges.
    records = [("a", "a", 900.0), ("a", "b", 1e-3), ("a", "c", 0.5), ("b", "a", 2.0)]
    assert_matches(name, records + [("c", "d", 1.0)])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a subnormal row sum overflows 1 / row_sum, so RWR "
    "gives the node inf weights and the owners whose walks reach it empty signatures",
)
def test_rwr_on_a_subnormal_row_sum():
    records = [("a", "b", 1.0), ("b", "a", 5e-324), ("b", "c", 1e-320), ("c", "a", 1.0)]
    assert_matches("rwr-h3", records)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: two records of 1e308 on one pair aggregate to an "
    "inf edge weight, and TT gives its owner an empty signature",
)
def test_tt_on_an_overflowing_edge_sum():
    records = [("a", "b", 1e308), ("a", "b", 1e308), ("a", "c", 1.0)]
    assert_matches("tt", records)
