"""The schemes against an exact reference on ``fractions.Fraction``.

Straight from the definitions, in exact rational arithmetic:
``C[i, j]`` is the sum of the records on ``(i, j)``; TT weighs ``j`` by
``C[i, j]`` over ``i``'s outgoing volume to nodes other than ``i``; IT
does the same over ``i``'s in-row; UT divides ``C[i, j]`` by ``|I(j)|``
(``sqrt``: by ``sqrt(|I(j)|)``; ``tfidf``: multiplies it by
``log(|V| / |I(j)|)``, keeping ``j`` only where that is positive);
``RWR_c^h`` takes ``h`` exact steps of ``r <- (1 - c) P^T r + c s_i``,
mass on a dangling node returning to ``i``.  On a bipartite graph the
walk crosses every edge either way (``symmetrize="auto"``) and a ``V1``
owner keeps only ``V2`` candidates (Section II-B).  Square roots and
logarithms are computed to well over 100 bits, far below every bound.

Every float answer — ``compute_all`` and ``compute``, on the graph
``aggregate_records`` builds and on the one a ``GraphBuilder`` builds —
must name the reference's members (but those so small they may round to
zero) and give each member of exact weight ``x`` a weight within
``bound * x + ABS_BOUND`` of ``x``:

- ``SUM_BOUND`` for TT, IT, UT and RWR, whose float paths add only
  non-negative terms (TT and IT total a row without its self-loop): one
  ulp per addition, a few dozen additions per value, bounded far above by
  ``2**-40``.
- UT ``sqrt`` and ``tfidf`` add one ``sqrt`` or ``log`` rounding to
  ``SUM_BOUND`` (``SCALE_BOUND``).  ``log``'s argument ``|V| / |I(j)|`` is
  itself a rounded quotient, whose error ``log`` divides by
  ``log(|V| / |I(j)|) >= log(9 / 8)`` on at most 9 nodes: a dozen ulps.
- ``ABS_BOUND``: a value below ``2**-1022`` is subnormal, rounded to a
  multiple of ``2**-1074``; ``2**-1064`` covers a thousand such roundings.

Graphs hold at most 9 nodes, so ``k = 9`` keeps every candidate;
``test_top_k_below_the_candidate_count`` cuts at ``k = 1, 2, 3``.
``tests/core/test_row_kernels.py`` holds the batch kernels to the same
reference on its own inputs (``window_of_graph``, ``reference``).

Inputs the float paths cannot answer (ROADMAP item 2) are named
``xfail(strict=True)`` cases below, not filtered out of the inputs.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import create_scheme
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import aggregate_records
from repro.graph.comm_graph import GraphBuilder
from repro.graph.stream import EdgeRecord

SUM_BOUND = Fraction(2) ** -40
SCALE_BOUND = SUM_BOUND + Fraction(2) ** -48
ABS_BOUND = Fraction(2) ** -1064
NODES = list("abcdefghi")
LEFT, RIGHT = list("abcd"), list("vwxyz")
K = len(NODES)

Records = List[Tuple[str, str, float]]
Exact = Dict[str, Tuple[Fraction, Fraction]]  # member -> (weight, bound)


class Window(NamedTuple):
    """A graph in exact arithmetic: its nodes, every positive
    ``C[i, j]``, and a bipartite graph's ``V1`` and ``V2``."""

    nodes: list
    volume: Dict[tuple, Fraction]
    sides: Optional[Tuple[Set, Set]] = None


def window_of_records(records: Records, bipartite: bool = False) -> Window:
    """The records' graph: nodes in first-seen order, volumes summed."""
    nodes: Dict[str, None] = {}
    volume: Dict[Tuple[str, str], Fraction] = {}
    for src, dst, weight in records:
        nodes.setdefault(src)
        nodes.setdefault(dst)
        volume[src, dst] = volume.get((src, dst), Fraction(0)) + Fraction(weight)
    sides = None
    if bipartite:
        sides = ({src for src, _, _ in records}, {dst for _, dst, _ in records})
    return Window(list(nodes), {edge: value for edge, value in volume.items() if value > 0}, sides)


def window_of_graph(graph) -> Window:
    """``graph`` itself, its float weights read exactly."""
    sides = None
    if isinstance(graph, BipartiteGraph):
        sides = (set(graph.left_nodes), set(graph.right_nodes))
    volume = {(src, dst): Fraction(weight) for src, dst, weight in graph.edges()}
    return Window(graph.nodes(), volume, sides)


def shares(row: Dict[str, Fraction], owner: str) -> Exact:
    """TT/IT: each neighbour's share of the row's volume to other nodes."""
    others = {node: value for node, value in row.items() if node != owner}
    denominator = sum(others.values(), Fraction(0))
    if denominator <= 0:
        return {}
    return {node: (value / denominator, SUM_BOUND) for node, value in others.items()}


def tt(window: Window, owner) -> Exact:
    return shares({dst: value for (src, dst), value in window.volume.items() if src == owner}, owner)


def it(window: Window, owner) -> Exact:
    return shares({src: value for (src, dst), value in window.volume.items() if dst == owner}, owner)


def _ln(ratio: Fraction) -> Fraction:
    context = decimal.Context(prec=60)
    quotient = context.divide(decimal.Decimal(ratio.numerator), decimal.Decimal(ratio.denominator))
    return Fraction(context.ln(quotient))


#: UT's novelty scalings: ``(|I(j)|, |V|) -> factor`` on ``C[i, j]``, and the bound.
SCALINGS: Dict[str, Tuple[Callable[[int, int], Fraction], Fraction]] = {
    "inverse": (lambda degree, count: Fraction(1, degree), SUM_BOUND),
    "sqrt": (lambda degree, count: 1 / Fraction(math.isqrt(degree << 256), 1 << 128), SCALE_BOUND),
    "tfidf": (
        lambda degree, count: _ln(Fraction(count, degree)) if count > degree else Fraction(0),
        SCALE_BOUND,
    ),
}


def ut(scaling: str) -> Callable[[Window, str], Exact]:
    factor, bound = SCALINGS[scaling]

    def reference(window: Window, owner) -> Exact:
        in_degree: Dict[str, int] = {}
        for _, dst in window.volume:
            in_degree[dst] = in_degree.get(dst, 0) + 1
        weights = {
            dst: value * factor(in_degree[dst], len(window.nodes))
            for (src, dst), value in window.volume.items()
            if src == owner and dst != owner
        }
        return {dst: (weight, bound) for dst, weight in weights.items() if weight > 0}

    return reference


def rwr(c: Fraction, hops: int, symmetrize="auto") -> Callable[[Window, str], Exact]:
    def reference(window: Window, owner) -> Exact:
        if owner not in window.nodes:
            return {}
        symmetric = window.sides is not None if symmetrize == "auto" else symmetrize
        out: Dict[str, Dict[str, Fraction]] = {node: {} for node in window.nodes}
        for (src, dst), value in window.volume.items():
            out[src][dst] = out[src].get(dst, Fraction(0)) + value
            if symmetric:
                out[dst][src] = out[dst].get(src, Fraction(0)) + value
        occupancy = {node: Fraction(int(node == owner)) for node in window.nodes}
        for _ in range(hops):
            stepped = dict.fromkeys(window.nodes, Fraction(0))
            for node, mass in occupancy.items():
                total = sum(out[node].values(), Fraction(0))
                if total == 0:
                    stepped[owner] += mass
                for dst, value in out[node].items():
                    stepped[dst] += mass * value / total
            occupancy = {node: (1 - c) * mass for node, mass in stepped.items()}
            occupancy[owner] += c
        if window.sides is not None and owner in window.sides[0]:
            occupancy = {node: mass for node, mass in occupancy.items() if node in window.sides[1]}
        return {
            node: (mass, SUM_BOUND) for node, mass in occupancy.items() if node != owner and mass > 0
        }

    return reference


def reference(name: str, params: dict) -> Optional[Callable[[Window, str], Exact]]:
    """The exact reference of scheme ``name`` with ``params``; ``None``
    for unbounded RWR, which has none yet (ROADMAP item 2)."""
    if name in ("tt", "it"):
        return {"tt": tt, "it": it}[name]
    if name == "ut":
        return ut(params.get("scaling", "inverse"))
    if name == "rwr" and params.get("max_hops") is not None:
        c = Fraction(params.get("reset_probability", 0.1))
        return rwr(c, params["max_hops"], params.get("symmetrize", "auto"))
    return None


SCHEMES = {
    "tt": ("tt", {}),
    "it": ("it", {}),
    "ut": ("ut", {"scaling": "inverse"}),
    "ut-sqrt": ("ut", {"scaling": "sqrt"}),
    "ut-tfidf": ("ut", {"scaling": "tfidf"}),
    "rwr-h1": ("rwr", {"max_hops": 1}),
    "rwr-h3": ("rwr", {"max_hops": 3}),
    "rwr-c0.5-h4": ("rwr", {"reset_probability": 0.5, "max_hops": 4}),
}


def assert_within(signature, exact: Exact, context=(), cut: bool = False) -> None:
    """``signature`` names only members of ``exact``, each within its
    bound.  Unless it is ``cut`` to fewer than its candidates, it leaves
    out only members small enough to round to zero (``2 * ABS_BOUND``)."""
    got = dict(signature.entries)
    assert set(got) <= set(exact), context
    for node, (value, bound) in exact.items():
        if node in got:
            error = abs(Fraction(got[node]) - value)
            assert error <= bound * value + ABS_BOUND, (*context, node)
        else:
            assert cut or value <= 2 * ABS_BOUND, (*context, node)


def graphs(records: Records, bipartite: bool = False):
    """The records' graph from ``aggregate_records`` and from a builder."""
    builder = GraphBuilder(bipartite)
    for src, dst, weight in records:
        builder.add_edge(src, dst, weight)
    aggregated = aggregate_records([EdgeRecord(0.0, *record) for record in records], bipartite)
    return [aggregated, builder.build()]


def assert_matches(name: str, records: Records, bipartite: bool = False) -> None:
    scheme_name, params = SCHEMES[name]
    scheme = create_scheme(scheme_name, k=K, **params)
    exact_of = reference(scheme_name, params)
    window = window_of_records(records, bipartite)
    for graph in graphs(records, bipartite):
        nodes = graph.nodes()
        batch = scheme.compute_all(graph, nodes)
        for owner in nodes:
            exact = exact_of(window, owner)
            for signature in (batch[owner], scheme.compute(graph, owner)):
                assert_within(signature, exact, (name, owner))


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
#: Every record goes ``V1 -> V2``, at most 9 nodes in all.
BIPARTITE_RECORDS = st.lists(
    st.tuples(st.sampled_from(LEFT), st.sampled_from(RIGHT), WEIGHTS), min_size=1, max_size=40
)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@settings(max_examples=60, deadline=None)
@given(records=RECORDS)
def test_scheme_matches_exact_reference(name, records):
    assert_matches(name, records)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@settings(max_examples=30, deadline=None)
@given(records=BIPARTITE_RECORDS)
def test_scheme_matches_exact_reference_on_bipartite_graphs(name, records):
    # RWR walks both ways, and its V1 owners keep only V2 candidates.
    assert_matches(name, records, bipartite=True)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@settings(max_examples=30, deadline=None)
@given(
    case=st.one_of(
        RECORDS.map(lambda records: (records, False)),
        BIPARTITE_RECORDS.map(lambda records: (records, True)),
    )
)
def test_top_k_below_the_candidate_count(name, case):
    # A k-signature is the first k entries of the K-signature, and no
    # candidate it leaves out can weigh more in floats than the lightest
    # member it keeps.
    records, bipartite = case
    scheme_name, params = SCHEMES[name]
    exact_of = reference(scheme_name, params)
    window = window_of_records(records, bipartite)
    whole = create_scheme(scheme_name, k=K, **params)
    for graph in graphs(records, bipartite):
        full = whole.compute_all(graph, graph.nodes())
        for k in (1, 2, 3):
            batch = create_scheme(scheme_name, k=k, **params).compute_all(graph, graph.nodes())
            for owner in graph.nodes():
                kept = dict(batch[owner].entries)
                assert batch[owner].entries == full[owner].entries[:k], (name, owner, k)
                exact = exact_of(window, owner)
                assert_within(batch[owner], exact, (name, owner, k), cut=True)
                if len(kept) < k:
                    continue
                lightest = min(exact[node][0] * (1 + exact[node][1]) for node in kept)
                for node, (value, bound) in exact.items():
                    if node not in kept:
                        assert value * (1 - bound) <= lightest + 2 * ABS_BOUND, (name, owner, k)


@pytest.mark.parametrize("name", sorted(SCHEMES))
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


def test_tt_on_a_self_loop_that_cancels_the_row_total():
    # 1e16 + 1 rounds to 1e16: a row total taken with the self-loop, less
    # the self-loop, is 0.  Definition 3 gives a the signature {b: 1.0}.
    assert_matches("tt", [("a", "a", 1e16), ("a", "b", 1.0)])


def test_it_on_a_self_loop_that_cancels_the_row_total():
    assert_matches("it", [("a", "a", 1e16), ("b", "a", 1.0)])
