"""The paper's robustness perturbation model (Section IV-C).

Given a graph ``G_t`` and parameters ``alpha, beta``:

* **Insertions** — ``alpha * |E_t|`` times: sample a source proportional to
  its out-degree and a destination proportional to its in-degree, then
  *assign* the edge a weight drawn from the global distribution of all edge
  weights (independent of any existing weight on that pair).
* **Deletions** — ``beta * |E_t|`` times: sample an existing edge
  proportional to its weight and decrement it by one unit.

The paper phrases insertion for bipartite graphs (``v' in V1``,
``u' in V2``); for general graphs we sample the source from all nodes with
positive out-degree and the destination from all nodes with positive
in-degree, which reduces to the paper's procedure on bipartite inputs.

Deletions are weight-proportional *with* depletion (an edge whose weight
reaches zero disappears and cannot be decremented again).  For integral
weights this is exactly a multivariate hypergeometric draw of weight units,
which we use directly; for fractional weights we fall back to a multinomial
draw against the initial weights with clamping — statistically
indistinguishable for unit decrements when weights exceed one.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import PerturbationError
from repro.graph.comm_graph import CommGraph, edges_in_build_order, rebuilt
from repro.types import NodeId


#: ``Generator.multivariate_hypergeometric`` refuses a draw over this many
#: units or more, so a heavier integral graph takes the multinomial draw.
_HYPERGEOMETRIC_UNITS = 10**9


def resolve_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def insert_random_edges(
    graph: CommGraph,
    count: int,
    rng: np.random.Generator | int | None = None,
) -> CommGraph:
    """Return ``graph`` with ``count`` randomly inserted/overwritten edges.

    Sources are drawn proportional to out-degree, destinations proportional
    to in-degree, and each sampled pair has its weight *assigned* from the
    empirical distribution of all original edge weights (the paper's
    procedure); an assigned edge moves to the end of both of its rows.
    Self-pairs are rejected and resampled.
    """
    if count < 0:
        raise PerturbationError(f"insertion count must be non-negative, got {count}")
    rng = resolve_rng(rng)
    edges = edges_in_build_order(graph)
    if count == 0:
        return rebuilt(graph, edges)

    nodes = graph.nodes()
    out_degrees = np.asarray([graph.out_degree(node) for node in nodes], dtype=float)
    in_degrees = np.asarray([graph.in_degree(node) for node in nodes], dtype=float)
    if out_degrees.sum() == 0 or in_degrees.sum() == 0:
        raise PerturbationError("cannot insert edges into a graph with no edges")
    source_probabilities = out_degrees / out_degrees.sum()
    destination_probabilities = in_degrees / in_degrees.sum()
    source_support = np.flatnonzero(source_probabilities)
    destination_support = np.flatnonzero(destination_probabilities)
    if source_support.size == 1 and np.array_equal(source_support, destination_support):
        raise PerturbationError(
            "the only samplable pair is a self-loop; cannot insert edges"
        )
    weight_pool = np.asarray(graph.edge_weights(), dtype=float)

    inserted = 0
    while inserted < count:
        batch = count - inserted
        sources = rng.choice(len(nodes), size=batch, p=source_probabilities)
        destinations = rng.choice(len(nodes), size=batch, p=destination_probabilities)
        weights = rng.choice(weight_pool, size=batch)
        for src_index, dst_index, weight in zip(sources, destinations, weights):
            if src_index == dst_index:
                continue  # reject self-pairs; the while loop resamples
            pair = (nodes[src_index], nodes[dst_index])
            edges.pop(pair, None)
            edges[pair] = float(weight)
            inserted += 1
            if inserted == count:
                break
    return rebuilt(graph, edges)


def delete_weight_units(
    graph: CommGraph,
    count: int,
    rng: np.random.Generator | int | None = None,
) -> CommGraph:
    """Return ``graph`` with ``count`` weight units deleted.

    Each unit is removed from an edge sampled proportional to its
    (remaining) weight; edges vanish when their weight hits zero.
    """
    if count < 0:
        raise PerturbationError(f"deletion count must be non-negative, got {count}")
    rng = resolve_rng(rng)
    remaining = edges_in_build_order(graph)
    if count == 0:
        return rebuilt(graph, remaining)

    edges: List[Tuple[NodeId, NodeId, float]] = list(graph.edges())
    if not edges:
        raise PerturbationError("cannot delete from a graph with no edges")
    weights = np.asarray([weight for _, _, weight in edges], dtype=float)
    total_units = weights.sum()
    effective = min(count, int(np.floor(total_units)))

    integral = np.allclose(weights, np.round(weights))
    if integral and total_units < _HYPERGEOMETRIC_UNITS:
        # Exact: deleting weight units without replacement is a multivariate
        # hypergeometric draw over the per-edge unit counts.
        unit_counts = np.round(weights).astype(np.int64)
        effective = min(effective, int(unit_counts.sum()))
        removals = rng.multivariate_hypergeometric(
            unit_counts, effective, method="marginals"
        )
    else:
        # Approximate: multinomial against initial weights, clamped.
        probabilities = weights / weights.sum()
        removals = rng.multinomial(effective, probabilities)
        removals = np.minimum(removals, np.floor(weights).astype(np.int64))

    for (src, dst, weight), removed in zip(edges, removals):
        if removed > 0:
            if weight - float(removed) > 0:
                remaining[src, dst] = weight - float(removed)
            else:
                del remaining[src, dst]
    return rebuilt(graph, remaining)


def perturb_graph(
    graph: CommGraph,
    alpha: float = 0.1,
    beta: float = 0.1,
    rng: np.random.Generator | int | None = None,
) -> CommGraph:
    """Apply the paper's full perturbation: insert then delete.

    ``alpha`` and ``beta`` are the insertion/deletion intensities relative
    to ``|E_t|`` (the paper evaluates ``alpha = beta in {0.1, 0.4}``).
    """
    if alpha < 0 or beta < 0:
        raise PerturbationError(f"alpha and beta must be non-negative, got {alpha}, {beta}")
    rng = resolve_rng(rng)
    num_edges = graph.num_edges
    inserted = insert_random_edges(graph, round(alpha * num_edges), rng)
    return delete_weight_units(inserted, round(beta * num_edges), rng)
