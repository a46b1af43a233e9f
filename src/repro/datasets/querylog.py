"""Synthetic data-warehouse query logs (substitute for the paper's trace).

The paper's second dataset: 820K tuples of (userID, tableID) queries,
851 distinct users, 979 distinct tables, split into five windows, edge
weight = access count, signature length k = 3 ("half the average number
of tables a user accessed per period").

Analysts are extremely habitual — they query the same handful of tables in
every period — which is why the paper's Figure 3(b) shows near-perfect
AUCs for every scheme.  The generator models each user as a drift-free
profile over a small favourite-table set (mean ~6 tables, matching the
paper's "average number of tables per period" of about 2k = 6) with a
tiny noise rate, over a Zipf-popular global table universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.datasets.profiles import BehaviorProfile, zipf_weights
from repro.exceptions import DatasetError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import GraphBuilder
from repro.graph.windows import GraphSequence


@dataclass(frozen=True)
class QueryLogParams:
    """Knobs of the query-log generator (defaults mirror the paper's scale)."""

    num_users: int = 851
    num_tables: int = 979
    num_windows: int = 5
    tables_per_user: tuple = (4, 8)
    mean_queries: float = 190.0  # ~820K tuples / 851 users / 5 windows
    noise_share: float = 0.01
    zipf_exponent: float = 0.8
    activity_jitter: float = 0.3
    seed: int = 11

    def validate(self) -> None:
        if self.num_users < 2:
            raise DatasetError("need at least two users")
        if self.num_tables < self.tables_per_user[1]:
            raise DatasetError("tables_per_user upper bound exceeds num_tables")
        if self.num_windows < 2:
            raise DatasetError("need at least two windows to measure persistence")
        if not 0 <= self.noise_share < 1:
            raise DatasetError("noise_share must be in [0, 1)")


@dataclass
class QueryLogDataset:
    """A generated query-log dataset: windows plus the populations."""

    graphs: GraphSequence
    users: List[str]
    tables: List[str]
    params: QueryLogParams = field(repr=False, default_factory=QueryLogParams)


class QueryLogGenerator:
    """Seeded generator for :class:`QueryLogDataset`."""

    def __init__(self, params: QueryLogParams | None = None, **overrides) -> None:
        if params is None:
            params = QueryLogParams(**overrides)
        elif overrides:
            raise DatasetError("pass either a params object or keyword overrides, not both")
        params.validate()
        self.params = params

    def generate(self) -> QueryLogDataset:
        """Produce the full windowed dataset deterministically from the seed."""
        params = self.params
        rng = np.random.default_rng(params.seed)

        users = [f"user-{index:04d}" for index in range(params.num_users)]
        tables = [f"table-{index:04d}" for index in range(params.num_tables)]
        popularity = zipf_weights(params.num_tables, params.zipf_exponent)

        profiles: Dict[str, BehaviorProfile] = {}
        for user in users:
            pool_size = int(
                rng.integers(params.tables_per_user[0], params.tables_per_user[1] + 1)
            )
            pool_indices = rng.choice(
                params.num_tables, size=pool_size, replace=False, p=popularity
            )
            activity = float(
                params.mean_queries * rng.lognormal(mean=0.0, sigma=params.activity_jitter)
            )
            profiles[user] = BehaviorProfile(
                personal_pool=[tables[int(index)] for index in pool_indices],
                noise_share=params.noise_share,
                activity=activity,
                zipf_exponent=params.zipf_exponent,
            )

        windows: List[BipartiteGraph] = []
        for _ in range(params.num_windows):
            graph = GraphBuilder(bipartite=True)
            for user in users:
                graph.add_left_node(user)
            for user in users:
                counts = profiles[user].sample_window(rng, noise_universe=tables)
                for table, accesses in counts.items():
                    graph.add_edge(user, table, accesses)
            windows.append(graph.build())

        return QueryLogDataset(
            graphs=GraphSequence(graphs=list(windows)),
            users=users,
            tables=tables,
            params=params,
        )
