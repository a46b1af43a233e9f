"""Synthetic enterprise network flow data (substitute for the paper's trace).

The paper's trace: six weeks of TCP flow records from >300 monitored local
hosts to ~400K external IPs, aggregated into five-day windows; edge weight
= number of TCP sessions; signature length k = 10 ("half of the average
local host's out-degree").  Additional registration data mapped some users
to multiple IP addresses (the multiusage ground truth).

This generator reproduces the structure the paper's measurements exercise:

* bipartite local-host -> external-host windows with heavy-tailed weights;
* per-host latent profiles persisting (with slow drift) across windows;
* a small set of globally popular services contacted by most hosts (these
  create the high-in-degree nodes that hurt TT uniqueness and motivate UT);
* per-session noise contacts to one-off destinations (in-degree ~1 nodes
  that UT over-promotes, costing it persistence/robustness);
* ground-truth alias groups: some individuals operate several host labels
  that share one profile within the same window (the multiusage target).

The external universe defaults to 2 500 hosts instead of 400K purely for
laptop-scale runtime; every qualitative comparison in the paper depends on
degree/weight *shape*, not the raw universe size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.profiles import BehaviorProfile, zipf_weights
from repro.exceptions import DatasetError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import GraphBuilder
from repro.graph.windows import GraphSequence


@dataclass(frozen=True)
class EnterpriseParams:
    """Knobs of the enterprise flow generator (defaults mirror the paper's scale)."""

    num_hosts: int = 300
    num_external: int = 2500
    num_services: int = 15
    num_windows: int = 6
    personal_pool_size: int = 40
    services_per_host: Tuple[int, int] = (3, 8)
    mean_sessions: float = 45.0
    service_share: float = 0.25
    noise_share: float = 0.2
    zipf_exponent: float = 1.4
    pool_tail_fraction: float = 0.35
    rank_correlation: float = 0.25
    favorite_churn: float = 0.0
    drift: float = 0.25
    num_alias_users: int = 20
    aliases_per_user: Tuple[int, int] = (2, 3)
    activity_jitter: float = 0.2
    seed: int = 7

    def validate(self) -> None:
        if self.num_hosts < 2:
            raise DatasetError("need at least two hosts")
        if self.num_external < self.personal_pool_size:
            raise DatasetError("external universe smaller than a personal pool")
        if self.num_windows < 2:
            raise DatasetError("need at least two windows to measure persistence")
        if self.num_services < self.services_per_host[1]:
            raise DatasetError("services_per_host upper bound exceeds num_services")
        if self.aliases_per_user[0] < 2:
            raise DatasetError("alias users need at least two labels")
        if not 0 <= self.pool_tail_fraction <= 1:
            raise DatasetError("pool_tail_fraction must be in [0, 1]")
        if not 0 <= self.rank_correlation <= 1:
            raise DatasetError("rank_correlation must be in [0, 1]")
        if not 0 <= self.favorite_churn <= 1:
            raise DatasetError("favorite_churn must be in [0, 1]")
        max_alias_labels = self.num_alias_users * self.aliases_per_user[1]
        if max_alias_labels >= self.num_hosts:
            raise DatasetError("alias labels would exceed the host population")


@dataclass
class EnterpriseDataset:
    """A generated dataset: windows, host labels and multiusage ground truth."""

    graphs: GraphSequence
    local_hosts: List[str]
    alias_groups: Dict[str, List[str]]
    params: EnterpriseParams = field(repr=False, default_factory=EnterpriseParams)

    @property
    def aliased_hosts(self) -> List[str]:
        """All host labels belonging to some multiusage user."""
        return [host for hosts in self.alias_groups.values() for host in hosts]

    def positives_by_query(self) -> Dict[str, List[str]]:
        """Fig. 5 ground truth: each aliased host -> its sibling labels."""
        positives: Dict[str, List[str]] = {}
        for hosts in self.alias_groups.values():
            for host in hosts:
                positives[host] = [other for other in hosts if other != host]
        return positives


class EnterpriseFlowGenerator:
    """Seeded generator for :class:`EnterpriseDataset`."""

    def __init__(self, params: EnterpriseParams | None = None, **overrides) -> None:
        if params is None:
            params = EnterpriseParams(**overrides)
        elif overrides:
            raise DatasetError("pass either a params object or keyword overrides, not both")
        params.validate()
        self.params = params

    # ------------------------------------------------------------------
    def generate(self) -> EnterpriseDataset:
        """Produce the full windowed dataset deterministically from the seed."""
        params = self.params
        rng = np.random.default_rng(params.seed)

        external = [f"ext-{index:05d}" for index in range(params.num_external)]
        services = [f"svc-{index:03d}" for index in range(params.num_services)]
        hosts = [f"host-{index:04d}" for index in range(params.num_hosts)]

        # Personal pools are drawn from a head/tail mixture: a Zipf head of
        # globally popular destinations (CDNs, big sites — unrelated hosts
        # overlap there, which keeps identification non-trivial and gives
        # UT its high-in-degree nodes to discount) blended with a uniform
        # tail of obscure destinations (in-degree ~1-3 nodes that carry
        # each host's individuality and dominate UT signatures).
        head = zipf_weights(params.num_external, params.zipf_exponent * 1.6)
        uniform = np.full(params.num_external, 1.0 / params.num_external)
        popularity = (
            (1.0 - params.pool_tail_fraction) * head
            + params.pool_tail_fraction * uniform
        )

        user_labels, user_profiles = self._assign_users(
            rng, hosts, external, services, popularity
        )

        windows: List[BipartiteGraph] = []
        for _ in range(params.num_windows):
            windows.append(
                self._sample_window(rng, hosts, external, user_labels, user_profiles)
            )
            user_profiles = {
                user: profile.drifted(rng, self._drift_pool(rng, external, popularity), params.drift)
                for user, profile in user_profiles.items()
            }

        alias_groups = {
            user: labels for user, labels in user_labels.items() if len(labels) > 1
        }
        return EnterpriseDataset(
            graphs=GraphSequence(graphs=list(windows)),
            local_hosts=hosts,
            alias_groups=alias_groups,
            params=params,
        )

    # ------------------------------------------------------------------
    # Internal construction steps
    # ------------------------------------------------------------------
    def _assign_users(
        self,
        rng: np.random.Generator,
        hosts: List[str],
        external: List[str],
        services: List[str],
        popularity: np.ndarray,
    ) -> Tuple[Dict[str, List[str]], Dict[str, BehaviorProfile]]:
        """Partition host labels into individuals and draw one profile each."""
        params = self.params
        unassigned = list(hosts)
        user_labels: Dict[str, List[str]] = {}
        user_index = 0

        for _ in range(params.num_alias_users):
            count = int(
                rng.integers(params.aliases_per_user[0], params.aliases_per_user[1] + 1)
            )
            labels, unassigned = unassigned[:count], unassigned[count:]
            user_labels[f"user-{user_index:04d}"] = labels
            user_index += 1
        for label in unassigned:
            user_labels[f"user-{user_index:04d}"] = [label]
            user_index += 1

        user_profiles = {
            user: self._draw_profile(rng, external, services, popularity)
            for user in user_labels
        }
        return user_labels, user_profiles

    def _draw_profile(
        self,
        rng: np.random.Generator,
        external: List[str],
        services: List[str],
        popularity: np.ndarray,
    ) -> BehaviorProfile:
        params = self.params
        pool_indices = rng.choice(
            len(external), size=params.personal_pool_size, replace=False, p=popularity
        )
        # Order the pool by *noisy* global popularity (the external index is
        # the popularity rank).  `rank_correlation` interpolates between a
        # random shuffle (0: a host's favourites are idiosyncratic) and a
        # strict popularity sort (1: favourites are exactly the shared
        # popular sites).  Partial correlation reproduces both paper
        # findings at once: hosts ride heavy, *partly shared* destinations
        # (TT robust but not trivially unique) while rare tail destinations
        # carry light fragile weights (UT unique but fragile).
        rho = params.rank_correlation
        order_scores = (1.0 - rho) * rng.random(len(pool_indices)) + rho * (
            np.asarray(sorted(pool_indices), dtype=float) / max(1, params.num_external)
        )
        ranked = sorted(pool_indices)
        personal_pool = [
            external[int(ranked[position])] for position in np.argsort(order_scores)
        ]
        service_count = int(
            rng.integers(params.services_per_host[0], params.services_per_host[1] + 1)
        )
        service_indices = rng.choice(len(services), size=service_count, replace=False)
        service_pool = [services[int(index)] for index in service_indices]
        activity = float(
            params.mean_sessions
            * rng.lognormal(mean=0.0, sigma=params.activity_jitter)
        )
        return BehaviorProfile(
            personal_pool=personal_pool,
            service_pool=service_pool,
            service_share=params.service_share,
            noise_share=params.noise_share,
            activity=activity,
            zipf_exponent=params.zipf_exponent,
        )

    def _drift_pool(
        self,
        rng: np.random.Generator,
        external: List[str],
        popularity: np.ndarray,
    ) -> List[str]:
        """A popularity-weighted candidate pool for profile drift replacements."""
        size = min(len(external), 4 * self.params.personal_pool_size)
        indices = rng.choice(len(external), size=size, replace=False, p=popularity)
        return [external[int(index)] for index in indices]

    def _sample_window(
        self,
        rng: np.random.Generator,
        hosts: List[str],
        external: List[str],
        user_labels: Dict[str, List[str]],
        user_profiles: Dict[str, BehaviorProfile],
    ) -> BipartiteGraph:
        graph = GraphBuilder(bipartite=True)
        for host in hosts:
            graph.add_left_node(host)
        for user, labels in user_labels.items():
            # One window view per individual: favourites are partially
            # re-ranked within the (stable) pool.  All labels of the same
            # individual share the view, so aliased hosts stay mutually
            # consistent within the window while one-hop signatures churn
            # *across* windows — the movie-rental effect that gives
            # multi-hop schemes their cross-window advantage.
            profile = user_profiles[user].window_view(
                rng, self.params.favorite_churn
            )
            # A user's total activity is split across their labels, so an
            # aliased individual looks like several moderately active hosts
            # with near-identical signatures (the multiusage fingerprint).
            scale = 1.0 / len(labels)
            for label in labels:
                counts = profile.sample_window(
                    rng, noise_universe=external, activity_scale=scale
                )
                for destination, sessions in counts.items():
                    graph.add_edge(label, destination, sessions)
        return graph.build()
