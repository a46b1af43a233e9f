"""Unit tests for the exact nearest-neighbour signature index."""

import numpy as np

import pytest

from repro.core.distances import dist_jaccard, get_distance
from repro.core.packed import SignaturePack
from repro.core.signature import Signature
from repro.exceptions import MatchingError
from repro.matching.index import SignatureIndex


def sig(owner, *members):
    return Signature(owner, {member: 1.0 for member in members})


@pytest.fixture
def index():
    return SignatureIndex(
        [
            sig("v1", "a", "b", "c"),
            sig("v2", "a", "b", "d"),
            sig("v3", "x", "y", "z"),
        ],
        dist_jaccard,
    )


class TestStorage:
    def test_add_and_get(self, index):
        assert len(index) == 3
        assert "v1" in index
        assert index.get("v1").nodes == {"a", "b", "c"}

    def test_get_missing_raises(self, index):
        with pytest.raises(MatchingError):
            index.get("ghost")

    def test_mapping_and_pack_inputs(self, index):
        signatures = {owner: index.get(owner) for owner in index.owners()}
        for source in (signatures, SignaturePack.from_signatures(signatures)):
            other = SignatureIndex(source, "jaccard")
            assert other.owners() == ["v1", "v2", "v3"]
            probe = sig("probe", "a", "x")
            assert other.query(probe, k=3) == index.query(probe, k=3)

    def test_owners(self, index):
        assert set(index.owners()) == {"v1", "v2", "v3"}


class TestQuery:
    def test_nearest_neighbour(self, index):
        results = index.query(sig("v1", "a", "b", "c"), k=1)
        assert results[0][0] == "v2"  # self excluded, v2 shares {a, b}

    def test_include_self(self, index):
        results = index.query(sig("v1", "a", "b", "c"), k=1, exclude_self=False)
        assert results[0] == ("v1", 0.0)

    def test_k_larger_than_index(self, index):
        results = index.query(sig("probe", "a"), k=10)
        assert len(results) == 3

    def test_results_sorted(self, index):
        results = index.query(sig("probe", "a", "b"), k=3)
        distances = [distance for _owner, distance in results]
        assert distances == sorted(distances)

    def test_ties_ordered_by_str_owner(self):
        idx = SignatureIndex(
            [sig(owner, "x", "y") for owner in ("c", 10, "b", 2)], dist_jaccard
        )
        results = idx.query(sig("probe", "x"), k=4)
        assert [owner for owner, _d in results] == [10, 2, "b", "c"]
        assert len({distance for _owner, distance in results}) == 1

    def test_distances_equal_the_scalar_bytes(self):
        rng = np.random.default_rng(3)
        members = [f"m{i}" for i in range(12)]
        stored = [
            Signature(
                f"v{i}",
                {m: float(rng.uniform(0.1, 9.0)) for m in rng.choice(members, 5, replace=False)},
            )
            for i in range(20)
        ]
        probe = stored[4]
        for metric in ("jaccard", "dice", "sdice", "shel"):
            function = get_distance(metric)
            results = SignatureIndex(stored, metric).query(probe, k=20, exclude_self=False)
            assert {owner: d for owner, d in results} == {
                other.owner: function(probe, other) for other in stored
            }

    def test_invalid_k(self, index):
        with pytest.raises(MatchingError):
            index.query(sig("probe", "a"), k=0)


class TestPairsWithin:
    def test_finds_similar_pair_only(self, index):
        pairs = index.pairs_within(0.6)
        assert [(first, second) for first, second, _d in pairs] == [("v1", "v2")]

    def test_threshold_one_returns_all_non_disjoint(self, index):
        pairs = index.pairs_within(1.0)
        assert len(pairs) == 1  # v3 is disjoint from both others (distance 1)

    def test_threshold_validation(self, index):
        with pytest.raises(MatchingError):
            index.pairs_within(1.5)

    def test_sorted_by_distance(self):
        idx = SignatureIndex(
            [
                sig("a", "1", "2"),
                sig("b", "1", "2"),
                sig("c", "1", "3"),
            ],
            dist_jaccard,
        )
        pairs = idx.pairs_within(1.0)
        distances = [d for _x, _y, d in pairs]
        assert distances == sorted(distances)
        assert pairs[0][:2] == ("a", "b")
