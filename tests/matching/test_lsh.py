"""Unit tests for the LSH banding index and the approximate signature index."""

import pytest

from repro.core.distances import dist_jaccard
from repro.core.signature import Signature
from repro.exceptions import MatchingError
from repro.matching.lsh import ApproxSignatureIndex, LshIndex
from repro.matching.minhash import MinHasher


def sig(owner, *members):
    return Signature(owner, {member: 1.0 for member in members})


class TestLshIndex:
    def test_parameter_validation(self):
        with pytest.raises(MatchingError):
            LshIndex(bands=0)
        with pytest.raises(MatchingError):
            LshIndex(rows_per_band=0)

    def test_sketch_length_enforced(self):
        index = LshIndex(bands=4, rows_per_band=4)
        hasher = MinHasher(num_hashes=8)
        with pytest.raises(MatchingError):
            index.add("x", hasher.sketch({"a"}))

    def test_identical_sets_always_candidates(self):
        index = LshIndex(bands=4, rows_per_band=4)
        hasher = MinHasher(num_hashes=16, seed=0)
        index.add("v1", hasher.sketch({"a", "b", "c"}))
        candidates = index.candidates(hasher.sketch({"a", "b", "c"}))
        assert "v1" in candidates

    def test_exclude(self):
        index = LshIndex(bands=4, rows_per_band=2)
        hasher = MinHasher(num_hashes=8, seed=0)
        index.add("v1", hasher.sketch({"a"}))
        assert index.candidates(hasher.sketch({"a"}), exclude="v1") == set()

    def test_disjoint_sets_rarely_candidates(self):
        index = LshIndex(bands=4, rows_per_band=8)
        hasher = MinHasher(num_hashes=32, seed=0)
        index.add("v1", hasher.sketch({f"a-{i}" for i in range(20)}))
        candidates = index.candidates(hasher.sketch({f"b-{i}" for i in range(20)}))
        assert "v1" not in candidates

    def test_candidate_probability_scurve(self):
        index = LshIndex(bands=16, rows_per_band=4)
        low = index.candidate_probability(0.1)
        mid = index.candidate_probability(0.5)
        high = index.candidate_probability(0.9)
        assert low < mid < high
        assert index.candidate_probability(0.0) == 0.0
        assert index.candidate_probability(1.0) == 1.0
        with pytest.raises(MatchingError):
            index.candidate_probability(1.5)

    def test_len(self):
        index = LshIndex(bands=2, rows_per_band=2)
        hasher = MinHasher(num_hashes=4, seed=0)
        index.add("a", hasher.sketch({"x"}))
        index.add("b", hasher.sketch({"y"}))
        assert len(index) == 2

    def test_readd_drops_old_bands(self):
        index = LshIndex(bands=4, rows_per_band=8)
        hasher = MinHasher(num_hashes=32, seed=0)
        old = hasher.sketch({f"a-{i}" for i in range(20)})
        new = hasher.sketch({f"b-{i}" for i in range(20)})
        index.add("k", old)
        index.add("k", new)
        assert "k" not in index.candidates(old)
        assert "k" in index.candidates(new)
        assert len(index) == 1


class TestApproxSignatureIndex:
    def test_query_finds_identical_signature(self):
        index = ApproxSignatureIndex(bands=8, rows_per_band=4)
        index.add_all([sig("v1", "a", "b"), sig("v2", "x", "y")])
        results = index.query(sig("probe", "a", "b"), k=1)
        assert results and results[0][0] == "v1"
        assert results[0][1] == 0.0

    def test_self_exclusion(self):
        index = ApproxSignatureIndex(bands=8, rows_per_band=4)
        index.add(sig("v1", "a", "b"))
        assert index.query(sig("v1", "a", "b"), k=1) == []

    def test_distances_are_exact(self):
        index = ApproxSignatureIndex(bands=8, rows_per_band=2)
        stored = sig("v1", "a", "b", "c")
        index.add(stored)
        probe = sig("probe", "a", "b", "d")
        results = index.query(probe, k=1)
        if results:  # candidate generation is probabilistic
            assert results[0][1] == pytest.approx(dist_jaccard(probe, stored))

    def test_invalid_k(self):
        index = ApproxSignatureIndex()
        with pytest.raises(MatchingError):
            index.query(sig("probe", "a"), k=0)

    def test_len(self):
        index = ApproxSignatureIndex()
        index.add(sig("v1", "a"))
        assert len(index) == 1

    def test_readd_replaces_signature(self):
        """``add`` is insert-or-replace, as for the exact ``SignatureIndex``."""
        index = ApproxSignatureIndex(bands=4, rows_per_band=8)
        before = sig("k", *(f"a-{i}" for i in range(20)))
        index.add(before)
        index.add(sig("k", *(f"b-{i}" for i in range(20))))
        assert index.query(sig("probe", *before.nodes), k=1) == []

    def test_high_recall_on_alias_population(self, tiny_enterprise):
        """Integration: near-duplicate alias signatures are recovered."""
        from repro.core.scheme import create_scheme

        graph = tiny_enterprise.graphs[0]
        signatures = create_scheme("tt", k=10).compute_all(
            graph, tiny_enterprise.local_hosts
        )
        exact = {}
        for host, signature in signatures.items():
            best, best_distance = None, 2.0
            for other, other_signature in signatures.items():
                if other == host:
                    continue
                distance = dist_jaccard(signature, other_signature)
                if distance < best_distance:
                    best, best_distance = other, distance
            exact[host] = (best, best_distance)

        index = ApproxSignatureIndex(bands=64, rows_per_band=2)
        index.add_all(signatures.values())
        hits = 0
        evaluated = 0
        for host, (truth, truth_distance) in exact.items():
            if truth_distance > 0.6:
                continue  # only near-duplicates are LSH's contract
            evaluated += 1
            results = index.query(signatures[host], k=1)
            if results and abs(results[0][1] - truth_distance) < 1e-12:
                hits += 1
        assert evaluated > 0
        assert hits / evaluated > 0.8
