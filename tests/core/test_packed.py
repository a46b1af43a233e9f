"""Tests for the packed (CSR) signature representation and batch kernels."""

import random

import numpy as np
import pytest

from repro.core import packed
from repro.core.distances import available_distances, get_distance
from repro.core.packed import (
    BATCH_METRICS,
    SignaturePack,
    batch_disabled,
    batch_metric_name,
    cross_matrix,
    cross_pair_distances,
    pair_distances,
    pairwise_matrix,
)
from repro.core.signature import Signature
from repro.exceptions import DistanceError


def random_signatures(rng, count, max_k, vocab_size, empty_fraction=0.1):
    """A randomized window: mixed float/integer weights, some empties."""
    members = [f"m{i}" for i in range(vocab_size)]
    signatures = {}
    for i in range(count):
        owner = f"v{i}"
        if rng.random() < empty_fraction:
            signatures[owner] = Signature(owner, {})
            continue
        chosen = rng.sample(members, rng.randint(1, max_k))
        signatures[owner] = Signature(
            owner,
            {
                member: rng.uniform(0.01, 10.0)
                if rng.random() < 0.7
                else float(rng.randint(1, 5))
                for member in chosen
            },
        )
    return signatures


class TestSignaturePack:
    def test_pack_from_mapping_preserves_order(self):
        signatures = {
            "b": Signature("b", {"x": 2.0}),
            "a": Signature("a", {"y": 1.0}),
        }
        pack = SignaturePack.from_signatures(signatures)
        assert pack.owners == ("b", "a")
        assert len(pack) == 2

    def test_pack_order_selects_and_reorders(self):
        signatures = {
            "a": Signature("a", {"x": 1.0}),
            "b": Signature("b", {"y": 2.0}),
            "c": Signature("c", {"z": 3.0}),
        }
        pack = SignaturePack.from_signatures(signatures, order=["c", "a"])
        assert pack.owners == ("c", "a")
        assert pack.signatures == (signatures["c"], signatures["a"])

    def test_pack_missing_node_raises(self):
        with pytest.raises(DistanceError):
            SignaturePack.from_signatures({}, order=["ghost"])

    def test_pack_from_iterable(self):
        signatures = [Signature("a", {"x": 1.0}), Signature("b", {"x": 2.0, "y": 1.0})]
        pack = SignaturePack.from_signatures(signatures)
        assert pack.owners == ("a", "b")
        assert pack.matrix.shape == (2, 2)
        assert pack.totals == pytest.approx([1.0, 3.0])
        assert pack.sizes == pytest.approx([1.0, 2.0])

    def test_empty_pack(self):
        pack = SignaturePack.from_signatures({})
        assert len(pack) == 0
        assert pairwise_matrix(pack, "jaccard").shape == (0, 0)

    def test_all_empty_signatures(self):
        pack = SignaturePack.from_signatures(
            [Signature("a", {}), Signature("b", {})]
        )
        matrix = pairwise_matrix(pack, "sdice")
        assert np.array_equal(matrix, np.zeros((2, 2)))


class TestPackBuffers:
    """The pack's numeric footprint."""

    def test_nbytes_counts_numeric_payload(self):
        pack = SignaturePack.from_signatures(
            [Signature("a", {"x": 1.0, "y": 2.0}), Signature("b", {"x": 3.0})]
        )
        expected = (
            pack.matrix.data.nbytes
            + pack.matrix.indices.nbytes
            + pack.matrix.indptr.nbytes
            + pack.totals.nbytes
            + pack.sizes.nbytes
        )
        assert pack.nbytes == expected
        assert pack.nbytes > 0


@pytest.mark.parametrize("metric", available_distances())
class TestBatchScalarAgreement:
    """Property-style agreement: batch kernels vs. scalar loops, <= 1e-9."""

    def scalar_reference(self, signatures_a, signatures_b, metric):
        function = get_distance(metric)
        return np.array(
            [[function(a, b) for b in signatures_b] for a in signatures_a]
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairwise_matrix_agrees(self, metric, seed):
        rng = random.Random(seed)
        signatures = random_signatures(rng, 40, 8, 30)
        pack = SignaturePack.from_signatures(signatures)
        batch = pairwise_matrix(pack, metric)
        scalar = self.scalar_reference(pack.signatures, pack.signatures, metric)
        assert np.abs(batch - scalar).max() <= 1e-9

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cross_matrix_aligns_different_vocabularies(self, metric, seed):
        rng = random.Random(seed)
        pack_a = SignaturePack.from_signatures(random_signatures(rng, 25, 6, 20))
        pack_b = SignaturePack.from_signatures(random_signatures(rng, 30, 9, 45))
        batch = cross_matrix(pack_a, pack_b, metric)
        scalar = self.scalar_reference(pack_a.signatures, pack_b.signatures, metric)
        assert batch.shape == (25, 30)
        assert np.abs(batch - scalar).max() <= 1e-9

    def test_pair_distances_agree(self, metric):
        rng = random.Random(99)
        signatures = random_signatures(rng, 35, 7, 25)
        pack = SignaturePack.from_signatures(signatures)
        rows = [rng.randrange(35) for _ in range(300)]
        cols = [rng.randrange(35) for _ in range(300)]
        batch = pair_distances(pack, rows, cols, metric)
        function = get_distance(metric)
        scalar = np.array(
            [
                function(pack.signatures[i], pack.signatures[j])
                for i, j in zip(rows, cols)
            ]
        )
        assert np.abs(batch - scalar).max() <= 1e-9

    def test_cross_pair_distances_agree(self, metric):
        rng = random.Random(17)
        pack_a = SignaturePack.from_signatures(random_signatures(rng, 20, 5, 18))
        pack_b = SignaturePack.from_signatures(random_signatures(rng, 22, 6, 26))
        rows = [rng.randrange(20) for _ in range(150)]
        cols = [rng.randrange(22) for _ in range(150)]
        batch = cross_pair_distances(pack_a, pack_b, rows, cols, metric)
        function = get_distance(metric)
        scalar = np.array(
            [
                function(pack_a.signatures[i], pack_b.signatures[j])
                for i, j in zip(rows, cols)
            ]
        )
        assert np.abs(batch - scalar).max() <= 1e-9

    def test_exact_cases_bit_identical(self, metric):
        pack = SignaturePack.from_signatures(
            [
                Signature("e1", {}),
                Signature("e2", {}),
                Signature("d1", {"x": 1.5}),
                Signature("d2", {"y": 2.5}),
            ]
        )
        matrix = pairwise_matrix(pack, metric)
        assert matrix[0, 1] == 0.0  # empty vs empty
        assert matrix[0, 2] == 1.0  # empty vs non-empty
        assert matrix[2, 3] == 1.0  # disjoint supports


class TestDispatch:
    def test_batch_metric_name_for_registered(self):
        assert batch_metric_name("sdice") == "sdice"
        assert batch_metric_name(get_distance("shel")) == "shel"
        assert set(BATCH_METRICS) == set(available_distances())

    def test_unregistered_callable_falls_back_to_scalar(self):
        def half_jaccard(first, second):
            return 0.5 * get_distance("jaccard")(first, second)

        assert batch_metric_name(half_jaccard) is None
        rng = random.Random(5)
        pack = SignaturePack.from_signatures(random_signatures(rng, 12, 4, 10))
        matrix = pairwise_matrix(pack, half_jaccard)
        expected = np.array(
            [[half_jaccard(a, b) for b in pack.signatures] for a in pack.signatures]
        )
        # The fallback runs the callable itself: bit-identical, not approx.
        assert np.array_equal(matrix, expected)

    def test_batch_disabled_forces_scalar_path(self):
        rng = random.Random(6)
        pack = SignaturePack.from_signatures(random_signatures(rng, 15, 5, 12))
        with batch_disabled():
            assert batch_metric_name("jaccard") is None
            scalar = pairwise_matrix(pack, "jaccard")
        assert batch_metric_name("jaccard") == "jaccard"
        batch = pairwise_matrix(pack, "jaccard")
        # Jaccard is integer-ratio arithmetic on both paths: bit-identical.
        assert np.array_equal(scalar, batch)

    def test_pair_index_length_mismatch(self):
        pack = SignaturePack.from_signatures([Signature("a", {"x": 1.0})])
        with pytest.raises(DistanceError):
            pair_distances(pack, [0, 0], [0], "jaccard")

    def test_unknown_metric_name_raises(self):
        pack = SignaturePack.from_signatures([Signature("a", {"x": 1.0})])
        with pytest.raises(Exception):
            pairwise_matrix(pack, "euclid")


class TestThresholdExpansion:
    def test_min_mass_matches_bruteforce(self):
        rng = random.Random(11)
        pack = SignaturePack.from_signatures(random_signatures(rng, 20, 6, 15))
        minimum = packed._min_mass_matrix(pack.matrix, pack.matrix)
        dense = pack.matrix.toarray()
        expected = np.minimum(dense[:, None, :], dense[None, :, :]).sum(axis=-1)
        assert np.abs(minimum - expected).max() <= 1e-9

    def test_min_mass_cross_block(self):
        rng = random.Random(12)
        pack_a = SignaturePack.from_signatures(random_signatures(rng, 9, 5, 12))
        pack_b = SignaturePack.from_signatures(random_signatures(rng, 7, 5, 12))
        matrix_a, matrix_b = packed._aligned_matrices(pack_a, pack_b)
        minimum = packed._min_mass_matrix(matrix_a, matrix_b)
        dense_a, dense_b = matrix_a.toarray(), matrix_b.toarray()
        expected = np.minimum(dense_a[:, None, :], dense_b[None, :, :]).sum(axis=-1)
        assert np.abs(minimum - expected).max() <= 1e-9

    def test_duplicate_weights_in_column(self):
        pack = SignaturePack.from_signatures(
            [
                Signature("a", {"x": 2.0, "y": 1.0}),
                Signature("b", {"x": 2.0}),
                Signature("c", {"x": 2.0, "y": 3.0}),
            ]
        )
        minimum = packed._min_mass_matrix(pack.matrix, pack.matrix)
        dense = pack.matrix.toarray()
        expected = np.minimum(dense[:, None, :], dense[None, :, :]).sum(axis=-1)
        assert np.abs(minimum - expected).max() <= 1e-12
