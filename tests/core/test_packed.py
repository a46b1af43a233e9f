"""Tests for the packed (CSR) signature representation and batch kernels."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distances import available_distances, get_distance
from repro.core.packed import (
    SignaturePack,
    cross_matrix,
    cross_pair_distances,
    pair_distances,
    pairwise_matrix,
    signature_distances,
    top_k_pack,
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
        assert (len(pack.indptr) - 1, len(pack.node_table)) == (2, 2)
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


def same_fields(pack, other):
    return (
        pack.owners == other.owners
        and pack.node_table == other.node_table
        and pack.indptr.tolist() == other.indptr.tolist()
        and pack.indices.tolist() == other.indices.tolist()
        and pack.data.tobytes() == other.data.tobytes()
    )


#: A node table whose ``str`` forms tie (``1`` and ``"1"``) and whose
#: order is neither ``str`` order nor type order.
TABLE = ["b", 1, "1", "a", 2.5, "10", 10, "x"]
#: Few distinct weights, so entries tie; zero is not a candidate.
RANK_WEIGHT = st.sampled_from([0.0, 1.0, 0.5, 2.0, 1 / 3, 1e-300])


def typed(labels):
    return [(label, type(label)) for label in labels]


class TestTopKPackRanksAsFromRelevance:
    """``top_k_pack``, the kernels' ranker, against
    ``Signature.from_relevance``, the per-owner one (rwr-push and the
    streaming builders): the same relevance gives the same pack, field
    for field.  A relevance dict lists its candidates in row order; the
    ranker gets what a kernel hands it, the positive entries other than
    the owner's own, in that order."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, len(TABLE)),  # the owner; len(TABLE) is absent
                st.lists(
                    st.tuples(st.integers(0, len(TABLE) - 1), RANK_WEIGHT),
                    max_size=len(TABLE),
                    unique_by=lambda entry: entry[0],
                ),
            ),
            max_size=5,
            unique_by=lambda row: row[0],
        ),
        k=st.integers(1, 5),
    )
    def test_same_pack_as_from_relevance(self, rows, k):
        # An absent owner has no row.
        rows = [(owner, entries if owner < len(TABLE) else []) for owner, entries in rows]
        owners = [TABLE[owner] if owner < len(TABLE) else "absent" for owner, _ in rows]
        columns = [
            (row, candidate, weight)
            for row, (owner, entries) in enumerate(rows)
            for candidate, weight in entries
            if weight > 0 and candidate != owner
        ]
        owner_of, candidate, weight = (
            np.array([column[index] for column in columns], dtype=dtype)
            for index, dtype in ((0, np.int64), (1, np.int64), (2, np.float64))
        )
        pack = top_k_pack(
            owners, owner_of, candidate, weight, lambda positions: [TABLE[p] for p in positions], k
        )
        reference = SignaturePack.from_signatures(
            {
                node: Signature.from_relevance(
                    node, {TABLE[candidate]: weight for candidate, weight in entries}, k
                )
                for node, (_, entries) in zip(owners, rows)
            }
        )
        assert typed(pack.owners) == typed(reference.owners)
        assert typed(pack.node_table) == typed(reference.node_table)
        assert pack.indptr.tolist() == reference.indptr.tolist()
        assert pack.indices.tolist() == reference.indices.tolist()
        assert pack.data.tobytes() == reference.data.tobytes()


class TestPackAsMapping:
    """A pack reads as ``owner -> Signature``, decoding a row per read."""

    def test_mapping_protocol_decodes_rows(self):
        signatures = random_signatures(random.Random(3), 20, 6, 15)
        pack = SignaturePack.from_signatures(signatures)
        assert list(pack) == list(signatures) and len(pack) == len(signatures)
        assert pack == signatures and dict(pack.items()) == signatures
        assert "v3" in pack and "ghost" not in pack
        assert pack.get("ghost") is None
        assert pack["v3"] == signatures["v3"] and pack["v3"] is not pack["v3"]
        assert pack.signatures == tuple(signatures.values())

    def test_repeated_owner_maps_to_its_first_row(self):
        pack = SignaturePack.from_signatures(
            [Signature("dup", {"a": 1.0}), Signature("dup", {"b": 2.0})]
        )
        assert pack["dup"] == Signature("dup", {"a": 1.0})
        assert pack.signatures[1] == Signature("dup", {"b": 2.0})

    def test_taking_rows_equals_packing_decoded_rows(self):
        signatures = random_signatures(random.Random(4), 30, 6, 20)
        pack = SignaturePack.from_signatures(signatures)
        order = random.Random(5).sample(list(signatures), 17)
        taken = SignaturePack.from_signatures(pack, order=order)
        assert same_fields(taken, SignaturePack.from_signatures(signatures, order=order))
        assert SignaturePack.from_signatures(pack) is pack
        with pytest.raises(DistanceError, match="ghost"):
            SignaturePack.from_signatures(pack, order=["ghost"])

    def test_concat_equals_one_pack_and_pickles(self):
        import pickle

        signatures = random_signatures(random.Random(6), 25, 6, 20)
        owners = list(signatures)
        parts = [
            SignaturePack.from_signatures({o: signatures[o] for o in owners[lo : lo + 7]})
            for lo in range(0, len(owners), 7)
        ]
        joined = SignaturePack.concat(parts)
        assert same_fields(joined, SignaturePack.from_signatures(signatures))
        assert same_fields(pickle.loads(pickle.dumps(joined)), joined)


class TestPackBuffers:
    """The pack's numeric footprint."""

    def test_nbytes_counts_numeric_payload(self):
        pack = SignaturePack.from_signatures(
            [Signature("a", {"x": 1.0, "y": 2.0}), Signature("b", {"x": 3.0})]
        )
        expected = (
            pack.data.nbytes
            + pack.indices.nbytes
            + pack.indptr.nbytes
            + pack.totals.nbytes
            + pack.sizes.nbytes
        )
        assert pack.nbytes == expected
        assert pack.nbytes > 0


@pytest.mark.parametrize("metric", available_distances())
class TestBatchScalarAgreement:
    """Property-style agreement: the batch kernel vs. the scalar functions,
    bit for bit."""

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
        assert batch.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_cross_matrix_aligns_different_vocabularies(self, metric, seed):
        rng = random.Random(seed)
        pack_a = SignaturePack.from_signatures(random_signatures(rng, 25, 6, 20))
        pack_b = SignaturePack.from_signatures(random_signatures(rng, 30, 9, 45))
        batch = cross_matrix(pack_a, pack_b, metric)
        scalar = self.scalar_reference(pack_a.signatures, pack_b.signatures, metric)
        assert batch.shape == (25, 30)
        assert batch.tobytes() == scalar.tobytes()

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
        assert batch.tobytes() == scalar.tobytes()

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
        assert batch.tobytes() == scalar.tobytes()

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
    def test_unregistered_callable_falls_back_to_scalar(self):
        def half_jaccard(first, second):
            return 0.5 * get_distance("jaccard")(first, second)

        rng = random.Random(5)
        pack = SignaturePack.from_signatures(random_signatures(rng, 12, 4, 10))
        matrix = pairwise_matrix(pack, half_jaccard)
        expected = np.array(
            [[half_jaccard(a, b) for b in pack.signatures] for a in pack.signatures]
        )
        # The fallback runs the callable itself: bit-identical, not approx.
        assert np.array_equal(matrix, expected)
        other = SignaturePack.from_signatures(random_signatures(rng, 7, 4, 10))
        cross = cross_matrix(pack, other, half_jaccard)
        assert np.array_equal(
            cross,
            [[half_jaccard(a, b) for b in other.signatures] for a in pack.signatures],
        )
        pairs = cross_pair_distances(pack, other, [0, 11, 3], [6, 0, 3], half_jaccard)
        assert pairs.tolist() == [cross[0, 6], cross[11, 0], cross[3, 3]]
        row = signature_distances(pack.signatures[2], other, half_jaccard)
        assert np.array_equal(row, cross[2])

    def test_pair_index_length_mismatch(self):
        pack = SignaturePack.from_signatures([Signature("a", {"x": 1.0})])
        with pytest.raises(DistanceError):
            pair_distances(pack, [0, 0], [0], "jaccard")

    def test_unknown_metric_name_raises(self):
        pack = SignaturePack.from_signatures([Signature("a", {"x": 1.0})])
        with pytest.raises(Exception):
            pairwise_matrix(pack, "euclid")
