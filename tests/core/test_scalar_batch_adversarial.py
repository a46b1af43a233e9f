"""Adversarial scalar-vs-batch agreement fixtures (clamp-masking audit).

Clamping to [0, 1] can silently mask kernel bugs: a numerator overflowing
to ``inf`` drives ``1 - num/den`` to ``-inf``, which a bare clamp reports
as a perfectly confident 0.0.  These fixtures push both distance paths
through the inputs where that happened (float extremes, duplicate
entries, empty rows) and assert (a) the two paths agree bit for bit, (b) the
``distance.out_of_range`` counters stay at zero on correct kernels and
fire when a result really escapes [0, 1].
"""

import math

import numpy as np
import pytest

from repro import obs
from repro.core.distances import (
    OUT_OF_RANGE_TOL,
    _clamp01,
    available_distances,
    dist_scaled_hellinger,
    finish,
    get_distance,
)
from repro.core.packed import (
    SignaturePack,
    cross_matrix,
    pair_distances,
    pairwise_matrix,
)
from repro.core.signature import Signature

DISTANCES = available_distances()

#: Signatures that historically broke one path but not the other.
ADVERSARIAL_WINDOW = [
    Signature("huge_a", {"x": 1e300, "y": 1e300}),
    Signature("huge_b", {"x": 1e300, "z": 1e300}),
    Signature("tiny_a", {"x": 1e-300, "y": 1e-300}),
    Signature("tiny_b", {"x": 1e-300, "z": 1e-300}),
    Signature("mixed", {"x": 1e300, "y": 1e-300}),
    Signature("empty", {}),
    Signature("plain", {"x": 2.0, "y": 3.0}),
]


def scalar_matrix(signatures, metric):
    function = get_distance(metric)
    return np.array(
        [[function(a, b) for b in signatures] for a in signatures]
    )


class TestScalarBatchAgreementAdversarial:
    @pytest.mark.parametrize("metric", DISTANCES)
    def test_extreme_window_agrees(self, metric):
        pack = SignaturePack.from_signatures(ADVERSARIAL_WINDOW)
        batch = pairwise_matrix(pack, metric)
        scalar = scalar_matrix(ADVERSARIAL_WINDOW, metric)
        assert np.all(np.isfinite(batch))
        assert np.all((batch >= 0.0) & (batch <= 1.0))
        assert batch.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("metric", DISTANCES)
    def test_cross_and_pair_kernels_agree(self, metric):
        pack = SignaturePack.from_signatures(ADVERSARIAL_WINDOW)
        full = cross_matrix(pack, pack, metric)
        n = len(ADVERSARIAL_WINDOW)
        rows_i, rows_j = np.triu_indices(n)
        pairs = pair_distances(pack, rows_i, rows_j, metric)
        assert pairs.tobytes() == full[rows_i, rows_j].tobytes()

    @pytest.mark.parametrize("metric", DISTANCES)
    def test_duplicate_owners_and_duplicate_weights(self, metric):
        # Duplicate owners are distinct rows; tied weights give equal
        # min-mass terms.
        window = [
            Signature("dup", {"a": 5.0, "b": 5.0}),
            Signature("dup", {"a": 5.0, "b": 5.0}),
            Signature("dup", {"a": 5.0, "c": 5.0}),
        ]
        pack = SignaturePack.from_signatures(window)
        assert pack.owners == ("dup", "dup", "dup")
        batch = pairwise_matrix(pack, metric)
        scalar = scalar_matrix(window, metric)
        assert batch.tobytes() == scalar.tobytes()
        assert batch[0, 1] == 0.0  # identical rows

    def test_no_out_of_range_on_correct_kernels(self):
        registry = obs.MetricsRegistry()
        pack = SignaturePack.from_signatures(ADVERSARIAL_WINDOW)
        with obs.use_registry(registry):
            for metric in DISTANCES:
                pairwise_matrix(pack, metric)
                scalar_matrix(ADVERSARIAL_WINDOW, metric)
        assert registry.counter_total("distance.out_of_range") == 0


class TestSHelFloatExtremeRegression:
    """``sqrt(a * b)`` vs ``sqrt(a) * sqrt(b)``: the scalar SHel bug.

    Pre-fix, the product overflowed to ``inf`` for weights ~1e155+ (the
    clamp then masked the ``-inf`` distance as 0.0 for *any* overlap) and
    underflowed to 0 below ~1e-162 (reporting distance 1.0 for identical
    signatures).  Both assertions fail on the pre-fix code.
    """

    def test_identical_tiny_signatures_have_zero_distance(self):
        tiny_p = Signature("p", {"x": 1e-300, "y": 1e-300})
        tiny_q = Signature("q", {"x": 1e-300, "y": 1e-300})
        assert dist_scaled_hellinger(tiny_p, tiny_q) == pytest.approx(0.0, abs=1e-12)

    def test_huge_partial_overlap_not_masked_to_zero(self):
        huge_a = Signature("a", {"x": 1e300, "y": 1e300})
        huge_b = Signature("b", {"x": 1e300, "z": 1e300})
        # num = 1e300, min-mass = 1e300, total = 4e300 -> 1 - 1/3 = 2/3.
        assert dist_scaled_hellinger(huge_a, huge_b) == pytest.approx(2.0 / 3.0)

    def test_scalar_matches_batch_at_extremes(self):
        for scale in (1e-300, 1e-160, 1e155, 1e300):
            window = [
                Signature("a", {"x": scale, "y": scale}),
                Signature("b", {"x": scale, "z": scale}),
            ]
            pack = SignaturePack.from_signatures(window)
            batch = float(cross_matrix(pack, pack, "shel")[0, 1])
            scalar = dist_scaled_hellinger(window[0], window[1])
            assert math.isfinite(scalar)
            assert scalar == batch, scale


class TestOutOfRangeCounters:
    """The clamp guards themselves: round-off is silent, real bugs count."""

    def test_scalar_clamp_counts_real_excursions(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            assert _clamp01(-0.5) == 0.0
            assert _clamp01(1.5) == 1.0
        assert registry.counter_value("distance.out_of_range", path="scalar") == 2

    def test_scalar_clamp_silent_within_tolerance(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            assert _clamp01(-OUT_OF_RANGE_TOL / 2) == 0.0
            assert _clamp01(1.0 + OUT_OF_RANGE_TOL / 2) == 1.0
            assert _clamp01(0.25) == 0.25
        assert registry.counter_total("distance.out_of_range") == 0

    def test_batch_finish_counts_real_excursions(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            # num/den = 2 -> distance -1: one real excursion, clamped to 0.
            out = finish("dice", shared=np.array([2.0, 0.5]), total=np.array([1.0, 1.0]))
        assert out == pytest.approx([0.0, 0.5])
        assert registry.counter_value("distance.out_of_range", path="batch") == 1

    def test_batch_finish_silent_on_roundoff(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            out = finish(
                "dice", shared=np.array([1.0 + OUT_OF_RANGE_TOL / 10]), total=np.array([1.0])
            )
        assert out == pytest.approx([0.0])
        assert registry.counter_total("distance.out_of_range") == 0

    def test_counting_disabled_registry_costs_nothing(self):
        # Under the null registry the counters simply vanish.
        out = finish("dice", shared=np.array([2.0]), total=np.array([1.0]))
        assert out == pytest.approx([0.0])
        assert obs.NULL_REGISTRY.counter_total("distance.out_of_range") == 0
