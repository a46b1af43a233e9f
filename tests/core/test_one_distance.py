"""One distance implementation: every path gives the same bytes.

Each distance sums its shared-member terms sequentially in ``str(label)``
order, on the scalar functions and in the shared-term kernel, so the
scalar functions, :func:`pairwise_matrix`, :func:`cross_matrix`,
:func:`cross_pair_distances` and :func:`signature_distances` agree bit for
bit, in any process and under any ``PYTHONHASHSEED``.
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.distances import available_distances, get_distance
from repro.core.packed import (
    SignaturePack,
    cross_matrix,
    cross_pair_distances,
    pairwise_matrix,
    signature_distances,
)
from repro.core.properties import persistence_values
from repro.core.signature import Signature

#: The extreme window of ``test_scalar_batch_adversarial.py``.
ADVERSARIAL_ENTRIES = [
    {"x": 1e300, "y": 1e300},
    {"x": 1e300, "z": 1e300},
    {"x": 1e-300, "y": 1e-300},
    {"x": 1e-300, "z": 1e-300},
    {"x": 1e300, "y": 1e-300},
    {},
    {"x": 2.0, "y": 3.0},
]


def random_signatures(rng, count, size, vocab_size):
    """``count`` signatures of ``size`` members from ``vocab_size`` labels."""
    members = [f"m{i}" for i in range(vocab_size)]
    return {
        f"v{i}": Signature(
            f"v{i}", {member: rng.uniform(0.01, 10.0) for member in rng.sample(members, size)}
        )
        for i in range(count)
    }


DISTANCE_BYTES_SCRIPT = textwrap.dedent(
    """
    import hashlib, random
    import numpy as np
    from repro.core.distances import get_distance
    from repro.core.packed import SignaturePack, pairwise_matrix
    from repro.core.signature import Signature

    rng = random.Random(7)
    members = [f"peer{i}" for i in range(40)]
    signatures = [
        Signature(f"v{i}", {m: rng.uniform(0.01, 10.0) for m in rng.sample(members, 10)})
        for i in range(60)
    ]
    digest = hashlib.sha256()
    for name in ("dice", "sdice", "shel"):
        function = get_distance(name)
        for first in signatures:
            for second in signatures:
                digest.update(np.float64(function(first, second)).tobytes())
        digest.update(pairwise_matrix(SignaturePack.from_signatures(signatures), name).tobytes())
    print(digest.hexdigest())
    """
)


def distance_digest(hash_seed: str) -> str:
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join([source_root, *filter(None, [os.environ.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", DISTANCE_BYTES_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_distance_bytes_do_not_depend_on_the_hash_seed():
    assert distance_digest("1") == distance_digest("2")


@pytest.mark.parametrize("metric", available_distances())
def test_pairwise_matrix_is_bit_symmetric(metric):
    pack = SignaturePack.from_signatures(random_signatures(random.Random(8), 80, 10, 30))
    matrix = pairwise_matrix(pack, metric)
    assert matrix.tobytes() == np.ascontiguousarray(matrix.T).tobytes()


@pytest.mark.parametrize("metric", ["dice", "sdice", "shel"])
def test_persistence_of_a_node_alone_equals_inside_a_population(metric):
    rng = random.Random(9)
    now = random_signatures(rng, 60, 10, 25)
    later = {
        owner: Signature(owner, {m: w * rng.uniform(0.5, 2.0) for m, w in signature.entries})
        for owner, signature in now.items()
    }
    together = persistence_values(now, later, get_distance(metric))
    for node, value in together.items():
        alone = persistence_values(now, later, get_distance(metric), nodes=[node])
        assert np.float64(alone[node]).tobytes() == np.float64(value).tobytes(), node


# ----------------------------------------------------------------------
# Scalar == pairwise_matrix == cross_matrix == cross_pair_distances
# ----------------------------------------------------------------------
MEMBERS = [f"m{i}" for i in range(8)] + ["M", "m10", "_"]
WEIGHTS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-300, 1e-160, 1.0, 2.0, 3.0, 5.0, 0.1, 1e155, 1e300]),
)
windows = st.lists(
    st.dictionaries(st.sampled_from(MEMBERS), WEIGHTS, max_size=6),
    min_size=1,
    max_size=8,
)


def assert_one_implementation(signatures):
    pack = SignaturePack.from_signatures(signatures)
    count = len(signatures)
    rows, cols = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
    for metric in available_distances():
        function = get_distance(metric)
        scalar = np.array([[function(a, b) for b in signatures] for a in signatures])
        assert pairwise_matrix(pack, metric).tobytes() == scalar.tobytes(), metric
        assert cross_matrix(pack, pack, metric).tobytes() == scalar.tobytes(), metric
        pairs = cross_pair_distances(pack, pack, rows.ravel(), cols.ravel(), metric)
        assert pairs.tobytes() == scalar.ravel().tobytes(), metric
        for row, signature in enumerate(signatures):
            assert signature_distances(signature, pack, metric).tobytes() == scalar[row].tobytes()
        # Against a pack over another member table (first-seen order differs).
        reversed_pack = SignaturePack.from_signatures(signatures[::-1])
        assert cross_matrix(pack, reversed_pack, metric).tobytes() == scalar[:, ::-1].tobytes()
        pairs = cross_pair_distances(pack, reversed_pack, rows.ravel(), cols.ravel(), metric)
        assert pairs.tobytes() == scalar[:, ::-1].ravel().tobytes(), metric


@settings(max_examples=150, deadline=None)
@given(windows)
@example(ADVERSARIAL_ENTRIES)
@example([{"a": 5.0, "b": 5.0}, {"a": 5.0, "b": 5.0}, {"a": 5.0, "c": 5.0}])
def test_scalar_equals_every_kernel_path(entries):
    assert_one_implementation(
        [Signature(f"owner{i}", row) for i, row in enumerate(entries)]
    )
