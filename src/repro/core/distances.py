"""Signature distance functions (Section IV-B of the paper).

Given signatures ``sigma_1, sigma_2`` with member sets ``S_1, S_2`` and
weights ``w_1j, w_2j`` (zero for non-members), the four distances are

.. math::

    \\mathrm{Dist_{Jac}} &= 1 - \\frac{|S_1 \\cap S_2|}{|S_1 \\cup S_2|} \\\\
    \\mathrm{Dist_{Dice}} &= 1 - \\frac{\\sum_{j \\in S_1 \\cap S_2} (w_{1j} + w_{2j})}
                                      {\\sum_{j \\in S_1 \\cup S_2} (w_{1j} + w_{2j})} \\\\
    \\mathrm{Dist_{SDice}} &= 1 - \\frac{\\sum_{j \\in S_1 \\cap S_2} \\min(w_{1j}, w_{2j})}
                                       {\\sum_{j \\in S_1 \\cup S_2} \\max(w_{1j}, w_{2j})} \\\\
    \\mathrm{Dist_{SHel}} &= 1 - \\frac{\\sum_{j \\in S_1 \\cap S_2} \\sqrt{w_{1j} w_{2j}}}
                                      {\\sum_{j \\in S_1 \\cup S_2} \\max(w_{1j}, w_{2j})}

All return values in ``[0, 1]``.  Two empty signatures are defined to have
distance 0 (they are indistinguishable); an empty vs. a non-empty signature
has distance 1.

Each distance has one arithmetic: every sum over shared members runs
sequentially from ``0.0`` in ``str(label)`` order, totals are
:func:`math.fsum` (:attr:`Signature.total_weight`), the max-over-union
denominator is ``total_1 + total_2 - sum_shared min`` (exact for
non-negative weights), and :func:`finish` turns the sums into the value.
The scalar functions below and the kernel in :mod:`repro.core.packed`
both follow it, so a distance has the same bytes on every path, in every
process and under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import obs
from repro.core.signature import Signature
from repro.exceptions import UnknownDistanceError
from repro.types import NodeId

#: A distance between two signatures, in [0, 1].
DistanceFunction = Callable[[Signature, Signature], float]

#: Excursions beyond [0, 1] larger than this are not round-off — they mean a
#: kernel bug that clamping would otherwise silently mask (counted via obs).
OUT_OF_RANGE_TOL = 1e-9


def _clamp01(value: float) -> float:
    """Guard against float round-off pushing a distance outside [0, 1].

    Round-off excursions (within ``OUT_OF_RANGE_TOL``) are clamped
    silently; anything larger is still clamped but counted on the active
    observability registry as ``distance.out_of_range{path=scalar}`` so a
    kernel bug cannot hide behind the clamp.
    """
    if value < 0.0:
        if value < -OUT_OF_RANGE_TOL:
            obs.counter("distance.out_of_range", path="scalar").inc()
        return 0.0
    if value > 1.0:
        if value > 1.0 + OUT_OF_RANGE_TOL:
            obs.counter("distance.out_of_range", path="scalar").inc()
        return 1.0
    return value


def finish(name: str, *, count=0, shared=0.0, min_mass=0.0, total=0.0, size=0):
    """The one ``[0, 1]`` finish of the registered distance ``name``.

    ``count`` is the number of shared members, ``shared`` the distance's
    own shared sum (Dice ``w_1 + w_2``, SHel ``sqrt(w_1) * sqrt(w_2)``),
    ``min_mass`` the shared sum of ``min(w_1, w_2)``, ``total`` the sum of
    both totals and ``size`` the sum of both sizes.  The value is
    ``1 - numerator / denominator``, clamped, and 0 when the denominator
    is 0 (both signatures empty).  Works on floats (the scalar functions)
    and elementwise on arrays (the batch kernel, whose excursions count as
    ``distance.out_of_range{path=batch}``), with the same IEEE operations.
    """
    if name == "jaccard":
        numerator, denominator = count, size - count
    elif name == "dice":
        numerator, denominator = shared, total
    elif name == "sdice":
        numerator, denominator = min_mass, total - min_mass
    else:
        numerator, denominator = shared, total - min_mass
    if isinstance(denominator, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(numerator, denominator)
        np.subtract(1.0, out, out=out)
        out[denominator == 0] = 0.0
        if obs.enabled():
            bad = np.count_nonzero((out < -OUT_OF_RANGE_TOL) | (out > 1.0 + OUT_OF_RANGE_TOL))
            if bad:
                obs.counter("distance.out_of_range", path="batch").inc(int(bad))
        return np.clip(out, 0.0, 1.0, out=out)
    if denominator == 0:
        return 0.0
    return _clamp01(1.0 - numerator / denominator)


def _shared_members(first: Signature, second: Signature) -> List[NodeId]:
    """The members of both signatures, in ``str(label)`` order."""
    return sorted(first.nodes & second.nodes, key=str)


def dist_jaccard(first: Signature, second: Signature) -> float:
    """Set-based Jaccard distance; ignores weights entirely."""
    return finish(
        "jaccard", count=len(first.nodes & second.nodes), size=len(first) + len(second)
    )


def dist_dice(first: Signature, second: Signature) -> float:
    """Weighted Dice distance: shared weight mass over total weight mass
    (the union mass is the two ``total_weight`` sums)."""
    shared = 0.0
    for node in _shared_members(first, second):
        shared += first.weight(node) + second.weight(node)
    return finish("dice", shared=shared, total=first.total_weight + second.total_weight)


def dist_scaled_dice(first: Signature, second: Signature) -> float:
    """Scaled Dice: min over intersection vs. max over union; it rewards
    signatures whose individual weights agree, the strictest of the four."""
    min_mass = 0.0
    for node in _shared_members(first, second):
        weight_a, weight_b = first.weight(node), second.weight(node)
        min_mass += weight_a if weight_a < weight_b else weight_b
    return finish(
        "sdice", min_mass=min_mass, total=first.total_weight + second.total_weight
    )


def dist_scaled_hellinger(first: Signature, second: Signature) -> float:
    """Hellinger-style variant: geometric mean over intersection vs. max
    over union; softens SDice's min-penalty (``sqrt(ab) >= min(a, b)``)."""
    shared = min_mass = 0.0
    for node in _shared_members(first, second):
        weight_a, weight_b = first.weight(node), second.weight(node)
        # sqrt(a) * sqrt(b), not sqrt(a * b): the product overflows to inf
        # for weights around 1e155+ and underflows to 0 below ~1e-162.
        shared += math.sqrt(weight_a) * math.sqrt(weight_b)
        min_mass += weight_a if weight_a < weight_b else weight_b
    return finish(
        "shel",
        shared=shared,
        min_mass=min_mass,
        total=first.total_weight + second.total_weight,
    )


_DISTANCES: Dict[str, DistanceFunction] = {
    "jaccard": dist_jaccard,
    "dice": dist_dice,
    "sdice": dist_scaled_dice,
    "shel": dist_scaled_hellinger,
}

#: Display names matching the paper's notation.
DISPLAY_NAMES: Dict[str, str] = {
    "jaccard": "Dist_Jac",
    "dice": "Dist_Dice",
    "sdice": "Dist_SDice",
    "shel": "Dist_SHel",
}


def available_distances() -> Tuple[str, ...]:
    """Names of all registered distance functions, in paper order."""
    return ("jaccard", "dice", "sdice", "shel")


def get_distance(name: str) -> DistanceFunction:
    """Look up a distance function by registry name."""
    if name not in _DISTANCES:
        raise UnknownDistanceError(name, available_distances())
    return _DISTANCES[name]


def distance_name(function: DistanceFunction) -> str | None:
    """Reverse registry lookup: the name of a registered distance function.

    Returns ``None`` for callables not in the registry (custom lambdas,
    wrapped functions...): the kernel entry points run those as a scalar
    loop.
    """
    for name, registered in _DISTANCES.items():
        if registered is function:
            return name
    return None


def resolve_distance(
    spec: "str | DistanceFunction",
) -> Tuple["str | None", DistanceFunction]:
    """Normalise a distance spec (name or callable) to ``(name, function)``.

    ``name`` is ``None`` when ``spec`` is an unregistered callable; the
    function is always usable as a scalar ``DistanceFunction``.
    """
    if isinstance(spec, str):
        return spec, get_distance(spec)
    return distance_name(spec), spec
