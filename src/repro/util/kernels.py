"""Exact-integer kernels under the library's ``Fraction`` surface.

Every exact result in the stack — serial, sharded, daemon-served,
delta-reused — bottoms out in two integer-arithmetic hot loops: count
vector convolution (:func:`repro.util.combinatorics.convolve`) in the
engine's forward pass, and correlation (:func:`correlate`, its adjoint)
in the backward pass that turns Lemma 3.2 weight vectors into per-fact
Shapley and Banzhaf numerators.  This module makes both fast while
keeping the public rational API bit-identical:

* **Tiered convolution kernels.**  ``schoolbook`` is the classic
  O(n^2) multiply-add loop, unbeatable for short vectors; ``packed``
  is a single-big-int kernel (Kronecker substitution: each count is a
  fixed-width limb of one padded integer, so CPython's subquadratic
  big-int multiplication performs the whole convolution in one
  multiply).  :func:`convolve` picks a tier per call from the operand
  sizes (:func:`tier_for_sizes`), and that size rule is the only
  selector: tests force a tier by patching :data:`PACK_THRESHOLD`.
* **Short-output correlation.**  :func:`correlate` computes only the
  leading outputs a caller asks for, looping over whichever of output
  and kernel is shorter, so pulling a factorial-sized cotangent through
  a long count vector costs one C-level dot product per needed entry.
* **Balanced product trees.**  :func:`convolve_many` reduces a factor
  list pairwise in rounds instead of folding left, keeping operand
  sizes balanced — the shape under which the packed kernel's
  subquadratic multiply pays off most.
* **Shared weight tables.**  :func:`factorial_cached`,
  :func:`binomial_row` and :func:`shapley_weights` memoize the
  factorials, binomial vectors and Shapley coalition weights that the
  engine's assembly, the brute-force enumerations, and the generic game
  solvers previously recomputed per call site;
  :func:`reduced_shapley_weights` divides the weights and their ``n!``
  by their common factor, which keeps the engine's backward pass on
  integers of about ``1.44 n`` bits instead of ``log2 n!``.
* **Deferred rational assembly.**  :class:`ShapleyAccumulator`
  accumulates ``sum_k k!(n-k-1)! * marginal_k`` as one integer over the
  common denominator ``n!`` and normalizes to a single ``Fraction`` at
  the end — one gcd per fact instead of one per coalition size.
  ``Fraction`` canonicalizes, so the result is bit-identical to the
  historical per-size ``Fraction`` multiply-add.

Every kernel is exact integer arithmetic; the Hypothesis suite
(``tests/test_kernels.py``) asserts each one equals ``schoolbook`` on
arbitrary vectors — including the negative entries
:func:`repro.util.combinatorics.subtract_vectors` can produce — and that
engine results are bit-identical across kernels, executors, and the
daemon.  Per-tier counters of the convolutions that ran are
process-wide (:func:`kernel_stats`); each engine folds its requests'
deltas into ``engine.stats["kernel"]``, which the daemon's ``metrics``
operation reports.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import Sequence

from repro.obs import tracing as _tracing
from repro.obs.counters import Counters

#: Kernel tier names.
SCHOOLBOOK = "schoolbook"
PACKED = "packed"

#: Tier cutover: schoolbook wins below this ``len(a) * len(b)`` work
#: bound, the single-multiply packed kernel above it (measured crossover
#: is near 16x16 on CPython 3.11; 400 keeps a safety margin so
#: short-vector workloads never regress).  ``0`` runs every convolution
#: packed, ``math.inf`` every one schoolbook.
PACK_THRESHOLD = 400


#: Process-wide kernel accounting, who convolved and how often:
#: ``*_calls`` count executed pairwise convolutions per tier;
#: ``tree_products`` counts balanced multi-factor products.
KERNEL_COUNTERS = (
    "schoolbook_calls",
    "packed_calls",
    "tree_products",
)

_STATS = Counters(*KERNEL_COUNTERS)


def kernel_stats() -> Counters:
    """The live process-wide counters (mutating them is the hot path's job)."""
    return _STATS


def reset_kernel_stats() -> None:
    """Zero the process-wide counters (test isolation hook)."""
    global _STATS
    _STATS = Counters(*KERNEL_COUNTERS)


def active_kernel_name() -> str:
    """Always ``auto``: the size rule of :func:`tier_for_sizes` picks
    each convolution's tier (kept for benchmark host records)."""
    return "auto"


# ----------------------------------------------------------------------
# Pairwise convolution kernels
# ----------------------------------------------------------------------
def convolve_schoolbook(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """The O(n^2) multiply-add reference kernel (and short-vector tier)."""
    if not left or not right:
        return []
    result = [0] * (len(left) + len(right) - 1)
    for i, a in enumerate(left):
        if a == 0:
            continue
        for j, b in enumerate(right):
            if b:
                result[i + j] += a * b
    return result


def _pack(vector: Sequence[int], limb: int) -> int:
    """Non-negative limbs into one little-endian integer, ``limb`` bytes each."""
    return int.from_bytes(
        b"".join(value.to_bytes(limb, "little") for value in vector), "little"
    )


def _convolve_packed_nonneg(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Kronecker substitution over non-negative vectors: one big multiply.

    Each coefficient of the product is bounded by ``min(len(left),
    len(right)) * max(left) * max(right)``, so a limb width strictly
    above that bound makes the limbs of the product integer exactly the
    convolution — no carries ever cross a limb boundary.
    """
    n = len(left) + len(right) - 1
    max_left = max(left)
    max_right = max(right)
    if max_left == 0 or max_right == 0:
        return [0] * n
    bound = min(len(left), len(right)) * max_left * max_right
    limb = bound.bit_length() // 8 + 1
    product = _pack(left, limb) * _pack(right, limb)
    raw = product.to_bytes(n * limb, "little")
    return [
        int.from_bytes(raw[index * limb : (index + 1) * limb], "little")
        for index in range(n)
    ]


def convolve_packed(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """The single-big-int kernel, exact for arbitrary (signed) integers.

    Count vectors are non-negative on every real engine path, so the
    common case is one multiply.  Signed inputs (possible through the
    public :func:`repro.util.combinatorics.convolve` on
    ``subtract_vectors`` output) split into positive/negative parts —
    four non-negative convolutions recombined exactly.
    """
    if not left or not right:
        return []
    if min(left) >= 0 and min(right) >= 0:
        return _convolve_packed_nonneg(left, right)
    left_pos = [value if value > 0 else 0 for value in left]
    left_neg = [-value if value < 0 else 0 for value in left]
    right_pos = [value if value > 0 else 0 for value in right]
    right_neg = [-value if value < 0 else 0 for value in right]
    pos_pos = _convolve_packed_nonneg(left_pos, right_pos)
    neg_neg = _convolve_packed_nonneg(left_neg, right_neg)
    pos_neg = _convolve_packed_nonneg(left_pos, right_neg)
    neg_pos = _convolve_packed_nonneg(left_neg, right_pos)
    return [
        pos_pos[index] + neg_neg[index] - pos_neg[index] - neg_pos[index]
        for index in range(len(pos_pos))
    ]


def tier_for_sizes(left_size: int, right_size: int) -> str:
    """The tier for one pairwise convolution of these operand sizes."""
    if left_size * right_size < PACK_THRESHOLD:
        return SCHOOLBOOK
    return PACKED


def convolve(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Tiered pairwise convolution: the library-wide hot-path entry point."""
    if not left or not right:
        return []
    tier = tier_for_sizes(len(left), len(right))
    if _tracing.ACTIVE is not None:
        with _tracing.ACTIVE.span(
            "kernel.convolve", tier=tier, left=len(left), right=len(right)
        ):
            return _convolve_tier(left, right, tier)
    return _convolve_tier(left, right, tier)


def _convolve_tier(
    left: Sequence[int], right: Sequence[int], tier: str
) -> list[int]:
    if tier == SCHOOLBOOK:
        _STATS.schoolbook_calls += 1
        return convolve_schoolbook(left, right)
    _STATS.packed_calls += 1
    return convolve_packed(left, right)


def convolve_many(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Balanced product tree over a factor list (empty product = ``[1]``).

    Pairwise reduction in rounds keeps the operand sizes of every
    multiply balanced, which is where the packed kernel's subquadratic
    big-int multiplication beats the left fold's long-times-short chain.
    Convolution is associative over exact integers, so the result is
    bit-identical to the sequential fold.
    """
    if any(not vector for vector in vectors):
        # The historical fold semantics: one empty factor nulls the product.
        return []
    items: list[Sequence[int]] = [vector for vector in vectors]
    if not items:
        return [1]
    if len(items) > 1:
        _STATS.tree_products += 1
    while len(items) > 1:
        items = [
            convolve(items[index], items[index + 1])
            if index + 1 < len(items)
            else items[index]
            for index in range(0, len(items), 2)
        ]
    return list(items[0])


def correlate(
    coefficients: Sequence[int], kernel: Sequence[int], out_len: int
) -> list[int]:
    """The first ``out_len`` entries of the correlation of two vectors.

    ``result[i] == sum(coefficients[i + j] * kernel[j] for j in
    range(len(kernel)))``, with entries past the end of ``coefficients``
    counting as zero.  Correlation is the adjoint of convolution —
    ``<c, convolve(d, r)> == <correlate(c, r, len(d)), d>`` — which is
    how the engine's reverse-mode Lemma 3.2 pass pulls a cotangent back
    through a product factor (:mod:`repro.engine.bundles`).  Only the
    requested outputs are computed, looping over the shorter side: one
    C-level dot product per output when the output is short, one scaled
    slice per kernel entry when the kernel is.
    """
    if out_len < 0:
        raise ValueError("correlate requires out_len >= 0")
    if out_len <= len(kernel):
        width = len(kernel)
        return [
            sum(map(mul, coefficients[i : i + width], kernel)) for i in range(out_len)
        ]
    result = [0] * out_len
    for j, weight in enumerate(kernel):
        if weight:
            window = coefficients[j : j + out_len]
            result[: len(window)] = [a + weight * b for a, b in zip(result, window)]
    return result


# ----------------------------------------------------------------------
# Shared weight tables and deferred rational assembly
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def factorial_cached(n: int) -> int:
    """Memoized ``n!`` (the common Shapley denominator)."""
    return factorial(n)


@lru_cache(maxsize=4096)
def binomial_row(n: int) -> tuple[int, ...]:
    """Memoized ``(C(n, 0), ..., C(n, n))`` — the free-fact count vector.

    Built by the exact step ``C(n, k + 1) = C(n, k) * (n - k) / (k + 1)``:
    one small multiply and divide per entry instead of a ``comb`` each.
    """
    if n < 0:
        raise ValueError("binomial_row requires n >= 0")
    row = [1] * (n + 1)
    for k in range(n):
        row[k + 1] = row[k] * (n - k) // (k + 1)
    return tuple(row)


@lru_cache(maxsize=2048)
def shapley_weights(num_players: int) -> tuple[int, ...]:
    """Integer Shapley weight numerators over the denominator ``n!``.

    ``shapley_weights(n)[k] == k! * (n - k - 1)!`` — the coalition
    weight of size ``k`` times ``n!``, shared by every assembly loop in
    the library (engine results, brute force, generic games).
    """
    if num_players <= 0:
        raise ValueError("shapley_weights requires at least one player")
    facts = [1] * num_players
    for index in range(1, num_players):
        facts[index] = facts[index - 1] * index
    return tuple(
        facts[k] * facts[num_players - 1 - k] for k in range(num_players)
    )


@lru_cache(maxsize=2048)
def reduced_shapley_weights(num_players: int) -> tuple[tuple[int, ...], int]:
    """:func:`shapley_weights` divided by their gcd, and ``n!`` divided by it.

    The weights ``k!(n - 1 - k)!`` share the factor ``g = n! / lcm(1..n)``,
    so ``w_k / g == lcm(1..n) / (n * C(n - 1, k))`` and ``n! / g ==
    lcm(1..n)``: about ``1.44 n`` bits each instead of ``log2 n!``.
    Every Shapley value is the same ``Fraction`` over either table.  The
    table is built by the exact step ``w_{k+1} = w_k * (k + 1) / (n - 1 - k)``
    (the ratio ``C(n - 1, k) / C(n - 1, k + 1)``), not a ``comb`` per entry.
    """
    if num_players <= 0:
        raise ValueError("reduced_shapley_weights requires at least one player")
    common = lcm(*range(1, num_players + 1))
    weights = [common // num_players] * num_players
    for k in range(num_players - 1):
        weights[k + 1] = weights[k] * (k + 1) // (num_players - 1 - k)
    return tuple(weights), common


@lru_cache(maxsize=65536)
def shapley_coefficient_cached(num_players: int, coalition_size: int) -> Fraction:
    """Memoized ``k!(n-k-1)!/n!`` from the shared weight table."""
    return Fraction(
        shapley_weights(num_players)[coalition_size],
        factorial_cached(num_players),
    )


class ShapleyAccumulator:
    """Deferred Fraction assembly of one player's Shapley value.

    Accumulates ``sum_k k!(n-k-1)! * marginal_k`` exactly — as a plain
    integer while every marginal is an integer, promoting to ``Fraction``
    only if a rational marginal arrives (generic games) — and divides by
    ``n!`` once at the end.  ``Fraction`` canonicalizes, so the result
    is bit-identical to the historical per-size ``Fraction``
    multiply-add at a fraction of the gcd work.
    """

    __slots__ = ("_weights", "_denominator", "_total")

    def __init__(self, num_players: int) -> None:
        self._weights = shapley_weights(num_players)
        self._denominator = factorial_cached(num_players)
        self._total: int | Fraction = 0

    def add(self, coalition_size: int, marginal: int | Fraction) -> None:
        """Fold in one coalition's marginal contribution at ``coalition_size``."""
        self._total += self._weights[coalition_size] * marginal

    def value(self) -> Fraction:
        """The assembled Shapley value, normalized exactly once."""
        if isinstance(self._total, Fraction):
            return self._total / self._denominator
        return Fraction(self._total, self._denominator)


__all__ = [
    "KERNEL_COUNTERS",
    "PACKED",
    "PACK_THRESHOLD",
    "SCHOOLBOOK",
    "ShapleyAccumulator",
    "active_kernel_name",
    "binomial_row",
    "convolve",
    "convolve_many",
    "convolve_packed",
    "convolve_schoolbook",
    "correlate",
    "factorial_cached",
    "kernel_stats",
    "reduced_shapley_weights",
    "reset_kernel_stats",
    "shapley_coefficient_cached",
    "shapley_weights",
    "tier_for_sizes",
]
