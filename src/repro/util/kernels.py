"""The library's one exact-integer layer, under its ``Fraction`` surface.

Every exact result in the stack — serial, sharded, daemon-served,
delta-reused — bottoms out in two integer-arithmetic hot loops: count
vector convolution (:func:`convolve`) in the engine's forward pass, and
correlation (:func:`correlate`, its adjoint) in the backward pass that
turns Lemma 3.2 weight vectors into per-fact Shapley and Banzhaf
numerators.  This module makes both fast while keeping the public
rational API bit-identical:

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
* **One weight table.**  :func:`reduced_shapley_weights` is the one
  table of Shapley coalition weights, over their least common
  denominator ``lcm(1..n)`` rather than ``n!``, which keeps the
  engine's backward pass on integers of about ``1.44 n`` bits instead
  of ``log2 n!``; :func:`binomial_row` is the free-fact count vector.
  Both are built per call by exact recurrences, and nothing here is
  memoized process-wide, so a long-lived process holds no table of a
  player count it no longer serves.
* **Deferred rational assembly.**  :class:`ShapleyAccumulator`
  accumulates a player's weighted marginals as one integer over the
  table's denominator and normalizes to a single ``Fraction`` at the
  end — one gcd per player instead of one per coalition size.
  ``Fraction`` canonicalizes, so the result is bit-identical to the
  per-size ``Fraction`` multiply-add.

Every kernel is exact integer arithmetic; the Hypothesis suite
(``tests/test_kernels.py``) asserts each one equals ``schoolbook`` on
arbitrary vectors — including the negative entries a difference of
count vectors can hold — that the tables equal their
``math.factorial`` and ``math.comb`` forms, and that engine results are
bit-identical across kernels, executors, and the daemon.  Per-tier
counters of the convolutions that ran are process-wide
(:func:`kernel_stats`); each engine folds its requests' deltas into
``engine.stats["kernel"]``, which the daemon's ``metrics`` operation
reports.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt, prod
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
    common case is one multiply.  Signed inputs (any caller may pass
    them) split into positive/negative parts — four non-negative
    convolutions recombined exactly.
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
# Weight tables and deferred rational assembly
# ----------------------------------------------------------------------
def binomial_row(n: int) -> list[int]:
    """``[C(n, 0), ..., C(n, n)]`` — the count vector of ``n`` free facts.

    Built by the exact step ``C(n, k + 1) = C(n, k) * (n - k) / (k + 1)``
    over the first half, which ``C(n, k) == C(n, n - k)`` mirrors: one
    small multiply and divide per pair of entries instead of a ``comb``
    each.
    """
    if n < 0:
        raise ValueError("binomial_row requires n >= 0")
    row = [1] * (n + 1)
    for k in range(n // 2):
        row[k + 1] = row[n - 1 - k] = row[k] * (n - k) // (k + 1)
    return row


def reduced_shapley_weights(num_players: int) -> tuple[list[int], int]:
    """The Shapley coalition weights over their least common denominator.

    Returns ``(w, L)`` with ``L = lcm(1..n)`` and ``w[k] / L ==
    k!(n - 1 - k)! / n!``, the weight of a coalition of size ``k``.  The
    weights ``k!(n - 1 - k)!`` share the factor ``n! / L``, so ``w[k] ==
    L / (n * C(n - 1, k))``: about ``1.44 n`` bits each instead of
    ``log2 n!``.  The table is built by the exact step ``w[k + 1] = w[k] *
    (k + 1) / (n - 1 - k)`` (the ratio ``C(n - 1, k) / C(n - 1, k + 1)``)
    over the first half, which ``w[k] == w[n - 1 - k]`` mirrors, not a
    ``comb`` per entry.
    """
    if num_players <= 0:
        raise ValueError("reduced_shapley_weights requires at least one player")
    last = num_players - 1
    common = _lcm_through(num_players)
    weights = [common // num_players] * num_players
    for k in range(last // 2):
        weights[k + 1] = weights[last - 1 - k] = weights[k] * (k + 1) // (last - k)
    return weights, common


def _lcm_through(n: int) -> int:
    """``lcm(1..n)``: the product of ``p^floor(log_p n)`` over primes ``p <= n``.

    A sieve finds the primes.  Every prime enters once, in one C-level
    product, and each one up to ``sqrt(n)`` is then raised to its largest
    power ``<= n``.  This skips the pairwise gcds of ``math.lcm`` over
    the whole range, each against the growing result.
    """
    sieve = bytearray([0, 0]) + bytearray([1]) * max(n - 1, 0)
    root = isqrt(n)
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    common = prod(compress(range(n + 1), sieve))
    for p in compress(range(root + 1), sieve):
        power = p
        while power * p <= n:
            power *= p
        common *= power // p
    return common


class ShapleyAccumulator:
    """Deferred Fraction assembly of one player's Shapley value.

    Accumulates ``sum_k w[k] * marginal_k`` over the weights of
    :func:`reduced_shapley_weights` exactly — as a plain integer while
    every marginal is an integer, as a ``Fraction`` once a rational
    marginal arrives (generic games) — and divides by their denominator
    once at the end.  ``Fraction`` canonicalizes, so the result is
    bit-identical to the per-size ``Fraction`` multiply-add of
    ``k!(n-k-1)!/n!`` at a fraction of the gcd work.
    """

    __slots__ = ("_weights", "_denominator", "_total")

    def __init__(self, num_players: int) -> None:
        self._weights, self._denominator = reduced_shapley_weights(num_players)
        self._total: int | Fraction = 0

    def add(self, coalition_size: int, marginal: int | Fraction) -> None:
        """Fold in one coalition's marginal contribution at ``coalition_size``."""
        self._total += self._weights[coalition_size] * marginal

    def value(self) -> Fraction:
        """The assembled Shapley value, normalized exactly once."""
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
    "kernel_stats",
    "reduced_shapley_weights",
    "reset_kernel_stats",
    "tier_for_sizes",
]
