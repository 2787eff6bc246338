"""Exact combinatorics used by the Shapley algorithms.

All functions operate on plain Python integers (arbitrary precision) or
:class:`fractions.Fraction`, never floats: the paper's results (e.g. the
running-example value ``-3/28``) are rational numbers and the library
reproduces them exactly.

Count vectors
-------------
Several algorithms (notably the CntSat forward pass of
:mod:`repro.engine.bundles`) manipulate *count vectors*: a list ``c``
where ``c[k]`` is the number of ``k``-subsets of some fact set satisfying
a property.  Combining independent fact sets corresponds to polynomial
multiplication of their vectors, provided here as :func:`convolve` /
:func:`convolve_many`.

This module is the stable public façade; the heavy lifting lives in the
tiered kernel layer (:mod:`repro.util.kernels`): size-tiered convolution
(schoolbook / single-big-int limb packing, picked from the operand
sizes), balanced product trees, and memoized
factorial/binomial/Shapley-weight tables.  Every kernel is exact and
bit-identical to the schoolbook reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from repro.util import kernels


def binomial(n: int, k: int) -> int:
    """Binomial coefficient ``C(n, k)``, zero outside ``0 <= k <= n``."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def falling_factorial(n: int, k: int) -> int:
    """The product ``n * (n - 1) * ... * (n - k + 1)`` (``k`` terms)."""
    if k < 0:
        raise ValueError("falling_factorial requires k >= 0")
    result = 1
    for i in range(k):
        result *= n - i
    return result


def binomial_vector(n: int) -> list[int]:
    """Vector ``[C(n, 0), C(n, 1), ..., C(n, n)]``.

    This is the count vector of a set of ``n`` "free" facts: any ``k`` of
    them can be chosen without affecting query satisfaction.  Rows are
    memoized in the kernel layer; callers get a fresh list they may
    mutate freely.
    """
    if n < 0:
        raise ValueError("binomial_vector requires n >= 0")
    return list(kernels.binomial_row(n))


def convolve(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Polynomial (Cauchy) product of two count vectors.

    If ``left[i]`` counts ``i``-subsets of fact set ``A`` with property *P*
    and ``right[j]`` counts ``j``-subsets of a disjoint fact set ``B`` with
    property *Q*, the result counts ``k``-subsets of ``A ∪ B`` whose
    restriction to ``A`` has *P* and restriction to ``B`` has *Q*.

    Dispatches to the size-tiered exact kernels of
    :mod:`repro.util.kernels`, looked up on that module at each call;
    every tier returns bit-identical integers.
    """
    return kernels.convolve(left, right)


def convolve_many(vectors: Sequence[Sequence[int]]) -> list[int]:
    """Convolution of an arbitrary number of count vectors.

    The empty product is the multiplicative identity ``[1]`` (the count
    vector of the empty fact set).  Factors reduce through a balanced
    product tree (:func:`repro.util.kernels.convolve_many`), which keeps
    big-int operand sizes even — bit-identical to the sequential fold.
    """
    return kernels.convolve_many(vectors)


def subtract_vectors(left: Sequence[int], right: Sequence[int]) -> list[int]:
    """Element-wise ``left - right``, padding the shorter vector with zeros."""
    size = max(len(left), len(right))
    result = []
    for k in range(size):
        a = left[k] if k < len(left) else 0
        b = right[k] if k < len(right) else 0
        result.append(a - b)
    return result


def shapley_coefficient(num_players: int, coalition_size: int) -> Fraction:
    """Weight of a coalition in the subset form of the Shapley value.

    For a game with ``num_players`` players, a player joining a coalition of
    ``coalition_size`` other players receives weight
    ``coalition_size! * (num_players - coalition_size - 1)! / num_players!``.
    """
    if num_players <= 0:
        raise ValueError("shapley_coefficient requires at least one player")
    if not 0 <= coalition_size < num_players:
        raise ValueError(
            "coalition_size must lie in [0, num_players - 1], got "
            f"{coalition_size} for {num_players} players"
        )
    return kernels.shapley_coefficient_cached(num_players, coalition_size)
