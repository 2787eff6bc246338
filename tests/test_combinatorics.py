"""Unit tests for the exact count-vector arithmetic of the kernel layer.

Binomial rows, convolution and the Shapley weight table of
:mod:`repro.util.kernels`, and the vector difference of the engine's OR
step, on small hand-checked inputs.  ``tests/test_kernels.py`` holds the
Hypothesis references.
"""

from fractions import Fraction
from math import comb, factorial

import pytest

from repro.engine.bundles import _subtract_vectors
from repro.util.kernels import (
    binomial_row,
    convolve,
    convolve_many,
    reduced_shapley_weights,
)


class TestBinomial:
    def test_matches_math_comb(self):
        for n in range(8):
            for k in range(n + 1):
                assert binomial_row(n)[k] == comb(n, k)

    def test_vector(self):
        assert binomial_row(3) == [1, 3, 3, 1]
        assert binomial_row(0) == [1]

    def test_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial_row(-1)


class TestConvolve:
    def test_polynomial_product(self):
        assert convolve([1, 1], [1, 1]) == [1, 2, 1]
        assert convolve([1, 2], [3]) == [3, 6]

    def test_binomial_identity(self):
        # Vandermonde: C(m+n, k) = sum_j C(m, j) C(n, k-j).
        assert convolve(binomial_row(3), binomial_row(4)) == binomial_row(7)

    def test_empty(self):
        assert convolve([], [1, 2]) == []

    def test_many_identity(self):
        assert convolve_many([]) == [1]
        assert convolve_many([[1, 1], [1, 1], [1, 1]]) == [1, 3, 3, 1]


class TestSubtract:
    def test_same_length(self):
        assert _subtract_vectors([3, 2, 1], [1, 1, 1]) == [2, 1, 0]

    def test_padding(self):
        assert _subtract_vectors([3, 2], [1, 1, 1]) == [2, 1, -1]
        assert _subtract_vectors([3, 2, 5], [1]) == [2, 2, 5]


class TestShapleyCoefficient:
    def test_closed_form(self):
        for n in range(1, 7):
            weights, denominator = reduced_shapley_weights(n)
            for k in range(n):
                expected = Fraction(
                    factorial(k) * factorial(n - k - 1), factorial(n)
                )
                assert Fraction(weights[k], denominator) == expected

    def test_coefficients_sum_to_one_over_positions(self):
        # Summing the coefficient over all subsets of each size gives 1:
        # sum_k C(n-1, k) * k!(n-k-1)!/n! = sum_k 1/n = 1.
        for n in range(1, 8):
            weights, denominator = reduced_shapley_weights(n)
            total = sum(comb(n - 1, k) * weights[k] for k in range(n))
            assert total == denominator

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            reduced_shapley_weights(0)
        with pytest.raises(ValueError):
            reduced_shapley_weights(-1)
