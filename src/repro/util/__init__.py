"""Small self-contained utilities shared across the library.

The utilities are deliberately dependency-free: exact combinatorics over
Python integers / :class:`fractions.Fraction` (now backed by the tiered
exact-integer kernels of :mod:`repro.util.kernels`), and a tiny
undirected-graph toolkit
sufficient for Gaifman graphs and exogenous atom graphs.
"""

from repro.util.combinatorics import (
    binomial,
    binomial_vector,
    convolve,
    convolve_many,
    falling_factorial,
    shapley_coefficient,
    subtract_vectors,
)
from repro.util.graphs import UndirectedGraph
from repro.util.kernels import (
    ShapleyAccumulator,
    active_kernel_name,
    kernel_stats,
    use_kernel,
)

__all__ = [
    "ShapleyAccumulator",
    "UndirectedGraph",
    "active_kernel_name",
    "binomial",
    "binomial_vector",
    "convolve",
    "convolve_many",
    "falling_factorial",
    "kernel_stats",
    "shapley_coefficient",
    "subtract_vectors",
    "use_kernel",
]
