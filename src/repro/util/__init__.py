"""Small self-contained utilities shared across the library.

The utilities are deliberately dependency-free: the exact-integer
layer of :mod:`repro.util.kernels` (convolution, correlation, the
Shapley weight table and binomial rows over Python integers, and
:class:`ShapleyAccumulator`'s one-``Fraction`` assembly), and a tiny
undirected-graph toolkit sufficient for Gaifman graphs and exogenous
atom graphs.
"""

from repro.util.graphs import UndirectedGraph
from repro.util.kernels import ShapleyAccumulator, kernel_stats

__all__ = [
    "ShapleyAccumulator",
    "UndirectedGraph",
    "kernel_stats",
]
