"""Scalar oracles that the tests hold the library's vectorized code against.

Each one is the plain formula, one value per call; the library keeps one
vectorized copy of the same concept.
"""

import math

import numpy as np

from hcs.specfun import log_factorial


def sqrt_binomial_weight(l: int, m: int) -> float:
    """Square root of the central binomial ratio (2l)! / ((l+m)!(l-m)!).

    The amplitude of |l m> inside a spin coherent state, in log space so
    that l of a few hundred is still finite.  ``angular._binomial_weights``
    is its vectorized copy, bit for bit.
    """
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got m={m}, l={l}")
    # canonical subtraction order makes the m <-> -m symmetry exact
    hi, lo = l + abs(m), l - abs(m)
    return math.exp(0.5 * (log_factorial(2 * l) - log_factorial(hi) - log_factorial(lo)))


def shell_offset(n: int) -> int:
    """Flat index where shell n starts in the (n, l, m) vector: sum_{k<n} (k+1)^2."""
    return n * (n + 1) * (2 * n + 1) // 6


def total_dimension(n_max: int) -> int:
    """Dimension of the truncated (n, l, m) basis with shells 0..n_max."""
    return shell_offset(n_max + 1)


def spectrum_energies(spectrum, count: int, t: float = 0.1) -> np.ndarray:
    """E_n for n < count, read off the evolution phases e^{-i E_n t}; |E_n t| < pi keeps each angle unwrapped."""
    return -np.angle(spectrum.evolution_phases(count, t)) / t
