"""Scalar oracles that the tests hold the library's vectorized code against.

Each one is the plain formula, one value (or one row of points) per call;
the library keeps one vectorized copy of the same concept, or, for the
radial eigenfunctions, an independent recurrence.
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


def scaled_laguerre(k: int, a: float, z) -> tuple[np.ndarray, np.ndarray]:
    """P = L_k^(a)(z) / sqrt(C(k+a, k)) at the points z, and each point's count of 2^-400 rescalings.

    The three-term recurrence in degree (DLMF 18.9.1) in its symmetric form
    b_j P_j = (2j-1+a-z) P_{j-1} - b_{j-1} P_{j-2}, b_j = sqrt(j(j+a)).  In the
    oscillatory region P grows like e^{z/2}, so an entry past 2^400 and its
    predecessor are scaled by 2^-400 and counted.
    """
    z = np.asarray(z, dtype=float)
    prev, cur = np.zeros_like(z), np.ones_like(z)
    count = np.zeros(z.shape, dtype=np.int64)
    for j in range(1, k + 1):
        step = (2 * j - 1 + a - z) * cur - math.sqrt((j - 1) * (j - 1 + a)) * prev
        prev, cur = cur, step / math.sqrt(j * (j + a))
        big = np.abs(cur) > 2.0**400
        prev, cur = np.where(big, prev * 2.0**-400, prev), np.where(big, cur * 2.0**-400, cur)
        count += big
    return cur, count


def radial_by_degree(n: int, l: int, r) -> np.ndarray:
    """u_n^l(r) from k = n - l steps of the recurrence in degree: the oracle of the library's ladder in l.

    u = sqrt(1/(2(n+1)(2l+1)!)) (2/(n+1))^(3/2) z^l e^{-z/2} P, z = 2r/(n+1), with
    P from ``scaled_laguerre``, assembled in log space.  z is clamped at 2^400,
    past every zero of L_k, where u is the exact 0 with the sign of L_k.
    """
    big_n = n + 1.0
    z = 2.0 * np.minimum(np.asarray(r, dtype=float), 2.0**399 * big_n) / big_n
    p, count = scaled_laguerre(n - l, 2 * l + 1, z)
    with np.errstate(divide="ignore"):  # z^l = 0 at r = 0 for l >= 1
        power = l * np.log(z) if l else 0.0
    log_u = 1.5 * math.log(2.0 / big_n) - 0.5 * (math.log(2.0 * big_n) + log_factorial(2 * l + 1) + z)
    return np.exp(log_u + power + count * (400 * math.log(2.0))) * p
