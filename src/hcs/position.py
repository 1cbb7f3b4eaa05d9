"""Configuration-space evaluation of hydrogen coherent states.

The pointwise wavefunction is assembled from the radial eigenfunctions and
spherical harmonics, organized by (l, m) channel; the density export and
the quadrature norm instead sum n_max + 1 radial profiles times powers of
one complex number per angle, since each channel of a shell coherent state
is a spin coherent state.
Radial expectation values and
the radial uncertainty product are quadratic forms in the shell
amplitudes of a coherent state: coefficients sharing a channel interfere
across shells, channels add incoherently after the exact angular
integral, and the shell coherent state gives channel l the weight 2l+1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError
from .hydrogen import HydrogenExpansion, evolve_hydrogen
from .specfun import (
    _LAGUERRE_MAX_NODES,
    _radial_ladder,
    exp_decay_rule,
    make_quadrature,
    radial_table,
    spherical_harmonic_table,
)

__all__ = [
    "GridSpec",
    "eval_hydrogen_cs_position",
    "quadrature_norm_squared",
    "radial_expectation",
    "radial_uncertainty_product",
    "export_density_grid",
]

DENSITY_CSV_HEADER = ("t", "r", "theta", "phi", "re_psi", "im_psi", "density")


@dataclass(frozen=True)
class GridSpec:
    """Separable evaluation grid: positive radii, polar and azimuth angles."""

    r: tuple[float, ...]
    theta: tuple[float, ...]
    phi: tuple[float, ...]

    def __post_init__(self):
        axes = {name: np.asarray(getattr(self, name), dtype=float) for name in ("r", "theta", "phi")}
        for name, axis in axes.items():
            if axis.size == 0 or not np.all(np.isfinite(axis)):
                raise ValueError(f"grid axis {name} must be nonempty and finite")
            object.__setattr__(self, name, tuple(axis.tolist()))
        r, theta, phi = axes.values()
        if np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ValueError("radial grid must be positive and strictly increasing")
        if np.any((theta < 0) | (theta > math.pi)):
            raise ValueError("polar angles must lie in [0, pi]")
        if np.any((phi < 0) | (phi >= 2 * math.pi)):
            raise ValueError("azimuth angles must lie in [0, 2*pi)")


def _radial_profiles(x: HydrogenExpansion, table: np.ndarray) -> np.ndarray:
    """R[l, :] = sum over shells n >= l of amps[n] table[n, l, :], one row per l.

    ``table`` is a radial table of shape (shell, l, r) from radial_table,
    zero for l > n, so all radial profiles R_l come from one real
    contraction of the table with the real and imaginary amplitude parts.
    """
    shells, channels, points = table.shape
    parts = table.reshape(shells, -1).T @ x.amps.view(float).reshape(-1, 2)  # (l r, re/im)
    return parts.view(complex).reshape(channels, points)


def eval_hydrogen_cs_position(x: HydrogenExpansion, r, theta, phi):
    """Position representation of a hydrogen coherent-state expansion.

    Linear in the coefficients: sum over (n, l, m) of coeff * radial *
    spherical harmonic, organized by (l, m) channel.
    """
    rb, tb, pb = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, theta, phi)))
    profiles = _radial_profiles(x, radial_table(x.n_max, rb.ravel()))
    g = np.repeat(profiles, 2 * np.arange(x.n_max + 1) + 1, axis=0)  # R_l once per channel (l, m)
    g *= x.angular.coeffs[:, None]
    ylm = spherical_harmonic_table(x.n_max, tb.ravel(), pb.ravel())
    out = np.einsum("cp,cp->p", g, ylm).reshape(rb.shape)
    if out.shape == ():
        return complex(out)
    return out


@functools.lru_cache(maxsize=8)
def _radial_operators(n_max: int, top: int = 2) -> tuple[np.ndarray, ...]:
    """Exact radial operator tables O[l][t, n - l, n' - l], shells n, n' >= l, per (n_max, top).

    t <= top + 2: int u_n^l u_n'^l r^t dr, the table of <r^(t-2)>; then
    int h_n h'_n' dr and int h'_n h'_n' dr, h = r u.  Shell pair (n, n') has
    its own Gauss-Laguerre rule, decay 1/(n+1) + 1/(n'+1) and
    ceil((n+n'+3+top)/2) nodes: exact for polynomials of degree <= n+n'+2+top
    times that exponential.  The radial equation h'' = (l(l+1)/r^2 - 2/r +
    1/N^2) h, N = n+1, gives int h'_n h'_n' = -int h_n h''_n', and the
    commutator h' = -[H, r] h gives int h_n h'_n' = (E_n' - E_n) int h_n r h_n'
    with E = -1/(2N^2).  The rules do not depend on l, so one sweep of the
    ladder in l samples every shell at its pairs' nodes for every channel.
    Each u is rescaled to the unit norm its own rule measures, which drops
    the ~1e-13 scale error of the log-space normalization.  Shared, so
    read-only.
    """
    # pairs n <= n' by descending n, so the pairs of channel l are a prefix
    pairs = np.array([(a, b) for a in range(n_max, -1, -1) for b in range(a, n_max + 1)])
    rules = [exp_decay_rule(1.0 / (a + 1) + 1.0 / (b + 1), (a + b + 4 + top) // 2) for a, b in pairs.tolist()]
    sizes = np.array([r.size for r, _ in rules])
    ends = np.cumsum(sizes)
    radius, weight = (np.concatenate(part) for part in zip(*rules))
    tables = [np.empty((top + 5, n_max + 1 - l, n_max + 1 - l)) for l in range(n_max + 1)]
    # one ladder sweep per block of the pairs whose nodes start in the same 2^14, which bounds the
    # sweep's memory at any n_max
    starts = ends - sizes
    for block in np.split(np.arange(len(pairs)), np.flatnonzero(np.diff(starts // 2**14)) + 1):
        block_pairs, block_sizes = pairs[block], sizes[block]
        block_ends = np.cumsum(block_sizes)
        r, w = (part[starts[block[0]] : ends[block[-1]]] for part in (radius, weight))
        # each node for its lower, then its upper shell, sorted as the ladder takes them: node i sits
        # at row rank[i] for its lower shell and at rank[r.size + i] for its upper
        shells = np.concatenate(np.repeat(block_pairs, block_sizes, axis=0).T)
        order = np.argsort(-shells, kind="stable")
        rank = np.argsort(order)
        for l, u in _radial_ladder(shells[order], np.tile(r, 2)[order, None]):
            count = np.count_nonzero(block_pairs[:, 0] >= l)  # the block's pairs of shells >= l, a prefix
            if count:
                nodes = block_ends[count - 1]
                terms = r[:nodes] ** np.arange(top + 3)[:, None]
                terms *= w[:nodes] * u[rank[:nodes], 0] * u[rank[r.size : r.size + nodes], 0]  # w u_n u_n' r^t
                a, b = block_pairs[:count].T - l
                sums = np.add.reduceat(terms, block_ends[:count] - block_sizes[:count], axis=1)
                tables[l][: top + 3, a, b] = tables[l][: top + 3, b, a] = sums
    for l, table in enumerate(tables):
        inv_sq = 1.0 / np.arange(l + 1, n_max + 2) ** 2
        norm = np.sqrt(np.diagonal(table[2]))
        table[: top + 3] /= np.multiply.outer(norm, norm)
        table[-2] = 0.5 * np.subtract.outer(inv_sq, inv_sq) * table[3]
        table[-1] = 2.0 * table[1] - l * (l + 1) * table[0] - 0.5 * np.add.outer(inv_sq, inv_sq) * table[2]
        table.flags.writeable = False
    return tuple(tables)


@functools.lru_cache(maxsize=8)
def _shell_operators(n_max: int, top: int = 2) -> np.ndarray:
    """S[t, n, n'] = sum over l <= min(n, n') of (2l+1) O_l[t, n - l, n' - l], per (n_max, top).

    The radial tables of _radial_operators summed over channels with the
    weight sum_m |A_lm|^2 = 2l+1 that every shell coherent state gives
    channel l.  It does not depend on the label.  Shared, so read-only.
    """
    table = np.zeros((top + 5, n_max + 1, n_max + 1))
    for l, operator in enumerate(_radial_operators(n_max, top)):
        table[:, l:, l:] += (2 * l + 1) * operator
    table.flags.writeable = False
    return table


def _normalized_forms(x: HydrogenExpansion, top: int = 2) -> np.ndarray:
    """a^H S a for each shell table S of _shell_operators, over the r^0 form (a: the shell amplitudes).

    Shell n of a coherent state is amps[n] times one shell coherent state
    A_lm e^{-i(m phi_bar + l psi_bar)}, and sum_m |A_lm|^2 = 2l+1 exactly,
    so every channel quadratic form sum_m c_lm^H O_l c_lm collapses to
    (2l+1) a^H O_l a: one (n_max+1)^2 form per table, free of the Euler
    angles.
    """
    nodes = (2 * x.n_max + 4 + top) // 2  # the rule of the top shell pair
    if nodes > _LAGUERRE_MAX_NODES:
        raise ConfigurationError(
            f"exact radial moments up to power {top} at n_max = {x.n_max} need a {nodes}-node "
            f"Gauss-Laguerre rule, past the limit of {_LAGUERRE_MAX_NODES} nodes"
        )
    pairs = np.outer(x.amps.conj(), x.amps).reshape(-1)
    forms = _shell_operators(x.n_max, top).reshape(top + 5, -1) @ pairs.view(float).reshape(-1, 2)
    forms = forms[:, 0] + 1j * forms[:, 1]
    if not forms[2].real > 0:
        raise ValueError("radial moments need a state with a nonzero norm")
    return forms / forms[2].real


# quadrature_norm_squared's radial Gauss-Laguerre rule, checked against one of 32 more nodes
_NORM_RULE_NODES = 96


def quadrature_norm_squared(x: HydrogenExpansion) -> float:
    """Position-space squared norm by full quadrature over all of space.

    Radial Gauss-Laguerre with substitution matched to the slowest decay,
    Gauss-Legendre in cos(theta), uniform azimuth rule at the trig-
    polynomial exactness threshold.  Independent of the coefficient-space
    norm, which it must reproduce to 1e-8 relative: the radial error of the
    _NORM_RULE_NODES rule is estimated against a rule with 32 more nodes,
    and a larger estimate raises ``NumericalError``.
    """
    theta, w_theta = make_quadrature("legendre", x.n_max + 1)
    n_phi = 2 * x.n_max + 1
    phi, _ = make_quadrature("trapezoid", n_phi)
    w_ang = np.repeat(w_theta, n_phi) * (2.0 * math.pi / n_phi)
    powers = _xi_powers(x, np.arccos(theta)[:, None], phi)  # sampled as eval samples (export_density_grid)

    values = []
    for nodes in (_NORM_RULE_NODES, _NORM_RULE_NODES + 32):
        r, wr = exp_decay_rule(2.0 / (x.n_max + 1.0), nodes)  # the slowest decay present
        psi = _radial_profiles(x, radial_table(x.n_max, r)).T @ powers  # (n_r, n_ang)
        values.append(float(np.einsum("r,a,ra->", wr * r * r, w_ang, np.abs(psi) ** 2)))
    error = abs(values[0] - values[1])
    if not error <= 1e-8 * values[0]:
        raise NumericalError(f"radial rule of {_NORM_RULE_NODES} nodes: norm error {error:.2g} of {values[0]:.6g}")
    return values[0]


def radial_expectation(x: HydrogenExpansion, power: int) -> float:
    """Normalized radial moment <r^power> for power >= -1: a quadratic form in the shell amplitudes."""
    if power < -1 or power != int(power):
        raise ValueError(f"power must be an integer >= -1, got {power}")
    return float(_normalized_forms(x, max(int(power), 2))[int(power) + 2].real)


def radial_uncertainty_product(x: HydrogenExpansion) -> float:
    """Var(r) * Var(p_r); dimensionless, bounded below by 1/4."""
    forms = _normalized_forms(x)
    r_mean, r_sq, p_mean, p_sq = forms[3].real, forms[4].real, forms[-2].imag, forms[-1].real
    return float((r_sq - r_mean**2) * (p_sq - p_mean**2))


def _xi_powers(x: HydrogenExpansion, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """P[l, a] = c_l xi_a^l for l <= n_max at the angles a of theta broadcast against phi, flattened.

    Channel l of a shell coherent state is a spin-l coherent state, so its angular part
    sum_m A_lm e^{-i(m phi_bar + l psi_bar)} Y_lm(n) is c_l xi^l, xi = v.n with the null vector
    v = (beta^2 - alpha^2, -i(alpha^2 + beta^2), 2 alpha beta) of the label's spinor alpha =
    cos(tb/2) e^{-i(pb+sb)/2}, beta = sin(tb/2) e^{i(pb-sb)/2} (Radcliffe, J. Phys. A 4, 313
    (1971)).  c_l = sqrt(2l+1) K_l with K_l the normalization of Y_ll ~ (x+iy)^l: K_0 = 1/sqrt(4 pi),
    K_l = K_(l-1) sqrt((2l+1)/(2l)).  |xi| <= 1, so the running product of the powers stays finite.
    """
    ob = x.angular.omega_bar
    half = 0.5 * np.float64(ob.theta_bar)
    alpha = np.cos(half) * np.exp(0.5j * -(ob.phi_bar + ob.psi_bar))
    beta = np.sin(half) * np.exp(0.5j * (ob.phi_bar - ob.psi_bar))
    vx, vy, vz = beta * beta - alpha * alpha, -1j * (alpha * alpha + beta * beta), 2.0 * alpha * beta
    xi = (np.sin(theta) * (vx * np.cos(phi) + vy * np.sin(phi)) + vz * np.cos(theta)).reshape(-1)
    l = np.arange(x.n_max + 1)
    k = np.cumprod(np.append(1.0 / math.sqrt(4.0 * math.pi), np.sqrt((2.0 * l[1:] + 1) / (2.0 * l[1:]))))
    powers = np.empty((l.size, xi.size), dtype=complex)
    powers[0] = 1.0
    for row in range(1, l.size):
        np.multiply(powers[row - 1], xi, out=powers[row])
    powers *= (np.sqrt(2.0 * l + 1) * k)[:, None]
    return powers


def export_density_grid(
    x: HydrogenExpansion, grid: GridSpec, t_values: Sequence[float], omega: float = 1.0
) -> np.ndarray:
    """Wavefunction samples psi on the grid at each time, one complex entry per CSV row.

    Each time evolves the state with ``evolve_hydrogen`` under the
    spectrum -omega/(n+1)^2, which realizes the gamma shift, and forms
    psi = sum_l c_l xi^l R_l(r, t) (``_xi_powers``, ``_radial_profiles``):
    one (radii x l) by (l x angles) product, with no spherical-harmonic
    table and no channel vector.  The samples run in deterministic
    t-major order, then r, theta, phi: entry i is the sample at
    np.unravel_index(i, (T, R, Theta, Phi)).
    """
    times = np.asarray(t_values, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"t_values must be finite, got {t_values!r}")
    r = np.asarray(grid.r)
    powers = _xi_powers(x, np.asarray(grid.theta)[:, None], np.asarray(grid.phi))
    u = radial_table(x.n_max, r)
    psi = np.empty((times.size, r.size, powers.shape[1]), dtype=complex)
    for psi_t, t in zip(psi, times.tolist()):
        np.matmul(_radial_profiles(evolve_hydrogen(x, omega, t), u).T, powers, out=psi_t)
    return psi.reshape(-1)
