"""Configuration-space evaluation of eigenstates and coherent states.

Wavefunctions are assembled from the radial eigenfunctions and spherical
harmonics; radial expectation values and the radial uncertainty product
use the (l, m)-channel decomposition: coefficients sharing a channel are
summed over shells before squaring (they interfere), and channels add
incoherently after the exact angular integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .angular import EulerAngles, angular_cs, channel_index
from .fock1d import Spectrum
from .hydrogen import HydrogenExpansion, shell_offset
from .specfun import (
    BasisIndex,
    exp_decay_rule,
    make_quadrature,
    radial_eigenfunction,
    radial_eigenfunction_deriv,
    spherical_harmonic,
    spherical_harmonic_table,
)

__all__ = [
    "GridSpec",
    "eval_eigenstate",
    "eval_angular_cs_position",
    "eval_hydrogen_cs_position",
    "quadrature_norm_squared",
    "radial_expectation",
    "radial_momentum_moments",
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
        r = np.asarray(self.r, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if r.size == 0 or theta.size == 0 or phi.size == 0:
            raise ValueError("grid axes must be nonempty")
        if np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ValueError("radial grid must be positive and strictly increasing")
        if np.any((theta < 0) | (theta > math.pi)):
            raise ValueError("polar angles must lie in [0, pi]")
        if np.any((phi < 0) | (phi >= 2 * math.pi)):
            raise ValueError("azimuth angles must lie in [0, 2*pi)")
        object.__setattr__(self, "r", tuple(float(v) for v in r))
        object.__setattr__(self, "theta", tuple(float(v) for v in theta))
        object.__setattr__(self, "phi", tuple(float(v) for v in phi))


def eval_eigenstate(idx: BasisIndex, r, theta, phi):
    """Bound-state wavefunction u_{n}^{l}(r) Y_{lm}(theta, phi)."""
    return radial_eigenfunction(idx.n, idx.l, r) * spherical_harmonic(idx.l, idx.m, theta, phi)


def eval_angular_cs_position(n: int, omega_bar: EulerAngles, r, theta, phi):
    """Position representation of the shell-n angular coherent state."""
    shell = angular_cs(n, omega_bar)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    rb, tb, pb = np.broadcast_arrays(r, theta, phi)
    ylm = spherical_harmonic_table(n, tb.ravel(), pb.ravel())
    out = np.zeros(rb.size, dtype=complex)
    for l in range(n + 1):
        u = radial_eigenfunction(n, l, rb.ravel())
        lo, hi = channel_index(l, -l), channel_index(l, l) + 1
        out += u * np.einsum("c,cp->p", shell.coeffs[lo:hi], ylm[lo:hi])
    out = out.reshape(rb.shape)
    if out.shape == ():
        return complex(out)
    return out


def _channel_radial_sums(x: HydrogenExpansion, r: np.ndarray, deriv: bool = False) -> np.ndarray:
    """g[ch](r) = sum_n coeff(n, ch) u_{n}^{l}(r), or its r-derivative."""
    r = np.asarray(r, dtype=float).ravel()
    f = radial_eigenfunction_deriv if deriv else radial_eigenfunction
    g = np.zeros(((x.n_max + 1) ** 2, r.size), dtype=complex)
    for n in range(x.n_max + 1):
        base = shell_offset(n)
        for l in range(n + 1):
            u = f(n, l, r)
            lo, hi = channel_index(l, -l), channel_index(l, l) + 1
            g[lo:hi] += x.coeffs[base + lo : base + hi, None] * u[None, :]
    return g


def eval_hydrogen_cs_position(x: HydrogenExpansion, r, theta, phi):
    """Position representation of a hydrogen coherent-state expansion.

    Linear in the coefficients: sum over (n, l, m) of coeff * radial *
    spherical harmonic, organized by (l, m) channel.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    rb, tb, pb = np.broadcast_arrays(r, theta, phi)
    g = _channel_radial_sums(x, rb.ravel())
    ylm = spherical_harmonic_table(x.n_max, tb.ravel(), pb.ravel())
    out = np.einsum("cp,cp->p", g, ylm).reshape(rb.shape)
    if out.shape == ():
        return complex(out)
    return out


def _radial_rule(x: HydrogenExpansion, radial_nodes: int):
    # decay rate of the slowest basis function present
    return exp_decay_rule(2.0 / (x.n_max + 1.0), radial_nodes)


def quadrature_norm_squared(x: HydrogenExpansion, radial_nodes: int = 96) -> float:
    """Position-space squared norm by full quadrature over all of space.

    Radial Gauss-Laguerre with substitution matched to the slowest decay,
    Gauss-Legendre in cos(theta), uniform azimuth rule at the trig-
    polynomial exactness threshold.  Independent of the coefficient-space
    norm, which it must reproduce.
    """
    r, wr = _radial_rule(x, radial_nodes)
    l_max = x.n_max
    x_rule = make_quadrature("legendre", l_max + 1)
    theta = np.arccos(x_rule.nodes)
    n_phi = 2 * l_max + 1
    phi = make_quadrature("trapezoid", n_phi).nodes

    tb = np.repeat(theta, n_phi)
    pb = np.tile(phi, theta.size)
    w_ang = np.repeat(x_rule.weights, n_phi) * (2.0 * math.pi / n_phi)

    g = _channel_radial_sums(x, r)
    ylm = spherical_harmonic_table(l_max, tb, pb)
    psi = g.T @ ylm  # (n_r, n_ang)
    return float(np.einsum("r,a,ra->", wr * r * r, w_ang, np.abs(psi) ** 2))


def radial_expectation(x: HydrogenExpansion, power: int, radial_nodes: int = 96) -> float:
    """Normalized radial moment <r^power> for power >= -1.

    The angular integral is exact by orthonormality, leaving the channel
    density sum_ch |g_ch(r)|^2 against r^(2+power) dr.
    """
    if power < -1 or power != int(power):
        raise ValueError(f"power must be an integer >= -1, got {power}")
    r, wr = _radial_rule(x, radial_nodes)
    density = np.sum(np.abs(_channel_radial_sums(x, r)) ** 2, axis=0)
    norm_sq = float(np.dot(wr, density * r * r))
    return float(np.dot(wr, density * r ** (2 + int(power)))) / norm_sq


def radial_momentum_moments(x: HydrogenExpansion, radial_nodes: int = 96) -> tuple[float, float]:
    """(<p_r>, <p_r^2>) for the self-adjoint radial momentum -i(d/dr + 1/r).

    With h_ch = r g_ch, <p_r^2> = sum_ch int |h_ch'|^2 dr and <p_r> =
    sum_ch int Im(conj(h_ch) h_ch') dr, normalized; h' comes from the
    analytic series derivative of the radial eigenfunctions, not finite
    differences.
    """
    r, wr = _radial_rule(x, radial_nodes)
    g = _channel_radial_sums(x, r)
    gp = _channel_radial_sums(x, r, deriv=True)
    h = g * r[None, :]
    hp = g + gp * r[None, :]
    norm_sq = float(np.dot(wr, np.sum(np.abs(h) ** 2, axis=0)))
    p_sq = float(np.dot(wr, np.sum(np.abs(hp) ** 2, axis=0))) / norm_sq
    p_mean = float(np.dot(wr, np.sum(np.imag(np.conj(h) * hp), axis=0))) / norm_sq
    return p_mean, p_sq


def radial_uncertainty_product(x: HydrogenExpansion, radial_nodes: int = 96) -> float:
    """Var(r) * Var(p_r); dimensionless, bounded below by 1/4."""
    r_mean = radial_expectation(x, 1, radial_nodes)
    r_sq = radial_expectation(x, 2, radial_nodes)
    p_mean, p_sq = radial_momentum_moments(x, radial_nodes)
    return (r_sq - r_mean**2) * (p_sq - p_mean**2)


def export_density_grid(
    x: HydrogenExpansion,
    grid: GridSpec,
    t_values: Sequence[float],
    spectrum: Spectrum | None = None,
) -> list[tuple[float, ...]]:
    """Wavefunction samples on the grid at each time.

    Evolution applies the spectrum's shell phases to the coefficients (the
    default inverse-square spectrum with omega = 1 realizes the gamma
    shift).  Rows are (t, r, theta, phi, Re psi, Im psi, |psi|^2) in
    deterministic t-major order, then r, theta, phi.
    """
    if spectrum is None:
        spectrum = Spectrum("inverse-square", 1.0)
    r = np.asarray(grid.r)
    theta = np.asarray(grid.theta)
    phi = np.asarray(grid.phi)
    n_t, n_p = theta.size, phi.size
    tb = np.repeat(theta, n_p)
    pb = np.tile(phi, n_t)
    ylm = spherical_harmonic_table(x.n_max, tb, pb)

    rows: list[tuple[float, ...]] = []
    for t in t_values:
        evolved = x.phased(spectrum.evolution_phases(x.n_max + 1, float(t)), x.label)
        psi = _channel_radial_sums(evolved, r).T @ ylm  # (n_r, n_ang)
        for i_r, rv in enumerate(r):
            for i_a in range(n_t * n_p):
                value = psi[i_r, i_a]
                rows.append(
                    (
                        float(t),
                        float(rv),
                        float(tb[i_a]),
                        float(pb[i_a]),
                        float(value.real),
                        float(value.imag),
                        float(abs(value) ** 2),
                    )
                )
    return rows

