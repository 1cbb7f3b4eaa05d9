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

from .angular import EulerAngles, _channels, angular_cs, channel_index
from .fock1d import Spectrum
from .hydrogen import HydrogenExpansion, shell_offset
from .specfun import (
    BasisIndex,
    _radial_shell,
    exp_decay_rule,
    make_quadrature,
    radial_eigenfunction,
    radial_table,
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


def eval_eigenstate(idx: BasisIndex, r, theta, phi):
    """Bound-state wavefunction u_{n}^{l}(r) Y_{lm}(theta, phi)."""
    return radial_eigenfunction(idx.n, idx.l, r) * spherical_harmonic(idx.l, idx.m, theta, phi)


def eval_angular_cs_position(n: int, omega_bar: EulerAngles, r, theta, phi):
    """Position representation of the shell-n angular coherent state."""
    shell = angular_cs(n, omega_bar)
    rb, tb, pb = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, theta, phi)))
    ylm = spherical_harmonic_table(n, tb.ravel(), pb.ravel())
    u = _radial_shell(n, np.arange(n + 1), rb.ravel())[0]  # (l, point)
    out = np.einsum("c,cp,cp->p", shell.coeffs, u[_channels(n)[0]], ylm).reshape(rb.shape)
    if out.shape == ():
        return complex(out)
    return out


def _channel_radial_sums(x: HydrogenExpansion, table: np.ndarray) -> np.ndarray:
    """g[..., ch, :] = sum_n coeff(n, ch) table[..., n, l, :] over shells n >= l.

    ``table`` is a radial table (or a stack of them) of shape (..., shell,
    l, r) from radial_table; each l block is one matmul over shells.
    """
    n_max = x.n_max
    g = np.empty(table.shape[:-3] + ((n_max + 1) ** 2, table.shape[-1]), dtype=complex)
    for l in range(n_max + 1):
        lo, hi = channel_index(l, -l), channel_index(l, l) + 1
        starts = [shell_offset(n) + lo for n in range(l, n_max + 1)]
        coeffs = x.coeffs[np.add.outer(starts, np.arange(hi - lo))]  # (shell, m)
        g[..., lo:hi, :] = coeffs.T @ table[..., l:, l, :]
    return g


def eval_hydrogen_cs_position(x: HydrogenExpansion, r, theta, phi):
    """Position representation of a hydrogen coherent-state expansion.

    Linear in the coefficients: sum over (n, l, m) of coeff * radial *
    spherical harmonic, organized by (l, m) channel.
    """
    rb, tb, pb = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, theta, phi)))
    g = _channel_radial_sums(x, radial_table(x.n_max, rb.ravel())[0])
    ylm = spherical_harmonic_table(x.n_max, tb.ravel(), pb.ravel())
    out = np.einsum("cp,cp->p", g, ylm).reshape(rb.shape)
    if out.shape == ():
        return complex(out)
    return out


def _radial_rule(x: HydrogenExpansion, radial_nodes: int):
    # decay rate of the slowest basis function present
    return exp_decay_rule(2.0 / (x.n_max + 1.0), radial_nodes)


def _radial_samples(x: HydrogenExpansion, radial_nodes: int):
    """(r, w, g, g') at the radial rule nodes: channel sums and their r-derivatives."""
    r, w = _radial_rule(x, radial_nodes)
    g, gp = _channel_radial_sums(x, radial_table(x.n_max, r))
    return r, w, g, gp


def _r_moment(r, w, g, power: int) -> float:
    density = np.sum(np.abs(g) ** 2, axis=0)
    norm_sq = float(np.dot(w, density * r * r))
    return float(np.dot(w, density * r ** (2 + power))) / norm_sq


def _p_moments(r, w, g, gp) -> tuple[float, float]:
    h = g * r[None, :]
    hp = g + gp * r[None, :]
    norm_sq = float(np.dot(w, np.sum(np.abs(h) ** 2, axis=0)))
    p_sq = float(np.dot(w, np.sum(np.abs(hp) ** 2, axis=0))) / norm_sq
    p_mean = float(np.dot(w, np.sum(np.imag(np.conj(h) * hp), axis=0))) / norm_sq
    return p_mean, p_sq


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

    g = _channel_radial_sums(x, radial_table(l_max, r)[0])
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
    r, w, g, _ = _radial_samples(x, radial_nodes)
    return _r_moment(r, w, g, int(power))


def radial_momentum_moments(x: HydrogenExpansion, radial_nodes: int = 96) -> tuple[float, float]:
    """(<p_r>, <p_r^2>) for the self-adjoint radial momentum -i(d/dr + 1/r).

    With h_ch = r g_ch, <p_r^2> = sum_ch int |h_ch'|^2 dr and <p_r> =
    sum_ch int Im(conj(h_ch) h_ch') dr, normalized; h' comes from the
    analytic derivative of the radial eigenfunctions, not finite
    differences.
    """
    return _p_moments(*_radial_samples(x, radial_nodes))


def radial_uncertainty_product(x: HydrogenExpansion, radial_nodes: int = 96) -> float:
    """Var(r) * Var(p_r); dimensionless, bounded below by 1/4."""
    r, w, g, gp = _radial_samples(x, radial_nodes)
    r_mean, r_sq = _r_moment(r, w, g, 1), _r_moment(r, w, g, 2)
    p_mean, p_sq = _p_moments(r, w, g, gp)
    return (r_sq - r_mean**2) * (p_sq - p_mean**2)


def export_density_grid(
    x: HydrogenExpansion,
    grid: GridSpec,
    t_values: Sequence[float],
    spectrum: Spectrum | None = None,
) -> np.ndarray:
    """Wavefunction samples on the grid at each time, one float64 row per sample.

    Evolution applies the spectrum's shell phases to the coefficients (the
    default inverse-square spectrum with omega = 1 realizes the gamma
    shift).  Columns are (t, r, theta, phi, Re psi, Im psi, |psi|^2); rows
    run in deterministic t-major order, then r, theta, phi.
    """
    times = np.asarray(t_values, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"t_values must be finite, got {t_values!r}")
    if spectrum is None:
        spectrum = Spectrum("inverse-square", 1.0)
    r = np.asarray(grid.r)
    tb = np.repeat(grid.theta, len(grid.phi))
    pb = np.tile(grid.phi, len(grid.theta))
    ylm = spherical_harmonic_table(x.n_max, tb, pb)
    u = radial_table(x.n_max, r)[0]

    rows = np.empty((times.size, r.size * tb.size, 7))
    rows[:, :, 0] = times[:, None]
    # (r, theta, phi) columns in r-major, then angle order; the same at every time
    rows[:, :, 1] = np.repeat(r, tb.size)
    rows[:, :, 2] = np.tile(tb, r.size)
    rows[:, :, 3] = np.tile(pb, r.size)
    for rows_t, t in zip(rows, times.tolist()):
        evolved = x.phased(spectrum.evolution_phases(x.n_max + 1, t), x.label)
        psi = (_channel_radial_sums(evolved, u).T @ ylm).ravel()
        rows_t[:, 4] = psi.real
        rows_t[:, 5] = psi.imag
        rows_t[:, 6] = np.abs(psi) ** 2
    return rows.reshape(-1, 7)
