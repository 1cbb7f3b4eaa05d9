"""Angular-momentum coherent states on a degenerate hydrogen shell.

A shell n carries every |l m> with 0 <= l <= n, a reducible rotation-group
representation of dimension (n+1)^2.  The shell coherent state is labeled
by Euler angles (theta_bar, phi_bar, psi_bar); its squared norm is (n+1)^2
independent of the label, and averaging the projector over the angles with
the measure sin(theta_bar) d(theta_bar) d(phi_bar) d(psi_bar) / 8 pi^2
resolves the identity on the shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .specfun import make_quadrature, sqrt_binomial_weight

__all__ = [
    "EulerAngles",
    "ShellExpansion",
    "AngularResolutionReport",
    "angular_cs",
    "shell_norm_squared",
    "angular_resolution_check",
    "shell_dimension",
    "channel_index",
]

_TWO_PI = 2.0 * math.pi


def shell_dimension(n: int) -> int:
    """Degeneracy of shell n: sum_{l<=n} (2l+1) = (n+1)^2."""
    return (n + 1) ** 2


def channel_index(l: int, m: int) -> int:
    """Flat storage index of channel (l, m): l^2 + l + m."""
    return l * l + l + m


@dataclass(frozen=True)
class EulerAngles:
    """Label (theta_bar, phi_bar, psi_bar); azimuthal angles wrap mod 2*pi."""

    theta_bar: float
    phi_bar: float
    psi_bar: float

    def __post_init__(self):
        if not 0.0 <= self.theta_bar <= math.pi:
            raise ValueError(f"theta_bar must lie in [0, pi], got {self.theta_bar}")
        if not (math.isfinite(self.phi_bar) and math.isfinite(self.psi_bar)):
            raise ValueError(f"azimuths must be finite, got {self.phi_bar}, {self.psi_bar}")
        object.__setattr__(self, "phi_bar", self.phi_bar % _TWO_PI)
        object.__setattr__(self, "psi_bar", self.psi_bar % _TWO_PI)


@dataclass(frozen=True, eq=False)
class ShellExpansion:
    """Complex coefficients over the (n+1)^2 channels (l, m) of shell n."""

    n: int
    coeffs: np.ndarray

    def coeff(self, l: int, m: int) -> complex:
        if not 0 <= l <= self.n or abs(m) > l:
            raise ValueError(f"channel (l={l}, m={m}) outside shell n={self.n}")
        return complex(self.coeffs[channel_index(l, m)])

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def _channel_coefficients(l_max: int, theta_bar, phi_bar, psi_bar) -> np.ndarray:
    """Coefficient table for channels l <= l_max at (arrays of) Euler angles.

    coeff(l, m) = sqrt((2l)!/((l+m)!(l-m)!)) sin(tb/2)^(l-m) cos(tb/2)^(l+m)
                  * exp(-i(m phi_bar + l psi_bar)) sqrt(2l+1)

    Angles may be scalars or aligned 1-D arrays; the result has shape
    ((l_max+1)^2,) + angle shape.
    """
    tb = np.asarray(theta_bar, dtype=float)
    pb = np.asarray(phi_bar, dtype=float)
    sb = np.asarray(psi_bar, dtype=float)
    tb, pb, sb = np.broadcast_arrays(tb, pb, sb)
    half_sin = np.sin(0.5 * tb)
    half_cos = np.cos(0.5 * tb)
    out = np.zeros(((l_max + 1) ** 2,) + tb.shape, dtype=complex)
    for l in range(l_max + 1):
        root = math.sqrt(2 * l + 1)
        for m in range(-l, l + 1):
            amp = sqrt_binomial_weight(l, m) * half_sin ** (l - m) * half_cos ** (l + m)
            out[channel_index(l, m)] = amp * root * np.exp(-1j * (m * pb + l * sb))
    return out


def angular_cs(n: int, omega_bar: EulerAngles) -> ShellExpansion:
    """Shell-n angular-momentum coherent state at Euler angles omega_bar.

    Not unit-normalized: the squared norm is the shell dimension (n+1)^2.
    """
    if n < 0:
        raise ValueError(f"shell index must be >= 0, got {n}")
    coeffs = _channel_coefficients(n, omega_bar.theta_bar, omega_bar.phi_bar, omega_bar.psi_bar)
    return ShellExpansion(n=n, coeffs=coeffs)


def shell_norm_squared(n: int, omega_bar: EulerAngles) -> float:
    """Squared norm of the shell coherent state; equals (n+1)^2 for every label."""
    return angular_cs(n, omega_bar).norm_squared()


@dataclass(frozen=True, eq=False)
class AngularResolutionReport:
    """Gram matrix of the angle-averaged shell projector."""

    n: int
    dimension: int
    gram: np.ndarray
    max_identity_dev: float


def exactness_threshold(n: int) -> int:
    """Minimum node count per angle for machine-exact shell quadrature.

    The Gram integrand is a trigonometric polynomial: frequency <= 2n in
    phi_bar, <= n in psi_bar, and polynomial of degree <= 2n in
    cos(theta_bar); 2n+1 nodes per axis are exact for all three.
    """
    return 2 * n + 1


def angular_resolution_check(
    n: int,
    theta_nodes: int | None = None,
    phi_nodes: int | None = None,
    psi_nodes: int | None = None,
) -> AngularResolutionReport:
    """Quadrature Gram matrix of the shell projector average.

    Gauss-Legendre in cos(theta_bar) and uniform rules over the periodic
    azimuths; node counts below the exactness threshold 2n+1 raise instead
    of silently degrading.  The result equals the (n+1)^2 identity to
    machine precision.
    """
    if n < 0:
        raise ValueError(f"shell index must be >= 0, got {n}")
    needed = exactness_threshold(n)
    theta_nodes = needed if theta_nodes is None else theta_nodes
    phi_nodes = needed if phi_nodes is None else phi_nodes
    psi_nodes = needed if psi_nodes is None else psi_nodes
    for label, count in (("theta", theta_nodes), ("phi", phi_nodes), ("psi", psi_nodes)):
        if count < needed:
            raise ConfigurationError(
                f"{label}-nodes = {count} below the exactness threshold {needed} for n = {n}"
            )

    x_rule = make_quadrature("legendre", theta_nodes)
    theta = np.arccos(x_rule.nodes)
    phi = make_quadrature("trapezoid", phi_nodes).nodes
    psi = make_quadrature("trapezoid", psi_nodes).nodes

    tb = np.repeat(theta, phi_nodes * psi_nodes)
    pb = np.tile(np.repeat(phi, psi_nodes), theta_nodes)
    sb = np.tile(psi, theta_nodes * phi_nodes)
    weights = np.repeat(x_rule.weights, phi_nodes * psi_nodes) * (
        (_TWO_PI / phi_nodes) * (_TWO_PI / psi_nodes) / (8.0 * math.pi**2)
    )

    table = _channel_coefficients(n, tb, pb, sb)  # (dim, npts)
    gram = np.einsum("ap,p,bp->ab", table, weights, table.conj())
    dim = shell_dimension(n)
    dev = float(np.max(np.abs(gram - np.eye(dim))))
    return AngularResolutionReport(n=n, dimension=dim, gram=gram, max_identity_dev=dev)
