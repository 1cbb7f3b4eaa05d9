"""Stable special functions and quadrature rules for hydrogen bound states.

Everything here is a pure function of its arguments.  Factorial ratios go
through log-gamma so that large quantum numbers never overflow; direct
integer products are used only where they are exact in double precision
(k <= 20).  The module needs numpy alone: the Gauss rules, ``logsumexp``
and the PCHIP interpolant are written here once for the whole package.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "log_factorial",
    "spherical_harmonic_table",
    "radial_eigenfunction",
    "radial_table",
    "make_quadrature",
    "exp_decay_rule",
    "logsumexp",
    "pchip",
]


def log_factorial(k: int) -> float:
    """Natural log of k!, exact for k <= 20 and via lgamma above that."""
    if k < 0 or k != int(k):
        raise ValueError(f"factorial argument must be a nonnegative integer, got {k}")
    k = int(k)
    if k <= 20:
        return math.log(math.factorial(k)) if k > 1 else 0.0
    return math.lgamma(k + 1.0)


@functools.lru_cache(maxsize=8)
def _log_factorials(count: int) -> np.ndarray:
    """log_factorial(k) for k < count; built once per count, read-only."""
    table = np.array([log_factorial(k) for k in range(count)])
    table.flags.writeable = False
    return table


def _legendre_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre values P[l, m] for m >= 0.

    Normalization is chosen so that Y_lm(theta, phi) = P[l, m](cos theta)
    * exp(i m phi) is orthonormal on the sphere, with the Condon-Shortley
    sign carried by the sectoral seed.  One step per l: the three-term
    recurrence in l for every m < l - 1 at once, then the seeds P[l, l-1]
    and P[l, l].  Returns shape (l_max+1, l_max+1) + x.shape; entries with
    m > l stay zero.
    """
    x = np.asarray(x, dtype=float)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    table = np.zeros((l_max + 1, l_max + 1) + x.shape)
    table[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    col = (-1,) + (1,) * x.ndim
    for l in range(1, l_max + 1):
        m = np.arange(l - 1).reshape(col)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        table[l, : l - 1] = a * (x * table[l - 1, : l - 1] - b * table[l - 2, : l - 1])
        table[l, l - 1] = math.sqrt(2 * l + 1) * x * table[l - 1, l - 1]
        table[l, l] = -math.sqrt((2 * l + 1) / (2.0 * l)) * sin_t * table[l - 1, l - 1]
    return table


def spherical_harmonic_table(l_max: int, theta, phi) -> np.ndarray:
    """All Y_lm for l <= l_max at the points of theta broadcast against phi.

    Aligned samples pass two equal-shape arrays; a separable grid passes
    theta[:, None] and phi, so P runs on the theta samples alone and
    e^{i m phi} on the phi samples alone.  Returns a complex array of shape
    ((l_max+1)**2, npts), npts the broadcast size in C order, with flat
    channel index l*l + l + m (l ascending, m ascending within l).
    """
    theta, phi = (np.asarray(v, dtype=float) for v in (theta, phi))
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    # align the ranks, so a channel axis put in front broadcasts too
    theta, phi = (v.reshape((1,) * (len(shape) - v.ndim) + v.shape) for v in (theta, phi))
    col = (-1,) + (1,) * len(shape)
    m = np.arange(l_max + 1).reshape(col)
    p = _legendre_table(l_max, np.cos(theta))
    wave = np.exp(1j * m * phi)  # e^{i m phi}, m = 0..l_max
    sign = (-1) ** m
    out = np.empty(((l_max + 1) ** 2,) + shape, dtype=complex)
    for l in range(l_max + 1):
        pos = p[l, : l + 1] * wave[: l + 1]  # m = 0..l
        out[l * l + l : (l + 1) ** 2] = pos
        out[l * l : l * l + l] = sign[l:0:-1] * np.conj(pos[l:0:-1])  # m = -l..-1
    return out.reshape(out.shape[0], -1)


# the ladder scales an entry by 2^-_RESCALE_BITS, exactly, once it passes 2^_RESCALE_BITS
_RESCALE_BITS = 400


def _radial_ladder(shells: np.ndarray, r: np.ndarray):
    """Yield (l, u) for l = shells[0] down to 0: u[i] = u_{shells[i]}^l(r) on the rows of shell >= l.

    The Infeld-Hull ladder in l at fixed shell N = n + 1 (Rev. Mod. Phys. 23,
    21 (1951)): sqrt(1/l^2 - 1/N^2) u_(l-1) = (2l+1)(1/r - 1/(l(l+1))) u_l -
    sqrt(1/(l+1)^2 - 1/N^2) u_(l+1), run downward from u_(n+1) = 0 and the
    closed form log u_n = 1.5 log(2/N) - log((2n+2)!)/2 + n log z - z/2,
    z = 2r/N.  ``shells`` descend, so the rows of shell >= l are a prefix,
    and shell n joins at l = n.  ``r`` is shared (1, points) or per row
    (rows, points), clamped at 2^512, where u is the exact 0 with the sign of
    the recurrence.  The recurrence carries v_l = u_l / rho^l, rho = min(r,
    1), so no step outgrows a double however small r is.  An entry past
    2^_RESCALE_BITS is scaled down together with v_(l+1) and counted, and u =
    sign(v) exp(base + count _RESCALE_BITS ln 2 + log|v| + l log rho), never
    a product with an underflowed factor.  At r = 0, u is the closed form
    2 / N^1.5 for l = 0 and 0 for every l >= 1.
    """
    if np.any(r < 0):
        raise ValueError("radius must be >= 0")
    # every per-entry array gets the full (rows, points) shape, so no step broadcasts
    r = np.minimum(np.broadcast_to(r, (shells.size, r.shape[-1])), 2.0**512)
    col = shells[:, None]
    big_n = col + 1.0
    near, far = np.minimum(r, 1.0), 1.0 / np.maximum(r, 1.0)
    with np.errstate(divide="ignore"):  # log 0 = -inf: u = 0 at r = 0 for every l >= 1
        log_near = np.log(near)
    top = int(shells[0])
    lead = 1.5 * np.log(2.0 / big_n) - 0.5 * _log_factorials(2 * top + 3)[2 * col + 2]  # log u_n - n log z + z/2
    base = lead + col * np.log(2.0 * np.maximum(r, 1.0) / big_n) - r / big_n
    live = np.searchsorted(-shells, -np.arange(top + 2), side="right")  # live[l]: the rows of shell >= l
    v, v_up, spare, work = (np.empty(base.shape) for _ in range(4))
    down, up = np.zeros(big_n.shape), np.zeros(big_n.shape)  # sqrt(1/l^2 - 1/N^2), sqrt(1/(l+1)^2 - 1/N^2)
    shift, count = base.copy(), np.zeros(base.shape, dtype=np.int64)  # shift = base + count _RESCALE_BITS ln 2
    for l in range(top, -1, -1):
        m = live[l]
        v[live[l + 1] : m], v_up[live[l + 1] : m] = 1.0, 0.0  # shell l joins, with u_(l+1) = 0
        with np.errstate(divide="ignore"):  # log 0 = -inf where v is an exact zero, so u is 0 there
            log_u = np.log(np.abs(v[:m], out=work[:m]), out=work[:m])
        log_u += shift[:m]
        if l:
            log_u += np.multiply(log_near[:m], l, out=spare[:m])
        u = np.copysign(np.exp(log_u, out=log_u), v[:m])
        if l == 0:
            yield 0, np.where(near[:m] == 0, 2.0 * big_n[:m] ** -1.5, u)
            return
        yield l, u
        up, down = down, up  # this step's up is the last step's down, and 0 for shell l
        np.sqrt((big_n[:m] - l) * (big_n[:m] + l), out=down[:m])
        down[:m] /= l * big_n[:m]
        new = np.multiply(far[:m], 2 * l + 1, out=spare[:m])
        new -= np.multiply(near[:m], (2 * l + 1) / (l * (l + 1)), out=work[:m])
        new *= v[:m]
        lower = np.multiply(near[:m], near[:m], out=work[:m])
        lower *= v_up[:m]
        lower *= up[:m]
        new -= lower
        new /= down[:m]
        v_up, v, spare = v, spare, v_up
        if np.abs(new, out=work[:m]).max(initial=0.0) > 2.0**_RESCALE_BITS:
            big = work[:m] > 2.0**_RESCALE_BITS
            new[big] *= 2.0**-_RESCALE_BITS
            v_up[:m][big] *= 2.0**-_RESCALE_BITS
            count[:m] += big
            shift[:m] = base[:m] + count[:m] * (_RESCALE_BITS * math.log(2.0))


def radial_eigenfunction(n: int, l: int, r):
    """Radial eigenfunction u of the shell-n bound state, in Bohr units.

    u(r) = N [2r/(n+1)]^l F(-n+l, 2l+2, 2r/(n+1)) exp(-r/(n+1)), orthonormal
    under the measure r^2 dr; n - l steps of the ladder in l.
    """
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= n, got l={l}, n={n}")
    r = np.asarray(r, dtype=float)
    _, u = next(itertools.islice(_radial_ladder(np.array([n]), r.reshape(1, -1)), n - l, None))
    out = u[0].reshape(r.shape)
    if out.shape == ():
        return float(out)
    return out


def radial_table(n_max: int, r) -> np.ndarray:
    """All radial eigenfunctions up to shell n_max, from one sweep of the ladder in l.

    Returns U of shape (n_max+1, n_max+1, len(r)), with U[n, l] = u_n^l(r)
    for l <= n and zeros for l > n: the radial twin of
    spherical_harmonic_table.
    """
    r = np.asarray(r, dtype=float).ravel()
    out = np.zeros((n_max + 1, n_max + 1, r.size))
    for l, u in _radial_ladder(np.arange(n_max, -1, -1), r[None]):
        out[l:, l] = u[::-1]
    return out


def make_quadrature(kind: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and strictly positive weights of a quadrature rule.

    kind 'legendre': Gauss-Legendre on [-1, 1]; exact for polynomials of
    degree <= 2m-1.  The rule is built once per process for each node count
    and shared, so its arrays are read-only.
    kind 'trapezoid': uniform rule on one period 2*pi of a periodic
    function, nodes 2*pi*k/m; exact for trigonometric polynomials of
    frequency < m.
    Gauss-Laguerre rules on [0, inf) come from ``exp_decay_rule``.
    """
    if not isinstance(m, int) or m < 1:
        raise ConfigurationError(f"node count must be a positive integer, got {m!r}")
    if kind == "legendre":
        return _gauss_rule("legendre", m)
    if kind == "trapezoid":
        period = 2.0 * math.pi
        return period * np.arange(m) / m, np.full(m, period / m)
    raise ConfigurationError(f"unknown quadrature kind {kind!r}")


def exp_decay_rule(alpha: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals of e^{-alpha r}-decaying integrands.

    Maps an m-point Gauss-Laguerre rule through t = alpha * r so that
    int_0^inf f(r) dr ~= sum_i w_i f(r_i); exact whenever f is a polynomial
    times e^{-alpha r}.  The rule's weights come already scaled as
    w_i e^{t_i}, which stays in double range at every supported m.
    """
    if not alpha > 0:
        raise ConfigurationError(f"decay rate must be positive, got {alpha}")
    if not isinstance(m, int) or m < 1:
        raise ConfigurationError(f"node count must be a positive integer, got {m!r}")
    if m > _LAGUERRE_MAX_NODES:
        raise ConfigurationError(f"laguerre rule supported up to {_LAGUERRE_MAX_NODES} nodes, got {m}")
    t, scaled = _gauss_rule("laguerre", m)
    return t / alpha, scaled / alpha


# the largest Gauss-Laguerre rule served; a policy, not a numerical limit
_LAGUERRE_MAX_NODES = 128


def _recurrence_top(kind: str, m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p_{m-1}, p_m) at x by the three-term recurrence in degree (DLMF 18.9.1).

    p_k is the Legendre P_k(x) or the scaled Laguerre q_k = L_k(x) e^{-x/2};
    the scaling keeps q in range out to the largest node at m = 128.
    """
    if kind == "legendre":
        prev, cur = np.ones_like(x), x
    else:
        prev = np.exp(-0.5 * x)
        cur = (1.0 - x) * prev
    for k in range(1, m):
        step = (2 * k + 1) * x if kind == "legendre" else (2 * k + 1) - x
        prev, cur = cur, (step * cur - k * prev) / (k + 1)
    return prev, cur


@functools.lru_cache(maxsize=None)
def _gauss_rule(kind: str, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre (x, w) on [-1, 1] or Gauss-Laguerre (x, w e^x), m nodes.

    Golub & Welsch (Math. Comp. 23, 221 (1969)): the nodes are the
    eigenvalues of the symmetric Jacobi matrix of the recurrence.  Two
    Newton steps on the recurrence polish them, and the weights come from
    the same recurrence at the polished nodes: w = 2(1-x^2)/(m P_{m-1})^2
    and w e^x = x/(m q_{m-1})^2.  Polish and weights run in np.longdouble
    (64-bit mantissa on x86_64), which puts both below the error of a
    float64 polish; the oracle tests in test_specfun check the result
    against 45-digit mpmath rules.  Each (kind, m) is built once per
    process; the arrays are shared, so they are read-only.
    """
    k = np.arange(1, m, dtype=float)
    if kind == "legendre":
        diagonal, off = np.zeros(m), k / np.sqrt(4.0 * k * k - 1.0)
    else:
        diagonal, off = 2.0 * np.arange(m) + 1.0, k
    x = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, -1)).astype(np.longdouble)
    for _ in range(2):
        prev, cur = _recurrence_top(kind, m, x)
        if kind == "legendre":
            x = x - cur * (x * x - 1) / (m * (x * cur - prev))
        else:
            x = x - x * cur / (m * (cur - prev))
    prev, _ = _recurrence_top(kind, m, x)
    if kind == "legendre":
        w = 2 * (1 - x * x) / (m * prev) ** 2
        x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])  # exact symmetry about 0
    else:
        w = x / (m * prev) ** 2
    x, w = x.astype(float), w.astype(float)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all entries when None), without overflow.

    The largest entry is factored out and the rest summed through log1p,
    as in scipy.special.logsumexp, whose results this reproduces.  A row
    whose entries are all -inf (an empty sum) gives -inf.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    is_top = a == top
    count = np.sum(is_top, axis=axis, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore"):  # -inf - -inf in the masked-out entries
        rest = np.sum(np.where(is_top, 0.0, np.exp(a - top)), axis=axis, keepdims=True)
    out = np.log1p(rest / count) + np.log(count) + top
    return out.item() if axis is None else np.squeeze(out, axis=axis)


def pchip(x, y):
    """Monotone piecewise-cubic Hermite interpolant of the table (x, y).

    Fritsch & Carlson (SIAM J. Numer. Anal. 17, 238 (1980)) with the
    slopes of scipy.interpolate.PchipInterpolator: the weighted harmonic
    mean of the neighbouring secants inside, zero at a local extremum or
    flat secant, and a shape-limited one-sided three-point formula at the
    ends.  ``x`` must be strictly increasing.  Returns a function of u
    that is NaN outside [x[0], x[-1]].
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    secant = np.diff(y) / h
    if x.size == 2:
        d = np.full(2, secant[0])
    else:
        d = np.zeros_like(y)
        flat = (np.sign(secant[1:]) != np.sign(secant[:-1])) | (secant[1:] == 0) | (secant[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):  # the flat entries are replaced
            inner = 1.0 / ((w1 / secant[:-1] + w2 / secant[1:]) / (w1 + w2))
        d[1:-1] = np.where(flat, 0.0, inner)
        d[0] = _pchip_end_slope(h[0], h[1], secant[0], secant[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], secant[-1], secant[-2])
    t = (d[:-1] + d[1:] - 2 * secant) / h
    c3, c2 = t / h, (secant - d[:-1]) / h - t

    def interpolant(u):
        u = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(x, u, side="right") - 1, 0, h.size - 1)
        s = u - x[i]
        out = ((c3[i] * s + c2[i]) * s + d[i]) * s + y[i]
        return np.where((u >= x[0]) & (u <= x[-1]), out, np.nan)

    return interpolant


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d
