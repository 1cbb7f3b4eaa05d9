import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import roots_laguerre, roots_legendre, sph_harm_y

from hcs import angular
from hcs.angular import EulerAngles, _binomial_weights, _channels, angular_cs
from hcs.errors import ConfigurationError
from hcs.specfun import (
    _gauss_rule,
    _legendre_table,
    exp_decay_rule,
    log_factorial,
    logsumexp,
    make_quadrature,
    pchip,
    radial_eigenfunction,
    radial_table,
    spherical_harmonic_table,
)
from oracles import radial_by_degree, scaled_laguerre, sqrt_binomial_weight


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_small_exact(self):
        # frozen from extended-precision references
        assert log_factorial(5) == pytest.approx(4.787491742782046, rel=1e-15)
        assert log_factorial(20) == pytest.approx(42.335616460753485, rel=1e-15)

    def test_large_vs_exact_integer(self):
        for k in (25, 60, 170):
            exact = math.log(math.factorial(k))
            assert abs(log_factorial(k) - exact) / exact <= 1e-14

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


def _weights(l_max):
    """w[l*l + l + m] = sqrt((2l)!/((l+m)!(l-m)!)) for l <= l_max, from the library's one copy."""
    l, m = _channels(l_max)
    return _binomial_weights(l_max, l, l + m)


class TestSqrtBinomialWeight:
    """The spin coherent-state amplitudes of ``angular._binomial_weights``, on specfun's log factorials."""

    def test_edge_cases(self):
        w = _weights(2)
        assert w[0] == 1.0
        assert w[2] == pytest.approx(math.sqrt(2), rel=1e-14)  # (l, m) = (1, 0)
        assert w[8] == pytest.approx(1.0, rel=1e-14)  # (2, 2)

    def test_mirror_symmetry(self):
        w = _weights(12)
        for l in range(13):
            for m in range(l + 1):
                assert w[l * l + l + m] == w[l * l + l - m]

    def test_against_exact_combinatorics(self):
        w = _weights(12)
        for l in range(13):
            for m in range(-l, l + 1):
                exact = math.sqrt(math.comb(2 * l, l + m))
                assert w[l * l + l + m] == pytest.approx(exact, rel=1e-13)

    def test_domain_error(self, monkeypatch):
        # the central weight of l = 1027, e^709.84, is past the largest double: angular_cs refuses
        # the shell before it forms any weight
        with pytest.raises(OverflowError):
            _binomial_weights(1027, np.array([1027]), np.array([1027]))
        assert np.all(np.isfinite(_weights(1026)))
        monkeypatch.setattr(angular, "_binomial_weights", None)  # any call would raise TypeError
        for n in (1027, 20_000_000):
            with pytest.raises(ConfigurationError, match=f"shell {n} is past 1026"):
                angular_cs(n, EulerAngles(1.1, 0.7, 2.3))

    @pytest.mark.parametrize("l_max", [60, 500, 1026])
    def test_bit_for_bit_against_the_scalar_oracle(self, l_max):
        # every channel l <= 60, and the top block of 500 and 1026
        l, m = _channels(l_max)
        pick = slice(None) if l_max <= 60 else slice(l_max * l_max, None)
        oracle = [sqrt_binomial_weight(a, b) for a, b in zip(l[pick].tolist(), m[pick].tolist())]
        assert _binomial_weights(l_max, l[pick], (l + m)[pick]).tobytes() == np.array(oracle).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(0, 12), theta=st.floats(0.0, math.pi))
    def test_binomial_collapse(self, l, theta):
        # sum_m w^2 sin^(2(l-m)) cos^(2(l+m)) of the half angle telescopes to 1
        w = _weights(l)
        total = sum(
            w[l * l + l + m] ** 2
            * math.sin(theta / 2) ** (2 * (l - m))
            * math.cos(theta / 2) ** (2 * (l + m))
            for m in range(-l, l + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_binomial_collapse_on_grid(self):
        w = _weights(12)
        for l in range(13):
            for theta in np.linspace(0.0, math.pi, 50):
                total = sum(
                    w[l * l + l + m] ** 2
                    * math.sin(theta / 2) ** (2 * (l - m))
                    * math.cos(theta / 2) ** (2 * (l + m))
                    for m in range(-l, l + 1)
                )
                assert abs(total - 1.0) <= 1e-12


class TestSphericalHarmonic:
    # Y_lm is row l*l + l + m of the table
    def test_constant_mode(self):
        assert spherical_harmonic_table(0, [0.7], [1.3])[0, 0] == pytest.approx(
            0.28209479177387814, rel=1e-13
        )

    def test_pole_value(self):
        assert spherical_harmonic_table(1, [0.0], [0.0])[2, 0] == pytest.approx(
            0.4886025119029199, rel=1e-13
        )

    def test_condon_shortley_sign(self):
        got = spherical_harmonic_table(1, [math.pi / 2], [0.0])[3, 0]
        assert got == pytest.approx(-0.3454941494713355, rel=1e-13)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            l = int(rng.integers(0, 7))
            m = int(rng.integers(-l, l + 1))
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            ref = complex(sph_harm_y(l, m, theta, phi))
            got = spherical_harmonic_table(l, [theta], [phi])[l * l + l + m, 0]
            assert got == pytest.approx(ref, abs=1e-13)

    def test_gram_identity(self):
        # exact quadrature: Gauss-Legendre in cos(theta), uniform azimuth
        l_max = 6
        x, w_x = make_quadrature("legendre", l_max + 1)
        n_phi = 2 * l_max + 1
        phi, _ = make_quadrature("trapezoid", n_phi)
        theta = np.arccos(x)
        tb = np.repeat(theta, n_phi)
        pb = np.tile(phi, theta.size)
        w = np.repeat(w_x, n_phi) * (2 * math.pi / n_phi)
        table = spherical_harmonic_table(l_max, tb, pb)
        gram = np.einsum("ap,p,bp->ab", table, w, table.conj())
        assert np.max(np.abs(gram - np.eye((l_max + 1) ** 2))) <= 1e-12


def _per_order_legendre(l_max, x):
    # the double loop over (m, l), one recurrence step per entry
    x = np.asarray(x, dtype=float)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    table = np.zeros((l_max + 1, l_max + 1) + x.shape)
    table[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        table[m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * sin_t * table[m - 1, m - 1]
    for m in range(l_max):
        table[m + 1, m] = math.sqrt(2 * m + 3) * x * table[m, m]
    for m in range(l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            table[l, m] = a * (x * table[l - 1, m] - b * table[l - 2, m])
    return table


def _per_channel_ylm(l_max, theta, phi):
    # one round of numpy work per (l, m), on aligned samples
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    p = _per_order_legendre(l_max, np.cos(theta))
    out = np.zeros(((l_max + 1) ** 2, theta.size), dtype=complex)
    for l in range(l_max + 1):
        for m in range(l + 1):
            pos = p[l, m] * np.exp(1j * m * phi)
            out[l * l + l + m] = pos
            if m > 0:
                out[l * l + l - m] = (-1) ** m * np.conj(pos)
    return out


@pytest.mark.parametrize("l_max", [0, 1, 2, 8, 24, 48, 300])
def test_ylm_table_is_bit_identical_to_per_channel_loop(l_max):
    rng = np.random.default_rng(l_max)
    # the poles and phi = 0, on their own and together
    theta = np.concatenate(([0.0, math.pi, 0.0, math.pi, 1.2], rng.uniform(0, math.pi, 7)))
    phi = np.concatenate(([0.0, 0.0, 2.1, 5.3, 0.0], rng.uniform(0, 2 * math.pi, 7)))
    assert spherical_harmonic_table(l_max, theta, phi).tobytes() == _per_channel_ylm(l_max, theta, phi).tobytes()
    # a separable grid: theta[:, None] against phi equals the angles repeated and tiled
    t, p = theta[3:8], phi[4:8]
    grid = spherical_harmonic_table(l_max, t[:, None], p)
    assert grid.tobytes() == _per_channel_ylm(l_max, np.repeat(t, p.size), np.tile(p, t.size)).tobytes()
    x = np.cos(t)[:, None]
    assert _legendre_table(l_max, x).tobytes() == _per_order_legendre(l_max, x).tobytes()


def _divided_difference(values, points):
    table = list(values)
    k = len(points) - 1
    for order in range(1, k + 1):
        table = [
            (table[i + 1] - table[i]) / (points[i + order] - points[i])
            for i in range(len(table) - 1)
        ]
    return table[0]


def _divided_difference_scale(values, points):
    # roundoff amplification of the top-order divided difference
    total = 0.0
    for i, z in enumerate(points):
        denom = math.prod(abs(z - zj) for j, zj in enumerate(points) if j != i)
        total += abs(values[i]) / denom
    return total


def _confluent(n, l, z):
    """F(-n+l, 2l+2, z) = k!/(a+1)_k L_k^(a)(z), k = n - l, a = 2l + 1 (DLMF 18.5.12), at points z."""
    k, a = n - l, 2 * l + 1
    p, _ = scaled_laguerre(k, a, z)
    return p / math.sqrt(math.comb(k + a, k))


class TestConfluentPolynomial:
    def test_single_term(self):
        assert _confluent(0, 0, [17.3])[0] == 1.0

    def test_two_term_zero(self):
        assert _confluent(1, 0, [2.0])[0] == 0.0

    def test_three_term(self):
        assert _confluent(2, 0, [1.0])[0] == pytest.approx(1.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("n,l", [(3, 0), (5, 2), (8, 3), (12, 0)])
    def test_exact_degree(self, n, l):
        d = n - l
        pts_a = [0.5 * (j + 1) for j in range(d + 1)]
        pts_b = [0.7 * (j + 1) + 0.1 for j in range(d + 1)]
        lead_a = _divided_difference(_confluent(n, l, pts_a).tolist(), pts_a)
        lead_b = _divided_difference(_confluent(n, l, pts_b).tolist(), pts_b)
        # order-d divided difference is the constant leading coefficient
        assert lead_a == pytest.approx(lead_b, rel=1e-8)
        pts_c = [0.4 * (j + 1) for j in range(d + 2)]
        vals_c = _confluent(n, l, pts_c).tolist()
        above = _divided_difference(vals_c, pts_c)
        assert abs(above) <= 1e-9 * _divided_difference_scale(vals_c, pts_c)


class TestRadialEigenfunction:
    def test_normalization_values(self):
        # the normalization constant N is u(0) for l = 0; for (n, l) = (1, 1), u = N r e^{-r/2}
        assert radial_eigenfunction(0, 0, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert radial_eigenfunction(1, 0, 0.0) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        r = np.array([0.1, 1.0, 2.5, 7.0, 20.0])
        expected = 0.20412414523193151 * r * np.exp(-r / 2)
        assert radial_eigenfunction(1, 1, r) == pytest.approx(expected, rel=1e-13)

    def test_ground_state_origin(self):
        assert radial_eigenfunction(0, 0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_2s_node(self):
        assert abs(radial_eigenfunction(1, 0, 2.0)) <= 1e-12

    def test_ground_state_norm_against_laguerre_oracle(self):
        t, scaled = exp_decay_rule(1.0, 64)
        # independent route: u1(r)^2 r^2 = 4 r^2 e^{-2r}; substitute t = 2r
        val = float(np.sum(scaled * np.exp(-t) * (t / 2.0) ** 2)) / 2.0 * 4.0
        assert val == pytest.approx(1.0, rel=1e-13)
        r, w = exp_decay_rule(2.0, 64)
        assert np.dot(w, radial_eigenfunction(0, 0, r) ** 2 * r * r) == pytest.approx(1.0, rel=1e-12)

    def test_orthonormality_per_channel(self):
        n_top = 8
        r, w = exp_decay_rule(2.0 / (n_top + 1), 96)
        worst = 0.0
        for l in range(n_top + 1):
            funcs = np.array([radial_eigenfunction(n, l, r) for n in range(l, n_top + 1)])
            gram = np.einsum("ar,r,br->ab", funcs, w * r * r, funcs)
            worst = max(worst, np.max(np.abs(gram - np.eye(len(funcs)))))
        assert worst <= 1e-10

    def test_quad_oracle_off_diagonal(self):
        # adaptive quadrature as a rule-independent cross-check
        val, _ = quad(lambda r: radial_eigenfunction(2, 0, r) * radial_eigenfunction(4, 0, r) * r * r, 0, 200)
        assert abs(val) <= 1e-10

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_eigenfunction(0, 0, -0.5)


def _mpmath_radial(n, l, radii):
    """u from mpmath.hyp1f1 at 60 digits."""
    with mp.workdps(60):
        norm = (
            mp.sqrt(mp.factorial(n + l + 1) / (2 * (n + 1) * mp.factorial(n - l)))
            / mp.factorial(2 * l + 1)
            * (mp.mpf(2) / (n + 1)) ** 1.5
        )

        def u(r):
            z = 2 * r / (n + 1)
            return norm * z**l * mp.hyp1f1(l - n, 2 * l + 2, z) * mp.exp(-z / 2)

        return np.array([float(u(mp.mpf(r))) for r in radii])


class TestRadialOracle:
    @pytest.mark.parametrize(
        "n,l",
        [(0, 0), (5, 2), (20, 3), (40, 0), (100, 10), (150, 149), (200, 0), (200, 100), (200, 200)],
    )
    def test_against_mpmath(self, n, l):
        r = np.linspace(0.0, 2.5 * (n + 1) ** 2, 41)
        u = radial_eigenfunction(n, l, r)
        assert np.all(np.isfinite(u))
        ref = _mpmath_radial(n, l, r)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [300, 600, 1026])
    def test_deep_shells_against_mpmath(self, n):
        # past n = 250 the recurrence used to overflow inside r < 3 N^2 and give nan;
        # 1026 is the last shell the commands accept.  The 15 radii on [0.05, 6] sit below the
        # grid's first nonzero radius, 4 N^2 / 40, where l = 0 takes its largest values
        big_n = n + 1
        r = np.concatenate([np.linspace(0.0, 4.0 * big_n**2, 41), [1e3 * big_n**2], np.linspace(0.05, 6.0, 15)])
        for l in (0, n // 2, n):
            u = radial_eigenfunction(n, l, r)
            assert np.all(np.isfinite(u)), (n, l)
            ref = _mpmath_radial(n, l, r)
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, l)

    @pytest.mark.parametrize("n", [600, 1026])
    def test_far_tail_relative_accuracy(self, n):
        # far below max|u|, where only a relative bound shows whether each value keeps its digits
        big_n = n + 1
        r = np.arange(2, 9) * 0.5 * big_n**2  # N^2 to 4 N^2 in steps of N^2 / 2
        for l in (0, n // 2, n):
            u, ref = radial_eigenfunction(n, l, r), _mpmath_radial(n, l, r)
            kept = np.abs(ref) > 1e-280
            assert np.any(kept), (n, l)
            assert np.all(np.abs(u - ref)[kept] <= 1e-10 * np.abs(ref)[kept]), (n, l)

    @pytest.mark.parametrize("n", [0, 1, 48, 600, 1026])
    def test_origin_closed_form(self, n):
        # u_n^0(0) = 2 / N^{3/2} and u_n^l(0) = 0 for l >= 1: every channel of the table, and
        # the single function at the first, second, middle and last
        big_n = n + 1
        channels = sorted({0, min(1, n), n // 2, n})
        for u in (radial_table(n, [0.0])[n, :, 0], [radial_eigenfunction(n, l, 0.0) for l in channels]):
            assert u[0] == pytest.approx(2.0 / big_n**1.5, rel=1e-15, abs=0.0), n
            assert all(value == 0.0 for value in u[1:]), n

    @pytest.mark.parametrize("n", [1, 2, 7, 24, 61, 130, 200])
    def test_ladder_matches_the_degree_recurrence(self, n):
        # every channel of the shell, from one table sweep, against k = n - l steps in degree
        r = np.linspace(0.0, 2.5 * (n + 1) ** 2, 41)
        u = radial_table(n, r)[n]
        for l in range(n + 1):
            ref = radial_by_degree(n, l, r)
            assert np.max(np.abs(u[l] - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, l)

    def test_finite_to_shell_200(self):
        # radii at 0, 1/3, 2/3 and 1 of 3(n+1)^2 for shells spread over 0..200
        r = np.unique([3.0 * (n + 1) ** 2 * q for n in range(0, 201, 50) for q in (0, 1 / 3, 2 / 3, 1)])
        assert np.all(np.isfinite(radial_table(200, r)))

    @pytest.mark.parametrize("n", [0, 10, 600, 1026])
    def test_far_radii_are_signed_zeros(self, n):
        # e^{-r/(n+1)} is far below the least double there; the recurrence used to overflow and give nan
        # 1.7e308 passes half the largest double, where 2 r used to overflow to inf and u to nan
        far = np.array([1e126, 1e150, 1e300, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for l in (0, n // 2, n):
                u = radial_eigenfunction(n, l, far)
                assert np.all(u == 0.0), (n, l)
                # past every zero of L_k the polynomial, and so the zero, has the sign (-1)^k
                assert np.all(np.signbit(u) == bool((n - l) % 2)), (n, l)

    def test_far_radii_leave_near_values_alone(self):
        # far radii in the same call used to overflow, and the nan they left in the rescaling
        # test held back the rescaling of every other radius
        near = np.array([1.0, 4.49e4, 2.06e5, 5e5])
        for n in (200, 600):
            for l in (0, 7, n):
                alone = radial_eigenfunction(n, l, near)
                mixed = radial_eigenfunction(n, l, np.concatenate([near, [1e126, 1e150, 1e300]]))
                assert mixed[: near.size].tobytes() == alone.tobytes(), (n, l)

    def test_table_rows_equal_single_functions(self):
        r = np.linspace(0.0, 120.0, 57)
        u = radial_table(12, r)
        assert u.shape == (13, 13, r.size)
        for n in range(13):
            for l in range(13):
                if l <= n:
                    assert np.array_equal(u[n, l], radial_eigenfunction(n, l, r))
                else:
                    assert not np.any(u[n, l])


class TestMakeQuadrature:
    def test_single_node_legendre(self):
        nodes, weights = make_quadrature("legendre", 1)
        assert nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert weights[0] == pytest.approx(2.0, rel=1e-15)

    def test_laguerre_two_nodes_closed_form(self):
        x, scaled = exp_decay_rule(1.0, 2)
        assert x == pytest.approx([2 - math.sqrt(2), 2 + math.sqrt(2)], rel=1e-14)
        assert scaled * np.exp(-x) == pytest.approx(
            [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], rel=1e-13
        )

    def test_legendre_monomial(self):
        nodes, weights = make_quadrature("legendre", 16)
        assert weights @ nodes**14 == pytest.approx(2.0 / 15.0, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(2, 12),
        coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
    )
    def test_legendre_polynomial_exactness(self, m, coeffs):
        degree = min(len(coeffs) - 1, 2 * m - 1)
        coeffs = coeffs[: degree + 1]
        nodes, weights = make_quadrature("legendre", m)
        got = weights @ sum(c * nodes**k for k, c in enumerate(coeffs))
        exact = sum(2.0 * c / (k + 1) for k, c in enumerate(coeffs) if k % 2 == 0)
        assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)

    def test_trapezoid_kills_integer_frequencies(self):
        nodes, weights = make_quadrature("trapezoid", 9)
        for k in range(1, 9):
            val = np.sum(weights * np.exp(1j * k * nodes))
            assert abs(val) <= 1e-13
        assert np.sum(weights) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_laguerre_stable_at_128(self):
        x, scaled = exp_decay_rule(1.0, 128)
        weights = scaled * np.exp(-x)
        assert np.all(np.diff(x) > 0)
        assert np.all(weights > 0)
        assert weights @ x**20 == pytest.approx(math.factorial(20), rel=1e-13)

    def test_invariants_all_kinds(self):
        rules = [make_quadrature("legendre", 24), make_quadrature("trapezoid", 24)]
        for nodes, weights in rules + [exp_decay_rule(1.0, 24)]:
            assert np.all(np.diff(nodes) > 0)
            assert np.all(weights > 0)
        assert -1.0 < rules[0][0][0] and rules[0][0][-1] < 1.0
        assert rules[1][0][0] == 0.0 and rules[1][0][-1] < 2 * math.pi

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            make_quadrature("legendre", 0)
        for kind in ("chebyshev", "laguerre"):  # Gauss-Laguerre rules come from exp_decay_rule
            with pytest.raises(ConfigurationError):
                make_quadrature(kind, 4)

    def test_rules_are_shared_and_read_only(self):
        (nodes, weights), (again, _) = _gauss_rule("laguerre", 96), _gauss_rule("laguerre", 96)
        assert nodes is again
        r, w = exp_decay_rule(1.0, 96)
        assert np.array_equal(r, nodes)
        assert np.array_equal(w, weights)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ConfigurationError):
            exp_decay_rule(1.0, 129)


def _mp_gauss_rule(kind, m, start):
    """40-digit Gauss rule by Newton from the float nodes ``start``.

    Returns the nodes and w (Legendre) or w e^x (Laguerre), from the
    three-term recurrence evaluated in mpmath.
    """
    with mp.workdps(45):
        nodes, weights = [], []
        for x in start:
            x = mp.mpf(float(x))
            for step in range(4):
                prev, cur = mp.mpf(1), (x if kind == "legendre" else 1 - x)
                for k in range(1, m):
                    factor = (2 * k + 1) * x if kind == "legendre" else 2 * k + 1 - x
                    prev, cur = cur, (factor * cur - k * prev) / (k + 1)
                if step == 3:
                    break
                if kind == "legendre":
                    x -= cur * (x * x - 1) / (m * (x * cur - prev))
                else:
                    x -= x * cur / (m * (cur - prev))
            nodes.append(x)
            if kind == "legendre":
                weights.append(2 * (1 - x * x) / (m * prev) ** 2)
            else:
                weights.append(x * mp.exp(x) / (m * prev) ** 2)
        return nodes, weights


def _rule_errors(kind, nodes, weights, ref_nodes, ref_weights):
    """(node error, max relative weight error); Laguerre node errors are relative."""
    node_err = weight_err = 0.0
    for x, w, rx, rw in zip(nodes, weights, ref_nodes, ref_weights):
        dx = abs(mp.mpf(float(x)) - rx)
        node_err = max(node_err, float(dx if kind == "legendre" else dx / rx))
        weight_err = max(weight_err, float(abs(mp.mpf(float(w)) - rw) / rw))
    return node_err, weight_err


class TestGaussRuleOracle:
    """Node and weight errors against 40-digit rules, no worse than scipy's at the same m."""

    @pytest.mark.parametrize("m", [1, 2, 16, 65, 129])
    def test_legendre(self, m):
        sx, sw = roots_legendre(m)
        ref = _mp_gauss_rule("legendre", m, sx)
        ours = _rule_errors("legendre", *make_quadrature("legendre", m), *ref)
        theirs = _rule_errors("legendre", sx, sw, *ref)
        assert ours[0] <= theirs[0] and ours[1] <= theirs[1], (ours, theirs)

    @pytest.mark.parametrize("m", [1, 2, 16, 64, 96, 128])
    def test_laguerre_scaled_weights(self, m):
        sx, sw = roots_laguerre(m)
        ref = _mp_gauss_rule("laguerre", m, sx)
        x, scaled = exp_decay_rule(1.0, m)
        ours = _rule_errors("laguerre", x, scaled, *ref)
        theirs = _rule_errors("laguerre", sx, [mp.mpf(float(w)) * mp.exp(float(v)) for v, w in zip(sx, sw)], *ref)
        assert ours[0] <= theirs[0] and ours[1] <= theirs[1], (ours, theirs)


class TestPchip:
    TABLES = {
        "monotone": (np.array([0.0, 0.3, 1.1, 1.2, 2.5, 4.0, 7.5]), np.array([0.0, 0.1, 0.9, 0.95, 2.0, 2.0, 5.0])),
        "non-monotone": (np.array([0.0, 0.5, 0.7, 1.6, 2.0, 3.1, 3.3, 5.0]), np.array([1.0, 3.0, -1.0, -0.5, 2.0, 2.0, 0.1, 4.0])),
        "decaying": (np.linspace(0.0, 60.0, 600), np.exp(-np.linspace(0.0, 60.0, 600))),
        "two points": (np.array([1.0, 3.0]), np.array([2.0, -1.0])),
        "steep ends": (np.array([0.0, 1.0, 1.1, 3.0, 3.05]), np.array([0.0, 5.0, 5.2, -3.0, -2.0])),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_matches_scipy(self, name):
        x, y = self.TABLES[name]
        u = np.concatenate([x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 997)])
        ours = pchip(x, y)(u)
        theirs = PchipInterpolator(x, y, extrapolate=False)(u)
        inside = (u >= x[0]) & (u <= x[-1])
        assert np.array_equal(np.isnan(ours), ~inside)
        assert np.array_equal(np.isnan(theirs), ~inside)
        scale = np.max(np.abs(y))
        assert np.max(np.abs(ours[inside] - theirs[inside])) <= 1e-14 * scale
        assert np.array_equal(pchip(x, y)(x[:-1]), y[:-1])  # each cubic starts at its knot value


class TestLogsumexp:
    ROWS = np.array(
        [
            [0.5, -1.0, 3.0, 3.0, -np.inf],
            [-np.inf] * 5,
            [-700.0, -745.0, -800.0, -np.inf, -710.0],
            [1e3, 2.0, -np.inf, 1e3 - 1e-9, 0.0],
        ]
    )

    @pytest.mark.parametrize("rows", [ROWS, ROWS[1:2], ROWS[2:]])
    def test_matches_scipy(self, rows):
        for axis in (None, 1):
            ours = logsumexp(rows, axis=axis)
            theirs = scipy_logsumexp(rows, axis=axis)
            np.testing.assert_allclose(ours, theirs, rtol=1e-15, atol=0)
        assert np.isneginf(logsumexp(self.ROWS, axis=1)[1])
