import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from hcs.angular import (
    EulerAngles,
    _channel_coefficients,
    angular_cs,
    angular_resolution_check,
    exactness_threshold,
    shell_dimension,
    spin_direction_error,
)
from hcs.errors import ConfigurationError
from hcs.specfun import make_quadrature
from oracles import sqrt_binomial_weight


class TestEulerAngles:
    def test_wrapping(self):
        ob = EulerAngles(0.5, 7.0, -1.0)
        assert 0 <= ob.phi_bar < 2 * math.pi
        assert 0 <= ob.psi_bar < 2 * math.pi

    def test_polar_range_enforced(self):
        with pytest.raises(ValueError):
            EulerAngles(3.5, 0.0, 0.0)

    @pytest.mark.parametrize(
        "angles", [(math.nan, 0.0, 0.0), (0.5, math.nan, 0.0), (0.5, 0.0, math.inf), (0.5, -math.inf, 0.0)]
    )
    def test_non_finite_rejected(self, angles):
        with pytest.raises(ValueError):
            EulerAngles(*angles)


def _brute_force_coeff(l, m, ob):
    # direct evaluation from integer combinatorics, no log-space shortcuts
    w = math.sqrt(math.comb(2 * l, l + m))
    amp = w * math.sin(ob.theta_bar / 2) ** (l - m) * math.cos(ob.theta_bar / 2) ** (l + m)
    return amp * math.sqrt(2 * l + 1) * np.exp(-1j * (m * ob.phi_bar + l * ob.psi_bar))


def _per_channel_coeffs(n, ob):
    # one round of numpy work per (l, m) channel, scalar exponents throughout
    half_sin, half_cos = np.sin(0.5 * np.float64(ob.theta_bar)), np.cos(0.5 * np.float64(ob.theta_bar))
    out = np.zeros((n + 1) ** 2, dtype=complex)
    for l in range(n + 1):
        for m in range(-l, l + 1):
            amp = sqrt_binomial_weight(l, m) * half_sin ** (l - m) * half_cos ** (l + m)
            phase = np.exp(-1j * (m * ob.phi_bar + l * ob.psi_bar))
            out[l * l + l + m] = amp * math.sqrt(2 * l + 1) * phase
    return out


def _norm_squared(coeffs):
    return float(np.sum(np.abs(coeffs) ** 2))


def _tensor_product_gram(n, theta_nodes, phi_nodes, psi_nodes):
    # every channel on the full (theta, phi, psi) point table, weighted by the product rule
    x, w_x = make_quadrature("legendre", theta_nodes)
    theta = np.arccos(x)
    phi, _ = make_quadrature("trapezoid", phi_nodes)
    psi, _ = make_quadrature("trapezoid", psi_nodes)
    tb = np.repeat(theta, phi_nodes * psi_nodes)
    pb = np.tile(np.repeat(phi, psi_nodes), theta_nodes)
    sb = np.tile(psi, theta_nodes * phi_nodes)
    weights = np.repeat(w_x, phi_nodes * psi_nodes) * (
        (2 * math.pi / phi_nodes) * (2 * math.pi / psi_nodes) / (8.0 * math.pi**2)
    )
    table = _channel_coefficients(n, tb, pb, sb)
    return np.einsum("ap,p,bp->ab", table, weights, table.conj())


def _block_error(block, oracle):
    """max |block - oracle| / max |oracle| over one channel-l block."""
    return max(abs(mpmath.mpc(a) - b) for a, b in zip(block, oracle)) / max(abs(b) for b in oracle)


def _mp_block(l, ob):
    """Channel-l block of the angular coherent state at 30 digits, from the label's exact doubles."""
    tb, pb, sb = (mpmath.mpf(v) for v in (ob.theta_bar, ob.phi_bar, ob.psi_bar))
    half_sin, half_cos = mpmath.sin(tb / 2), mpmath.cos(tb / 2)
    return [
        mpmath.sqrt((2 * l + 1) * mpmath.binomial(2 * l, l + m))
        * half_sin ** (l - m)
        * half_cos ** (l + m)
        * mpmath.expj(-(m * pb + l * sb))
        for m in range(-l, l + 1)
    ]


class TestAngularCS:
    @pytest.mark.parametrize("n", [0, 3, 14, 48])
    def test_matches_the_per_channel_loop(self, n):
        # both round phases of up to about 2 pi (l + 1) radians; measured worst 1.18e-15 (l + 1)
        for ob in (EulerAngles(1.234, 0.56, 4.1), EulerAngles(0.0, 0.9, 1.7), EulerAngles(math.pi, 6.0, 0.3)):
            coeffs, oracle = angular_cs(n, ob).coeffs, _per_channel_coeffs(n, ob)
            for l in range(n + 1):
                block = slice(l * l, (l + 1) ** 2)
                error = _block_error(coeffs[block], oracle[block])
                assert error <= 2 * math.pi * np.finfo(float).eps * (l + 1), (l, ob)

    def test_against_30_digit_oracle(self):
        # the per-channel vector this build replaced reached 1.5344e-15 (l + 1) on these blocks, at
        # l = 1026 of the first label, where the log-space weights that both share dominate
        labels = (
            EulerAngles(1.234, 0.56, 4.1),
            EulerAngles(2.9, 5.9, 6.1),
            EulerAngles(0.4, 3.3, 1.9),
            EulerAngles(math.pi / 2, 6.2, 6.2),
        )
        with mpmath.workdps(30):
            for ob in labels:
                coeffs = _channel_coefficients(1026, ob.theta_bar, ob.phi_bar, ob.psi_bar)
                for l in (1, 7, 48, 300, 1026):
                    error = _block_error(coeffs[l * l : (l + 1) ** 2].tolist(), _mp_block(l, ob))
                    assert error <= 1.534e-15 * (l + 1), (l, ob)

    @pytest.mark.parametrize("n", [0, 1, 2, 48, 300, 1026])
    def test_cached_shell_weights_and_peaks(self, n):
        # shell k of the vector weighs the paper's (k+1)^2, and the two mode channels of each l give
        # the brute-force peak
        ends = (np.arange(n + 1) + 1) ** 2 - 1
        rng = np.random.default_rng([n, 28])
        labels = [EulerAngles(*v) for v in rng.uniform((0, 0, 0), (math.pi, 2 * math.pi, 2 * math.pi), (50, 3))]
        labels += [EulerAngles(0.0, 0.7, 2.3), EulerAngles(math.pi, 0.7, 2.3)]
        # ties of the mode: (2l+1) cos^2(theta_bar/2) = k, where channels k and k - 1 weigh the same
        for l in sorted({min(n, 1), n // 2, n} - {0}):
            labels += [EulerAngles(2 * math.acos(math.sqrt(k / (2 * l + 1))), 0.7, 2.3) for k in (1, l, 2 * l)]
        squares = (np.arange(n + 1) + 1.0) ** 2
        for ob in labels:
            factor = angular_cs(n, ob)
            modulus = np.abs(factor.coeffs)
            assert np.max(np.abs(np.cumsum(modulus**2)[ends] / squares - 1.0)) <= 1e-12, ob
            brute = np.maximum.accumulate(modulus)[ends]
            assert np.max(np.abs(factor.shell_peaks / brute - 1.0)) <= 4 * np.finfo(float).eps, ob
            assert not any(a.flags.writeable for a in (factor.coeffs, factor.shell_peaks))
        angular_cs.cache_clear()

    def test_shell_zero(self):
        shell = angular_cs(0, EulerAngles(1.0, 2.0, 3.0)).coeffs
        assert shell.shape == (1,)
        assert shell[0] == 1.0

    def test_matches_brute_force(self):
        ob = EulerAngles(1.234, 0.56, 4.1)
        shell = angular_cs(4, ob).coeffs
        for l in range(5):
            for m in range(-l, l + 1):
                assert shell[l * l + l + m] == pytest.approx(_brute_force_coeff(l, m, ob), abs=1e-13)

    def test_pole_reduction(self):
        ob = EulerAngles(0.0, 0.9, 1.7)
        shell = angular_cs(2, ob).coeffs
        nonzero = np.flatnonzero(np.abs(shell) > 0)
        # only the m = l channel survives on each l at the pole
        assert list(nonzero) == [l * l + 2 * l for l in range(3)]
        for l in range(3):
            got = shell[l * l + 2 * l]
            assert got == pytest.approx(
                math.sqrt(2 * l + 1) * np.exp(-1j * l * (ob.phi_bar + ob.psi_bar)), abs=1e-14
            )

    def test_phi_periodicity(self):
        a = angular_cs(3, EulerAngles(1.1, 0.4, 2.2)).coeffs
        b = angular_cs(3, EulerAngles(1.1, 0.4 + 2 * math.pi, 2.2)).coeffs
        assert np.max(np.abs(a - b)) <= 5e-15

    def test_shell_norm_examples(self):
        assert _norm_squared(angular_cs(0, EulerAngles(0.3, 1.0, 2.0)).coeffs) == 1.0
        assert _norm_squared(angular_cs(1, EulerAngles(1.9, 0.1, 0.2)).coeffs) == pytest.approx(4.0, abs=1e-12)
        got = _norm_squared(angular_cs(3, EulerAngles(math.pi / 3, 1.0, 2.0)).coeffs)
        assert got == pytest.approx(16.0, abs=1e-12)

    def test_shell_norm_brute_force_oracle(self):
        ob = EulerAngles(2.2, 5.1, 0.77)
        brute = sum(abs(_brute_force_coeff(l, m, ob)) ** 2 for l in range(6) for m in range(-l, l + 1))
        assert _norm_squared(angular_cs(5, ob).coeffs) == pytest.approx(brute, rel=1e-13)
        assert brute == pytest.approx(36.0, abs=1e-11)

    def test_norm_label_independence(self):
        rng = np.random.default_rng(5)
        for n in range(7):
            target = shell_dimension(n)
            samples = [
                _norm_squared(
                    angular_cs(
                        n,
                        EulerAngles(
                            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
                        ),
                    ).coeffs
                )
                for _ in range(100)
            ]
            assert np.std(samples) <= 1e-12
            assert np.max(np.abs(np.array(samples) - target)) <= 1e-12

    def test_channel_weights_sum_to_2l_plus_1(self):
        # sum_m A_lm^2 = (2l+1) (sin^2 + cos^2)^(2l): the weight the radial forms use
        rng = np.random.default_rng(11)
        theta_bar = rng.uniform(0.0, math.pi, 64)
        phi_bar, psi_bar = rng.uniform(0.0, 2 * math.pi, (2, 64))
        l = np.arange(49)
        modulus = np.abs(_channel_coefficients(48, theta_bar, phi_bar, psi_bar))
        sums = np.add.reduceat(modulus**2, l * l, axis=0)
        assert np.max(np.abs(sums / (2 * l + 1.0)[:, None] - 1.0)) <= 1e-13


    def test_last_finite_shell(self):
        # the weights reach e^709.1 at l = 1026 and would pass the largest double at 1027
        l = np.repeat(np.arange(1027), 2 * np.arange(1027) + 1)
        for ob in (EulerAngles(1.1, 0.7, 2.3), EulerAngles(0.0, 0.0, 0.0)):
            coeffs = angular_cs(1026, ob).coeffs
            assert np.all(np.isfinite(coeffs))
            sums = np.bincount(l, np.abs(coeffs) ** 2)
            assert np.max(np.abs(sums / (2 * np.arange(1027) + 1.0) - 1.0)) <= 1e-11
        with pytest.raises(ConfigurationError, match="shell 1027 is past 1026"):
            angular_cs(1027, EulerAngles(1.1, 0.7, 2.3))



class TestSpinCoherence:
    """Pins the angular convention: the phase e^{-i m phi_bar} must point <L> along phi_bar."""

    LABELS = [
        EulerAngles(*v)
        for v in np.random.default_rng(26).uniform((0.0, 0.0, 0.0), (math.pi, 2 * math.pi, 2 * math.pi), (50, 3))
    ]

    def test_mean_angular_momentum_points_along_the_label(self):
        # the phases m phi_bar round to about eps l 2 pi: 8.9e-14 over l <= 60 for these labels
        assert max(spin_direction_error(60, ob) for ob in self.LABELS) <= 1e-12

    def test_shell_zero_has_no_direction(self):
        assert spin_direction_error(0, self.LABELS[0]) == 0.0

    def test_azimuth_flipped_mutant_fails(self, monkeypatch):
        from hcs import angular

        original = angular._channel_coefficients

        def flipped(l_max, theta_bar, phi_bar, psi_bar):
            return original(l_max, theta_bar, -np.asarray(phi_bar), psi_bar)

        monkeypatch.setattr(angular, "_channel_coefficients", flipped)
        angular_cs.cache_clear()
        try:
            assert max(spin_direction_error(60, ob) for ob in self.LABELS) > 1.0
        finally:
            angular_cs.cache_clear()


class TestAngularResolution:
    def test_shell_zero_is_scalar_one(self):
        rep = angular_resolution_check(0)
        assert rep.gram.shape == (1, 1)
        assert abs(rep.gram[0, 0] - 1.0) <= 1e-15

    def test_all_shells_to_six_at_threshold(self):
        for n in range(7):
            rep = angular_resolution_check(n)
            assert rep.max_identity_dev <= 1e-12, f"shell {n}"
            assert rep.gram.shape == (shell_dimension(n),) * 2
            assert np.linalg.matrix_rank(rep.gram) == shell_dimension(n)

    # the oracle runs at the threshold, and twice at finer rules, which are exact too
    @pytest.mark.parametrize(
        "n,nodes",
        [(n, (2 * n + 1,) * 3) for n in range(6)] + [(3, (9, 12, 10)), (6, (20, 13, 17)), (6, (13, 13, 13))],
    )
    def test_matches_tensor_product_quadrature(self, n, nodes):
        rep = angular_resolution_check(n)
        assert np.max(np.abs(rep.gram - _tensor_product_gram(n, *nodes))) <= 1e-13

    def test_threshold_enforced(self):
        assert exactness_threshold(5) == 11

    def test_brute_force_oracle_shell_one(self):
        # independent 1-D adaptive integrations of the factorized integrand
        rep = angular_resolution_check(1)
        channels = [(0, 0), (1, -1), (1, 0), (1, 1)]

        def theta_part(la, ma, lb, mb):
            def f(t):
                amp_a = math.sqrt(math.comb(2 * la, la + ma)) * math.sin(t / 2) ** (
                    la - ma
                ) * math.cos(t / 2) ** (la + ma) * math.sqrt(2 * la + 1)
                amp_b = math.sqrt(math.comb(2 * lb, lb + mb)) * math.sin(t / 2) ** (
                    lb - mb
                ) * math.cos(t / 2) ** (lb + mb) * math.sqrt(2 * lb + 1)
                return amp_a * amp_b * math.sin(t)

            return quad(f, 0, math.pi)[0]

        def angle_part(k):
            re = quad(lambda p: math.cos(k * p), 0, 2 * math.pi)[0]
            im = quad(lambda p: math.sin(k * p), 0, 2 * math.pi)[0]
            return complex(re, -im)

        for a, (la, ma) in enumerate(channels):
            for b, (lb, mb) in enumerate(channels):
                oracle = (
                    theta_part(la, ma, lb, mb)
                    * angle_part(ma - mb)
                    * angle_part(la - lb)
                    / (8 * math.pi**2)
                )
                assert rep.gram[a, b] == pytest.approx(oracle, abs=1e-10)
