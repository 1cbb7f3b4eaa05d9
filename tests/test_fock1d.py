import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from hcs.errors import ConfigurationError, TruncationError
from hcs.fock1d import Spectrum, label_cs, radial_factor_matrix, resolution_check_1d
from hcs.weights import builtin_family
from oracles import canonical_state, spectrum_energies

_EXPONENTIAL = builtin_family("exponential")


@pytest.fixture(scope="module")
def exponential():
    return _EXPONENTIAL


@pytest.fixture(scope="module")
def sqrt_exponential():
    return builtin_family("sqrt-exponential")


def _canonical(z, n_max, check_tail=True):
    """The canonical state at z: ``label_cs`` on the exponential family, periodic phase, r e^{i angle} = z."""
    return label_cs(abs(z), cmath.phase(z), _EXPONENTIAL, "periodic", n_max, check_tail)


def _norm_squared(coeffs):
    return float(np.sum(np.abs(coeffs) ** 2))


def _evolve(coeffs, spectrum, t):
    return coeffs * spectrum.evolution_phases(len(coeffs), t)


def _oscillator_kernel(z, w):
    return cmath.exp(-0.5 * abs(z) ** 2 - 0.5 * abs(w) ** 2 + z.conjugate() * w)


class TestSpectrum:
    # the energies E_n that the evolution phases e^{-i E_n t} carry
    def test_oscillator_energies(self):
        spec = Spectrum("oscillator", 2.0)
        assert spectrum_energies(spec, 4)[3] == pytest.approx(6.0, rel=1e-15)

    def test_inverse_square_energies(self):
        spec = Spectrum("inverse-square", 1.0)
        e = spectrum_energies(spec, 50)
        assert e[0] == pytest.approx(-1.0, rel=1e-15)
        assert np.all(np.diff(e) > 0)
        assert np.all((e < 0) & (e > -1.0 - 1e-15))

    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            Spectrum("linear", 1.0)


class TestOscillatorCS:
    def test_vacuum(self):
        x = _canonical(0.0, 16)
        assert x[0] == 1.0
        assert np.all(x[1:] == 0.0)

    def test_known_coefficient(self):
        x = _canonical(1.0, 32)
        assert x[2] == pytest.approx(0.4288819424803534, rel=1e-13)

    def test_unit_norm(self):
        for z in (1.0, 1 + 1j, 2.2 - 0.3j):
            assert _norm_squared(_canonical(z, 64)) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_modulus(self):
        a = _canonical(1.0, 64)
        b = _canonical(1 + 1j, 64)
        assert abs(np.vdot(a, b)) ** 2 == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            _canonical(3.0, 16)


class TestGeneralizedCS:
    def test_vacuum(self, exponential):
        x = label_cs(0.0, 0.7, exponential, "periodic", 16)
        assert x[0] == 1.0
        assert np.all(x[1:] == 0.0)

    def test_exponential_reproduces_oscillator(self, exponential):
        rng = np.random.default_rng(3)
        for _ in range(5):
            r = rng.uniform(0.1, 2.0)
            theta = rng.uniform(-math.pi, math.pi)
            gen = label_cs(r, theta, exponential, "periodic", 64)
            osc = canonical_state(r * cmath.exp(1j * theta), 64)
            assert np.max(np.abs(gen - osc)) <= 1e-13

    def test_phase_period(self, sqrt_exponential):
        a = label_cs(1.0, 0.0, sqrt_exponential, "periodic", 32)
        b = label_cs(1.0, 2 * math.pi, sqrt_exponential, "periodic", 32)
        assert np.max(np.abs(a - b)) <= 1e-13

    def test_unit_norm(self, sqrt_exponential):
        assert _norm_squared(label_cs(2.0, 1.0, sqrt_exponential, "periodic", 48)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_unknown_phase_rejected(self, exponential):
        with pytest.raises(ConfigurationError, match="'spiral'"):
            label_cs(1.0, 0.0, exponential, "spiral", 8)


class TestDegenCS:
    def test_vacuum_carries_phase(self, exponential):
        x = label_cs(0.0, 7.3, exponential, "covering", 8)
        assert x[0] == pytest.approx(cmath.exp(7.3j), abs=1e-15)
        assert np.all(x[1:] == 0.0)

    def test_zero_phase_real_positive(self, exponential):
        x = label_cs(1.0, 0.0, exponential, "covering", 32)
        n = np.arange(33)
        expected = np.exp(-0.5 - 0.5 * np.array([math.lgamma(k + 1) for k in n]))
        assert np.max(np.abs(x - expected)) <= 1e-14
        assert np.all(x.imag == 0.0)

    def test_covering_space_phase_not_periodic(self, exponential):
        a = label_cs(1.0, 0.0, exponential, "covering", 32)
        b = label_cs(1.0, 2 * math.pi, exponential, "covering", 32)
        # 2*pi/(n+1)^2 is not a multiple of 2*pi for n >= 1
        assert abs(a[1] - b[1]) > 0.1 * abs(a[1])


class TestOverlap:
    def test_self_overlap(self, sqrt_exponential):
        x = label_cs(1.3, 0.4, sqrt_exponential, "periodic", 48)
        assert np.vdot(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_labels(self):
        got = np.vdot(_canonical(1.0, 64), _canonical(-1.0, 64))
        assert got == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_vacuum_against_displaced(self):
        vac = np.array([1.0 + 0.0j])
        displaced = _canonical(2.0, 64)
        # the vacuum has one level: <vac|b> reads the first coefficient of b
        assert np.vdot(vac, displaced[:1]) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_reproduces_analytic_kernel(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            got = np.vdot(_canonical(z, 64, check_tail=False), _canonical(w, 64, check_tail=False))
            assert abs(got - _oscillator_kernel(z, w)) <= 1e-10


class TestEvolution:
    def test_identity_at_zero_time(self, exponential):
        x = label_cs(1.0, 0.3, exponential, "covering", 32)
        y = _evolve(x, Spectrum("inverse-square", 1.0), 0.0)
        assert np.array_equal(x, y)

    def test_oscillator_label_shift(self):
        z, omega, t = 1.0, 1.0, 0.7
        evolved = _evolve(_canonical(z, 48), Spectrum("oscillator", omega), t)
        shifted = canonical_state(z * cmath.exp(-1j * omega * t), 48)
        assert np.max(np.abs(evolved - shifted)) <= 1e-14

    def test_degenerate_label_shift(self, exponential):
        s, gamma, omega, t = 1.0, 0.4, 1.0, 2.5
        evolved = _evolve(label_cs(s, gamma, exponential, "covering", 48), Spectrum("inverse-square", omega), t)
        shifted = label_cs(s, gamma + omega * t, exponential, "covering", 48)
        assert np.max(np.abs(evolved - shifted)) <= 1e-14

    def test_norm_preserved(self, sqrt_exponential):
        x = label_cs(1.5, 1.0, sqrt_exponential, "periodic", 48)
        y = _evolve(x, Spectrum("oscillator", 1.3), 2.0)
        # pure phases: preserved up to a couple of ulps of rounding
        assert _norm_squared(y) == pytest.approx(_norm_squared(x), rel=1e-15)

    def test_period_is_exact_identity(self):
        x = _canonical(1.3, 48)
        y = _evolve(x, Spectrum("oscillator", 1.0), 2 * math.pi)
        assert np.array_equal(x, y)


class TestStabilityResidual:
    """Evolution equals the label shift to roundoff, the identity ``cli.stability_sweep`` checks."""

    def test_oscillator_example(self):
        z, spectrum, t = 1 + 2j, Spectrum("oscillator", 1.0), 0.7
        evolved = _evolve(_canonical(z, 48, check_tail=False), spectrum, t)
        shifted = _canonical(z * cmath.exp(-1j * spectrum.omega * t), 48, check_tail=False)
        assert np.max(np.abs(evolved - shifted)) <= 5e-15

    def test_degenerate_example(self, exponential):
        (s, gamma), spectrum, t = (1.5, 3.0), Spectrum("inverse-square", 1.0), 10.0
        evolved = _evolve(label_cs(s, gamma, exponential, "covering", 48, check_tail=False), spectrum, t)
        shifted = label_cs(s, gamma + spectrum.omega * t, exponential, "covering", 48, check_tail=False)
        assert np.max(np.abs(evolved - shifted)) <= 5e-15

    def test_generalized_example(self, sqrt_exponential):
        (r, theta), spectrum, t = (2.0, 1.0), Spectrum("oscillator", 1.0), math.pi
        evolved = _evolve(label_cs(r, theta, sqrt_exponential, "periodic", 48, check_tail=False), spectrum, t)
        shifted = label_cs(r, theta - spectrum.omega * t, sqrt_exponential, "periodic", 48, check_tail=False)
        assert np.max(np.abs(evolved - shifted)) <= 5e-15


class TestResolution1D:
    def test_periodic_exponential(self, exponential):
        rep = resolution_check_1d(exponential, "periodic", n_max=20)
        assert rep.diag_max_dev <= 1e-12
        assert rep.offdiag_max == 0.0
        off = ~np.eye(21, dtype=bool)
        assert np.all(rep.matrix[off] == 0.0)

    def test_periodic_certificate_is_computed(self, exponential):
        # one path for both phases: the window is one period, the bound R / (pi |n - n'|)
        rep = resolution_check_1d(exponential, "periodic", n_max=8)
        assert rep.window == math.pi and rep.certificate_satisfied
        n = np.arange(9)
        off = n[:, None] != n[None, :]
        radial = radial_factor_matrix(exponential, 8)
        bound = radial[off] / (math.pi * np.abs(n[:, None] - n[None, :])[off])
        assert np.array_equal(rep.certificate_matrix[off], bound)
        assert rep.certificate_bound == np.max(bound)

    def test_periodic_sqrt_exponential(self, sqrt_exponential):
        rep = resolution_check_1d(sqrt_exponential, "periodic", n_max=12)
        assert rep.diag_max_dev <= 1e-10

    def test_diagonal_is_moment_ratio(self, exponential):
        rep = resolution_check_1d(exponential, "periodic", n_max=8)
        for n in range(9):
            quad_moment = exponential.moment_by_quadrature(n)
            assert rep.matrix[n, n] == pytest.approx(quad_moment / exponential.moment(n), rel=1e-12)

    def test_covering_window_halving(self, exponential):
        rep1 = resolution_check_1d(exponential, "covering", 10, gamma_window=1e4)
        rep2 = resolution_check_1d(exponential, "covering", 10, gamma_window=2e4)
        ratio = rep1.offdiag_max / rep2.offdiag_max
        assert 0.3 <= ratio / 2.0 <= 3.0
        n = np.arange(11)
        delta = np.abs(1.0 / (n[:, None] + 1) ** 2 - 1.0 / (n[None, :] + 1) ** 2)
        min_delta = delta[delta > 0].min()
        assert rep1.offdiag_max <= 2.0 / (1e4 * min_delta)
        assert rep2.offdiag_max <= 2.0 / (2e4 * min_delta)

    def test_covering_certificate_bounds_every_entry(self, exponential):
        rep = resolution_check_1d(exponential, "covering", 10, gamma_window=5e3)
        off = ~np.eye(11, dtype=bool)
        assert np.all(np.abs(rep.matrix[off]) <= rep.certificate_matrix[off] * (1 + 1e-12))

    def test_certificate_scales_inversely(self, exponential):
        rep_a = resolution_check_1d(exponential, "covering", 8, gamma_window=1e3)
        rep_b = resolution_check_1d(exponential, "covering", 8, gamma_window=1e4)
        assert rep_a.certificate_bound / rep_b.certificate_bound == pytest.approx(10.0, rel=1e-12)

    def test_bad_mode_and_window(self, exponential):
        with pytest.raises(ConfigurationError):
            resolution_check_1d(exponential, "spiral", 4)
        with pytest.raises(ConfigurationError):
            resolution_check_1d(exponential, "covering", 4)

    def test_radial_factor_diagonal_is_unity(self, sqrt_exponential):
        radial = radial_factor_matrix(sqrt_exponential, 10)
        assert np.max(np.abs(np.diag(radial) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("name", ["exponential", "sqrt-exponential"])
    def test_radial_factors_against_gamma_ratios(self, name):
        # rho_n = f(n)!, so R[n, n'] = Gamma(f(nu) + 1) / sqrt(f(n)! f(n')!) with nu = (n + n')/2;
        # an odd n + n' (exponential) leaves a sqrt(u) that Gauss-Laguerre cannot integrate
        f = {"exponential": lambda n: n, "sqrt-exponential": lambda n: 2 * n + 1}[name]
        radial = radial_factor_matrix(builtin_family(name), 48)
        with mp.workdps(40):

            def ratio(a, b):
                return mp.gamma(f(mp.mpf(a + b) / 2) + 1) / mp.sqrt(mp.factorial(f(a)) * mp.factorial(f(b)))

            ref = np.array([[float(ratio(a, b)) for b in range(49)] for a in range(49)])
        off = ~np.eye(49, dtype=bool)
        assert np.max(np.abs(radial[off] / ref[off] - 1.0)) <= 1e-13
