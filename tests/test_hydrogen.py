import cmath
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hcs.angular import EulerAngles, _channel_coefficients, _channels, angular_cs, shell_dimension
from hcs.errors import NumericalError, TruncationError
from hcs.fock1d import Spectrum, label_cs, radial_factor_matrix
from hcs.hydrogen import (
    HydrogenLabel,
    evolve_hydrogen,
    hydrogen_cs,
    hydrogen_resolution_check,
    hydrogen_stability_residual,
    state_norm,
)
from hcs.weights import builtin_family
from oracles import shell_offset, spectrum_energies, total_dimension


@pytest.fixture(scope="module")
def exponential():
    return builtin_family("exponential")


@pytest.fixture(scope="module")
def sqrt_exponential():
    return builtin_family("sqrt-exponential")


ANGLES = EulerAngles(1.1, 0.7, 2.3)


class TestHydrogenLabel:
    @pytest.mark.parametrize(
        "s,gamma",
        [(-0.1, 0.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)],
    )
    def test_negative_or_non_finite_rejected(self, s, gamma):
        with pytest.raises(ValueError):
            HydrogenLabel(s, gamma, ANGLES)


class TestSpectrum:
    # the energies E_n = -omega/(n+1)^2 that the evolution phases e^{-i E_n t} carry
    def test_examples(self):
        assert spectrum_energies(Spectrum("inverse-square", 1.0), 2) == pytest.approx([-1.0, -0.25], rel=1e-15)
        assert spectrum_energies(Spectrum("inverse-square", 0.5), 3)[2] == pytest.approx(-0.5 / 9.0, rel=1e-15)

    def test_accumulation(self):
        omega = 1.3
        e = spectrum_energies(Spectrum("inverse-square", omega), 40)
        assert np.all(np.diff(e) > 0)
        assert np.all((e >= -omega * (1 + 1e-15)) & (e < 0))

    def test_domain(self):
        with pytest.raises(ValueError):
            Spectrum("inverse-square", -1.0)
        with pytest.raises(ValueError):
            Spectrum("inverse-square", 0.0)


class TestIndexing:
    def test_shell_offsets(self, exponential):
        # the flat vector holds shell n from sum_{k<n} (k+1)^2 = 0, 1, 5, 14, ... on
        assert [shell_offset(n) for n in range(4)] == [0, 1, 5, 14]
        assert total_dimension(8) == sum((n + 1) ** 2 for n in range(9))
        x = hydrogen_cs(HydrogenLabel(0.8, 0.3, ANGLES), exponential, 8, check_tail=False)
        assert len(x.coeffs) == total_dimension(8)
        for n in range(9):
            block = x.coeffs[shell_offset(n) : shell_offset(n + 1)]
            assert np.array_equal(block, x.amps[n] * x.angular.coeffs[: (n + 1) ** 2])
        rep = hydrogen_resolution_check(exponential, n_max=8)
        assert rep.dimension == total_dimension(8)


class TestHydrogenCS:
    def test_zero_radius_collapses_to_ground_shell(self, exponential):
        gamma = 1.9
        x = hydrogen_cs(HydrogenLabel(0.0, gamma, ANGLES), exponential, 4)
        assert x.coeffs[0] == pytest.approx(cmath.exp(1j * gamma), abs=1e-15)
        assert np.all(x.coeffs[1:] == 0.0)
        assert x.norm_squared() == pytest.approx(1.0, abs=1e-14)

    def test_norm_squared_closed_sum(self, exponential):
        x = hydrogen_cs(HydrogenLabel(1.0, 0.0, EulerAngles(0, 0, 0)), exponential, 20)
        # e^{-1} sum (n+1)^2 / n! = e^{-1} * 5e = 5
        assert x.norm_squared() == pytest.approx(5.0, abs=1e-8)

    def test_explicit_coefficient(self, exponential):
        x = hydrogen_cs(HydrogenLabel(1.0, 0.0, EulerAngles(0, 0, 0)), exponential, 20)
        expected = math.sqrt(3.0) * math.exp(-0.5)
        assert x.coeffs[shell_offset(1) + 3] == pytest.approx(expected, rel=1e-13)  # (l, m) = (1, 1)

    def test_shell_weight_marginal(self, sqrt_exponential):
        label = HydrogenLabel(1.4, 0.9, ANGLES)
        x = hydrogen_cs(label, sqrt_exponential, 12, check_tail=False)
        m2 = float(sqrt_exponential.M_squared(label.s**2))
        shell_weights = np.add.reduceat(np.abs(x.coeffs) ** 2, [shell_offset(n) for n in range(13)])
        for n, got in enumerate(shell_weights):
            expected = m2 * label.s ** (2 * n) * (n + 1) ** 2 / sqrt_exponential.moment(n)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_factorizes_over_angular_state(self, exponential):
        label = HydrogenLabel(0.8, 0.3, ANGLES)
        x = hydrogen_cs(label, exponential, 6, check_tail=False)
        shell = angular_cs(4, ANGLES).coeffs
        block = x.coeffs[shell_offset(4) : shell_offset(5)]
        ratio = block[np.abs(shell) > 1e-12] / shell[np.abs(shell) > 1e-12]
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-14

    def test_carries_read_only_shell_amplitudes(self, exponential):
        label = HydrogenLabel(0.8, 0.3, ANGLES)
        x = hydrogen_cs(label, exponential, 6, check_tail=False)
        assert np.array_equal(x.amps, label_cs(0.8, 0.3, exponential, "covering", 6, check_tail=False))
        for array in (x.amps, x.angular.coeffs):
            with pytest.raises(ValueError):
                array[0] = 0.0
        omega, t = 1.3, 2.1
        evolved = evolve_hydrogen(x, omega, t)
        phases = Spectrum("inverse-square", omega).evolution_phases(7, t)
        assert np.array_equal(evolved.amps, x.amps * phases)
        assert evolved.angular is x.angular
        assert np.allclose(evolved.amps, hydrogen_cs(label.shifted(omega, t), exponential, 6, check_tail=False).amps)

    def test_truncation_guard(self, exponential):
        with pytest.raises(TruncationError):
            hydrogen_cs(HydrogenLabel(1.0, 0.0, ANGLES), exponential, 8)

    def test_dimension(self, exponential):
        x = hydrogen_cs(HydrogenLabel(0.5, 0.0, ANGLES), exponential, 14)
        assert len(x.coeffs) == total_dimension(14)


class TestStateNorm:
    def test_zero_radius(self, exponential):
        assert state_norm(HydrogenLabel(0.0, 3.0, ANGLES), exponential, 6) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_closed_value(self, exponential):
        got = state_norm(HydrogenLabel(1.0, 0.0, ANGLES), exponential, 20)
        assert got == pytest.approx(math.sqrt(5.0), abs=1e-8)

    def test_cross_check_against_coefficient_sum(self, sqrt_exponential):
        label = HydrogenLabel(1.7, 0.4, ANGLES)
        x = hydrogen_cs(label, sqrt_exponential, 16, check_tail=False)
        assert state_norm(label, sqrt_exponential, 16) ** 2 == pytest.approx(
            x.norm_squared(), rel=1e-10
        )

    def test_underflowing_m_squared_is_numerical_error(self, exponential):
        # M^2(2500) = e^{-2500} underflows to 0; the norm and the state refuse
        label = HydrogenLabel(50.0, 0.0, ANGLES)
        with pytest.raises(NumericalError, match=r"M\^2\(s\^2\)"):
            state_norm(label, exponential, 24)
        with pytest.raises(NumericalError, match=r"M\^2\(s\^2\)"):
            hydrogen_cs(label, exponential, 24)


class TestEvolution:
    def test_time_zero_identity(self, exponential):
        x = hydrogen_cs(HydrogenLabel(0.7, 0.2, ANGLES), exponential, 10, check_tail=False)
        y = evolve_hydrogen(x, 1.0, 0.0)
        assert np.array_equal(x.coeffs, y.coeffs)

    def test_commutes_with_construction(self, exponential):
        label = HydrogenLabel(0.9, 0.5, ANGLES)
        omega, t = 1.0, 3.7
        evolved = evolve_hydrogen(hydrogen_cs(label, exponential, 12, check_tail=False), omega, t)
        shifted = hydrogen_cs(label.shifted(omega, t), exponential, 12, check_tail=False)
        assert np.max(np.abs(evolved.coeffs - shifted.coeffs)) <= 5e-15

    def test_norm_preserved(self, exponential):
        x = hydrogen_cs(HydrogenLabel(1.1, -0.4, ANGLES), exponential, 12, check_tail=False)
        y = evolve_hydrogen(x, 1.7, 5.0)
        assert y.norm_squared() == pytest.approx(x.norm_squared(), rel=1e-15)


class TestStabilityResidual:
    def test_random_label_example(self, exponential):
        res = hydrogen_stability_residual(HydrogenLabel(1.2, 0.5, ANGLES), exponential, 1.0, 3.7)
        assert res <= 5e-15

    def test_long_time_sqrt_family(self, sqrt_exponential):
        res = hydrogen_stability_residual(HydrogenLabel(2.0, 0.0, ANGLES), sqrt_exponential, 1.0, 100.0)
        assert res <= 5e-15

    def test_commensurate_time(self, exponential):
        t = 2 * math.pi * math.factorial(6) ** 2 / 720.0
        res = hydrogen_stability_residual(HydrogenLabel(0.8, 0.0, ANGLES), exponential, 1.0, t)
        assert res <= 5e-15

    def test_fifty_random_configurations(self, exponential, sqrt_exponential):
        rng = np.random.default_rng(17)
        worst = 0.0
        for i in range(50):
            family = exponential if i % 2 else sqrt_exponential
            label = HydrogenLabel(
                rng.uniform(0, 1.5),
                rng.uniform(-math.pi, math.pi),
                EulerAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
            )
            worst = max(
                worst,
                hydrogen_stability_residual(
                    label, family, rng.uniform(0.5, 2.0), rng.uniform(0.1, 5.0), n_max=12
                ),
            )
        assert worst <= 5e-15


def _shell_products(amps, angular):
    """The flat vector whose shell n is amps[n] times the first (n+1)^2 channels of angular."""
    return np.concatenate([amps[n] * angular[: shell_dimension(n)] for n in range(amps.size)])


def _per_shell_state(label, family, n_max):
    """Shell by shell: amplitude n times the first (n+1)^2 angular coefficients, built afresh."""
    amps = label_cs(label.s, label.gamma, family, "covering", n_max, check_tail=False)
    ob = label.omega_bar
    return _shell_products(amps, _channel_coefficients(n_max, ob.theta_bar, ob.phi_bar, ob.psi_bar))


@pytest.mark.parametrize("name", ["exponential", "sqrt-exponential"])
@pytest.mark.parametrize("n_max", [0, 1, 12, 48])
def test_shell_product_pipeline_is_bit_identical_to_per_shell(name, n_max):
    family = builtin_family(name)
    rng = np.random.default_rng([n_max, len(name)])
    cases = []
    for s in (0.0, 0.4, 1.3):
        angles = EulerAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        label = HydrogenLabel(s, rng.uniform(-math.pi, math.pi), angles)
        cases.append((label, rng.uniform(0.5, 2.0), rng.uniform(0.1, 5.0)))
    # the first label again, and the last angles at another s: both read a cached angular factor
    last, omega, t = cases[-1]
    cases += [cases[0], (HydrogenLabel(0.9, last.gamma, last.omega_bar), omega, t)]
    angular_cs.cache_clear()
    for label, omega, t in cases:
        state = hydrogen_cs(label, family, n_max, check_tail=False)
        assert state.coeffs.tobytes() == _per_shell_state(label, family, n_max).tobytes()
        phases = Spectrum("inverse-square", omega).evolution_phases(n_max + 1, t)
        evolved = evolve_hydrogen(state, omega, t).coeffs
        assert evolved.tobytes() == _shell_products(state.amps * phases, state.angular.coeffs).tobytes()
        # the flat oracle rounds each coefficient; the shell residual does not
        flat = float(np.max(np.abs(evolved - _per_shell_state(label.shifted(omega, t), family, n_max))))
        residual = hydrogen_stability_residual(label, family, omega, t, n_max)
        assert abs(residual - flat) <= 2 * np.spacing(np.max(np.abs(evolved)))
        assert residual <= 5e-15
    assert angular_cs.cache_info().misses == 3


@pytest.mark.parametrize("n_max", [12, 48])
def test_residual_matches_the_flat_oracle_at_a_large_phase(exponential, n_max):
    # the phase roundoff eps |gamma| / (n+1)^2 is far above that of either path, and at s = 3 the
    # largest deviation sits on shell 6, whose angular peak is not 1
    label = HydrogenLabel(3.0, 1e4, ANGLES)
    omega, t = 1.1, 2.7
    state = hydrogen_cs(label, exponential, n_max, check_tail=False)
    evolved = evolve_hydrogen(state, omega, t).coeffs
    flat = float(np.max(np.abs(evolved - _per_shell_state(label.shifted(omega, t), exponential, n_max))))
    residual = hydrogen_stability_residual(label, exponential, omega, t, n_max)
    assert residual > 1e-14
    assert abs(residual - flat) <= 2 * np.spacing(np.max(np.abs(evolved)))


def test_angular_factor_is_shared_and_read_only(exponential):
    # equal labels are one cache key: theta_bar -0.0 is stored as +0.0, and 1.0 + 2 pi wraps back to 1.0
    for a, b in (
        (EulerAngles(-0.0, 0.7, 2.3), EulerAngles(0.0, 0.7, 2.3)),
        (EulerAngles(1.1, 1.0, 2.3), EulerAngles(1.1, 1.0 + 2 * math.pi, 2.3)),
    ):
        assert a == b
        factor = angular_cs(12, a)
        assert factor is angular_cs(12, b)
        assert not factor.coeffs.flags.writeable
        with pytest.raises(ValueError):
            factor.coeffs[0] = 0.0
        # the cached entry keeps its O(n) peaks, not the (n+1)^2 vector it was read for
        assert "coeffs" not in vars(factor)
    states = [hydrogen_cs(HydrogenLabel(s, 0.3, ANGLES), exponential, 12, check_tail=False) for s in (0.4, 0.8)]
    assert states[0].angular is states[1].angular is angular_cs(12, ANGLES)
    assert not any(column.flags.writeable for column in _channels(12))


class TestHydrogenResolution:
    def test_scalar_shell(self, exponential):
        rep = hydrogen_resolution_check(exponential, n_max=0, gamma_window=123.0)
        assert rep.dimension == 1
        assert abs(rep.shells.matrix[0, 0] * rep.angular.gram[0, 0] - 1.0) <= 1e-12
        assert rep.certificate_satisfied

    def test_exponential_at_window(self, exponential):
        rep = hydrogen_resolution_check(exponential, n_max=8, gamma_window=1e5)
        assert rep.diag_max_dev <= 1e-10
        assert rep.certificate_satisfied
        assert rep.angular.max_identity_dev <= 1e-12
        assert rep.dimension == total_dimension(8)

    def test_channel_mismatch_entries_vanish(self, exponential):
        rep = hydrogen_resolution_check(exponential, n_max=3, gamma_window=1e4)
        # same-shell blocks reproduce the angular Gram: off-channel noise only
        for n in range(4):
            block = rep.shells.matrix[n, n] * rep.angular.gram[: shell_dimension(n), : shell_dimension(n)]
            off = ~np.eye(shell_dimension(n), dtype=bool)
            if off.any():
                assert np.max(np.abs(block[off])) <= 1e-12

    def test_window_scaling(self, exponential):
        rep_a = hydrogen_resolution_check(exponential, n_max=6, gamma_window=2.5e4)
        rep_b = hydrogen_resolution_check(exponential, n_max=6, gamma_window=1e5)
        assert rep_a.certificate_bound / rep_b.certificate_bound == pytest.approx(4.0, rel=1e-12)

    def test_sqrt_family(self, sqrt_exponential):
        rep = hydrogen_resolution_check(sqrt_exponential, n_max=6, gamma_window=1e5)
        assert rep.diag_max_dev <= 1e-10
        assert rep.certificate_satisfied

    @pytest.mark.parametrize("name", ["exponential", "sqrt-exponential"])
    @pytest.mark.parametrize("n_max", [0, 1, 3, 8])
    @pytest.mark.parametrize("window", [123.0, 1e3, 1e5])
    def test_factored_fields_match_dense(self, name, n_max, window):
        family = builtin_family(name)
        rep = hydrogen_resolution_check(family, n_max=n_max, gamma_window=window)
        # dense reference: the operator and its sinc certificate entry by entry
        radial = radial_factor_matrix(family, n_max)
        n = np.arange(n_max + 1)
        delta = 1.0 / (n[:, None] + 1.0) ** 2 - 1.0 / (n[None, :] + 1.0) ** 2
        sinc = np.sinc(window * delta / math.pi)
        dim = total_dimension(n_max)
        matrix = np.zeros((dim, dim), dtype=complex)
        cert = np.full((dim, dim), np.inf)
        for a in range(n_max + 1):
            rows = slice(shell_offset(a), shell_offset(a + 1))
            for b in range(n_max + 1):
                cols = slice(shell_offset(b), shell_offset(b + 1))
                block = rep.angular.gram[: shell_dimension(a), : shell_dimension(b)]
                matrix[rows, cols] = radial[a, b] * sinc[a, b] * block
                if a != b:
                    cert[rows, cols] = radial[a, b] / (window * abs(delta[a, b])) * np.abs(block)
        assert np.array_equal(rep.shells.matrix, radial * sinc)
        off = ~np.eye(dim, dtype=bool)
        finite = np.isfinite(cert)
        assert rep.diag_max_dev == float(np.max(np.abs(np.diag(matrix) - 1.0)))
        assert rep.offdiag_max == (float(np.max(np.abs(matrix[off]))) if dim > 1 else 0.0)
        assert rep.certificate_bound == (float(np.max(cert[finite])) if finite.any() else 0.0)
        assert rep.certificate_satisfied == bool(
            np.all(np.abs(matrix[finite]) <= cert[finite] * (1.0 + 1e-12) + 1e-15)
        )


def test_readme_library_example():
    # `import hcs` must expose everything the example uses, and its evolution residual is roundoff
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    residual = np.max(np.abs(namespace["evolved"].coeffs - namespace["shifted"].coeffs))
    assert residual <= 1e-15
    assert namespace["state"].norm_squared() == pytest.approx(5.0, abs=1e-8)
