import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hcs.errors import ConfigurationError, TruncationError
from hcs.weights import (
    WeightFamily,
    builtin_family,
    family_from_dict,
    family_from_file,
    tabulated_family,
    validate_family,
)


@pytest.fixture(scope="module")
def exponential():
    return builtin_family("exponential")


@pytest.fixture(scope="module")
def sqrt_exponential():
    return builtin_family("sqrt-exponential")


class TestBuiltinFamilies:
    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            builtin_family("gaussian")

    def test_exponential_moments_are_factorials(self, exponential):
        assert exponential.moment(0) == 1.0
        assert exponential.moment(4) == 24.0
        assert exponential.moment(5) == 120.0

    def test_sqrt_exponential_moments(self, sqrt_exponential):
        assert sqrt_exponential.moment(2) == 120.0
        assert sqrt_exponential.moment(3) == 5040.0

    def test_sqrt_exponential_m_squared(self, sqrt_exponential):
        assert sqrt_exponential.M_squared(4.0) == pytest.approx(2.0 / math.sinh(2.0), rel=1e-14)
        assert sqrt_exponential.M_squared(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_moments_match_adaptive_quadrature_oracle(self, exponential, sqrt_exponential):
        # scipy adaptive quadrature is independent of the Gauss-Laguerre path
        for fam in (exponential, sqrt_exponential):
            for n in (1, 3, 6):
                oracle, _ = quad(lambda u: u**n * fam.rho(u), 0, np.inf)
                assert fam.moment(n) == pytest.approx(oracle, rel=1e-9)

    def test_quadrature_vs_closed_form(self, exponential, sqrt_exponential):
        for fam in (exponential, sqrt_exponential):
            for n in range(13):
                closed = fam.moment(n)
                assert abs(fam.moment_by_quadrature(n) - closed) / closed <= 1e-9

    def test_moment_log_convexity(self, exponential, sqrt_exponential):
        for fam in (exponential, sqrt_exponential):
            ratios = [fam.moment(n + 1) / fam.moment(n) for n in range(12)]
            assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_negative_order_rejected(self, exponential):
        with pytest.raises(ValueError):
            exponential.moment(-1)

    def test_log_moments_table_is_the_scalar_values(self):
        grid = np.linspace(0.0, 40.0, 200)
        for fam in (builtin_family("exponential"), builtin_family("sqrt-exponential")):
            long = fam.log_moments(48)
            assert long.tobytes() == np.array([fam.log_moment(n) for n in range(49)]).tobytes()
            # a shorter table is a prefix of the kept one; a longer one replaces it
            assert fam.log_moments(12).tobytes() == long[:13].tobytes()
            assert fam.log_moments(60)[:49].tobytes() == long.tobytes()
        tabulated = tabulated_family("tab", grid, np.exp(-grid), 4)
        scalar = np.array([tabulated.log_moment(n) for n in range(7)])
        assert tabulated.log_moments(6).tobytes() == scalar.tobytes()

    def test_log_moments_are_read_only(self, exponential):
        with pytest.raises(ValueError):
            exponential.log_moments(5)[0] = 1.0


def _declared_table(builtin: str) -> WeightFamily:
    """A tabulated family that declares the built-in's exact moments up to n = 64: M^2 is its series."""
    grid = np.linspace(0.0, 60.0, 601)
    fam = builtin_family(builtin)
    return tabulated_family(builtin, grid, fam.rho(grid), 64, moments=[fam.moment(n) for n in range(65)])


@pytest.fixture(scope="module")
def factorial_table():
    return _declared_table("exponential")


class TestNormalization:
    def test_vacuum_limit(self, factorial_table):
        assert factorial_table.M_squared(0.0) == 1.0
        factorial_table.check_series_tail(0.0)

    def test_exponential_closed_form(self, factorial_table):
        for u in (0.0, 0.01, 1.0, 4.0, 10.0):
            assert factorial_table.M_squared(u) == pytest.approx(math.exp(-u), rel=1e-12, abs=0.0)

    def test_sqrt_exponential_value(self):
        # sum u^n/(2n+1)! = sinh(sqrt u)/sqrt u
        assert _declared_table("sqrt-exponential").M_squared(1.0) == pytest.approx(
            0.9224522362915716**2, rel=1e-12
        )

    def test_series_agrees_with_closed_form(self, exponential, sqrt_exponential):
        for fam in (exponential, sqrt_exponential):
            table = _declared_table(fam.name)
            for u in (0.3, 1.0, 4.0, 9.0):
                table.check_series_tail(u)
                assert table.M_squared(u) == pytest.approx(float(fam.M_squared(u)), rel=1e-10)

    def test_self_consistency(self, factorial_table):
        # M^2 * sum = 1 by construction
        u = 2.7
        n = np.arange(65)
        total = float(np.sum(u**n / np.array([float(math.factorial(int(k))) for k in n])))
        assert factorial_table.M_squared(u) * total == pytest.approx(1.0, rel=1e-12)

    def test_unconverged_tail_raises(self, factorial_table):
        # at u = 30 the last of 65 terms, 30^64/64!, is 2.5e-8 of the sum e^30
        factorial_table.check_series_tail(4.0)
        with pytest.raises(TruncationError, match="n_max=64 \\(last term / sum = 2.5"):
            factorial_table.check_series_tail(30.0)

    def test_negative_argument_rejected(self, factorial_table, exponential):
        for fam in (factorial_table, exponential):
            with pytest.raises(ValueError):
                fam.check_series_tail(-1.0)


class TestKWeight:
    def test_exponential_is_flat(self, exponential):
        for u in (0.0, 0.5, 3.0, 20.0):
            assert float(exponential.k_weight(u)) == 1.0

    def test_sqrt_exponential_value(self, sqrt_exponential):
        expected = math.exp(-1.0) * math.sinh(1.0) / 2.0
        assert float(sqrt_exponential.k_weight(1.0)) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_on_grid(self, sqrt_exponential):
        u = np.geomspace(1e-3, 50, 64)
        assert np.all(sqrt_exponential.k_weight(u) >= 0)


class TestValidateFamily:
    def test_builtins_pass(self, exponential, sqrt_exponential):
        for fam in (exponential, sqrt_exponential):
            checks = validate_family(fam, n_max=10)
            assert all(c.passed for c in checks), checks

    def test_corrupted_moment_detected(self):
        moments = [float(math.factorial(n)) for n in range(11)]
        moments[3] *= 1.01
        fam = WeightFamily(
            "corrupted",
            rho=lambda u: np.exp(-np.asarray(u, dtype=float)),
            m_squared_closed=lambda u: np.exp(-np.asarray(u, dtype=float)),
            k_closed=lambda u: np.ones_like(np.asarray(u, dtype=float)),
            declared_moments=moments,
            subst_power=1,
        )
        failed = [c for c in validate_family(fam, n_max=10) if not c.passed]
        assert failed and failed[0].name == "moments"
        assert "n=3" in failed[0].detail

    def test_inconsistent_factorization_detected(self):
        fam = WeightFamily(
            "skewed",
            rho=lambda u: np.exp(-np.asarray(u, dtype=float)),
            factorial_moment=lambda n: n,
            m_squared_closed=lambda u: np.exp(-1.5 * np.asarray(u, dtype=float)),
            k_closed=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        )
        names = [c.name for c in validate_family(fam, n_max=4) if not c.passed]
        assert "factorization" in names


class TestTabulatedFamily:
    def _exponential_table(self, n_max=6, moments=None):
        grid = np.linspace(0.0, 60.0, 600)
        return tabulated_family("tab-exp", grid, np.exp(-grid), n_max, moments=moments)

    def test_moments_close_to_factorials(self):
        fam = self._exponential_table()
        for n in range(7):
            assert fam.moment(n) == pytest.approx(math.factorial(n), rel=1e-5)

    def test_series_normalization_usable_at_small_u(self):
        fam = self._exponential_table()
        fam.check_series_tail(0.01)
        assert fam.M_squared(0.01) == pytest.approx(math.exp(-0.01), rel=1e-4)

    def test_series_tail_guard_with_few_moments(self):
        # seven moments cannot converge the series at u = 1
        fam = self._exponential_table()
        with pytest.raises(TruncationError, match="with n_max=6"):
            fam.check_series_tail(1.0)

    def test_state_constructors_apply_the_series_tail_rule(self):
        # M^2 from a 7-term series at u = 4 (last term / sum 0.117): the state's norm^2 is 1.124
        from hcs.angular import EulerAngles
        from hcs.fock1d import degen_cs, generalized_cs
        from hcs.hydrogen import HydrogenLabel, hydrogen_cs

        grid = np.linspace(0.0, 60.0, 601)
        fam = tabulated_family("tab-exp", grid, np.exp(-grid), 6)
        for build in (
            lambda check: generalized_cs(2.0, 0.0, fam, 30, check_tail=check),
            lambda check: degen_cs(2.0, 0.3, fam, 30, check_tail=check),
            lambda check: hydrogen_cs(HydrogenLabel(2.0, 0.3, EulerAngles(1.0, 0.0, 0.0)), fam, 30, check),
        ):
            with pytest.raises(TruncationError, match="not converged"):
                build(True)
            build(False)  # identically truncated comparisons still build the state
        assert np.sum(np.abs(generalized_cs(2.0, 0.0, fam, 30, check_tail=False)) ** 2) == pytest.approx(1.124, abs=1e-3)
        assert np.sum(np.abs(generalized_cs(0.05, 0.0, fam, 30)) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_json_round_trip(self, tmp_path):
        grid = np.linspace(1e-4, 40.0, 300)
        payload = {
            "name": "custom",
            "grid_u": list(grid),
            "rho": list(np.exp(-grid)),
            "n_max": 4,
        }
        path = tmp_path / "family.json"
        path.write_text(json.dumps(payload))
        fam = family_from_file(path)
        assert fam.name == "custom"
        assert fam.moment(2) == pytest.approx(2.0, rel=1e-5)

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            family_from_dict({"name": "broken", "grid_u": [0, 1]})

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            tabulated_family("bad", [1.0, 0.5], [1.0, 1.0], 2)

    def test_declared_moment_length_enforced(self):
        with pytest.raises(ConfigurationError):
            self._exponential_table(n_max=3, moments=[1.0, 1.0])
