import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from hcs.angular import EulerAngles, angular_cs
from hcs.errors import ConfigurationError, NumericalError
from hcs.cli import write_csv
from hcs.fock1d import Spectrum, label_cs
from hcs import position
from hcs.hydrogen import (
    HydrogenExpansion,
    HydrogenLabel,
    evolve_hydrogen,
    hydrogen_cs,
)
from hcs.position import (
    DENSITY_CSV_HEADER,
    GridSpec,
    eval_hydrogen_cs_position,
    export_density_grid,
    quadrature_norm_squared,
    radial_expectation,
    radial_uncertainty_product,
)
from hcs.specfun import radial_eigenfunction, radial_table, spherical_harmonic_table
from hcs.weights import builtin_family
from oracles import shell_offset, total_dimension


@pytest.fixture(scope="module")
def exponential():
    return builtin_family("exponential")


ANGLES = EulerAngles(1.1, 0.7, 2.3)
GROUND_LABEL = HydrogenLabel(0.0, 0.0, EulerAngles(0.0, 0.0, 0.0))


def _ground(family):
    return hydrogen_cs(GROUND_LABEL, family, 0)


def _channel_matrix(coeffs, n_max, l):
    """C_l[n - l, m + l] = flat coefficient (n, l, m) for shells n >= l."""
    return np.array([coeffs[shell_offset(n) + l * l :][: 2 * l + 1] for n in range(l, n_max + 1)])


def _flat_position(coeffs, n_max, r, theta, phi):
    """psi at aligned points from flat (n, l, m) coefficients: per channel, sum_n coeff u_nl, times Y_lm."""
    table = radial_table(n_max, r)
    g = np.empty(((n_max + 1) ** 2, len(r)), dtype=complex)
    for l in range(n_max + 1):
        g[l * l : (l + 1) ** 2] = _channel_matrix(coeffs, n_max, l).T @ table[l:, l, :]
    return np.einsum("cp,cp->p", g, spherical_harmonic_table(n_max, theta, phi))


class TestGridSpec:
    def test_valid(self):
        grid = GridSpec((0.5, 1.0), (0.1, 1.2), (0.0, 3.0))
        assert grid.r == (0.5, 1.0)

    @pytest.mark.parametrize(
        "r,theta,phi",
        [
            ((), (0.5,), (0.0,)),
            ((1.0, 0.5), (0.5,), (0.0,)),
            ((0.5,), (4.0,), (0.0,)),
            ((0.5,), (0.5,), (6.5,)),
            ((1.0, math.inf), (0.5,), (0.0,)),
            ((0.5, math.nan), (0.5,), (0.0,)),
            ((0.5,), (math.nan,), (0.0,)),
            ((0.5,), (0.5,), (math.nan,)),
        ],
    )
    def test_invalid(self, r, theta, phi):
        with pytest.raises(ValueError):
            GridSpec(r, theta, phi)


class TestEvalEigenstate:
    def test_ground_state_at_origin(self, exponential):
        got = eval_hydrogen_cs_position(_ground(exponential), 0.0, 0.7, 1.9)
        assert got == pytest.approx(0.5641895835477563, rel=1e-12)

    def test_2s_node(self):
        assert abs(radial_eigenfunction(1, 0, 2.0)) <= 1e-13

    @pytest.mark.parametrize("n,l,m", [(0, 0, 0), (2, 1, -1), (4, 3, 2)])
    def test_normalized_over_space(self, n, l, m):
        # radial factor by adaptive quadrature; angular factor is exactly 1
        val, _ = quad(lambda r: radial_eigenfunction(n, l, r) ** 2 * r * r, 0, 300, limit=200)
        assert val == pytest.approx(1.0, rel=1e-9)


class TestEvalAngular:
    def test_shell_zero_ignores_label(self, exponential):
        a, b = (
            eval_hydrogen_cs_position(hydrogen_cs(HydrogenLabel(0.0, 0.0, ob), exponential, 0), 1.3, 0.4, 2.0)
            for ob in (ANGLES, EulerAngles(0.2, 3.0, 1.0))
        )
        assert a == pytest.approx(b, rel=1e-14)
        expected = radial_eigenfunction(0, 0, 1.3) / math.sqrt(4 * math.pi)
        assert a == pytest.approx(expected, rel=1e-13)

    def test_position_norm_is_shell_dimension(self, exponential):
        # the shell-2 angular coherent state alone: amplitude 1 on shell 2
        n = 2
        state = HydrogenExpansion(n, np.eye(n + 1)[n], angular_cs(n, ANGLES))
        assert quadrature_norm_squared(state) == pytest.approx((n + 1) ** 2, abs=1e-8)


class TestEvalHydrogen:
    def test_ground_state_wavefunction(self, exponential):
        x = _ground(exponential)
        for r in (0.0, 0.5, 2.0):
            expected = 2 * math.exp(-r) / math.sqrt(4 * math.pi)
            assert eval_hydrogen_cs_position(x, r, 1.0, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_linearity(self, exponential):
        a = hydrogen_cs(HydrogenLabel(0.6, 0.1, ANGLES), exponential, 6, check_tail=False)
        b = hydrogen_cs(HydrogenLabel(0.3, 1.4, EulerAngles(0.5, 1.0, 0.3)), exponential, 6, check_tail=False)
        # a sum of two labels has no shell-product form: the flat oracle evaluates it
        pt = (1.7, 0.9, 4.1)
        lhs = _flat_position(1.5 * a.coeffs - 2j * b.coeffs, 6, *np.array(pt)[:, None])[0]
        rhs = 1.5 * eval_hydrogen_cs_position(a, *pt) - 2j * eval_hydrogen_cs_position(b, *pt)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_evolution_transports_to_label_shift(self, exponential):
        from hcs.hydrogen import evolve_hydrogen

        label = HydrogenLabel(0.8, 0.4, ANGLES)
        omega, t = 1.0, 2.9
        evolved = evolve_hydrogen(hydrogen_cs(label, exponential, 10, check_tail=False), omega, t)
        shifted = hydrogen_cs(label.shifted(omega, t), exponential, 10, check_tail=False)
        pt = (1.2, 0.6, 1.8)
        assert eval_hydrogen_cs_position(evolved, *pt) == pytest.approx(
            eval_hydrogen_cs_position(shifted, *pt), abs=1e-13
        )

    def test_parseval(self, exponential):
        x = hydrogen_cs(HydrogenLabel(1.0, 0.4, ANGLES), exponential, 8, check_tail=False)
        assert quadrature_norm_squared(x) == pytest.approx(x.norm_squared(), abs=1e-8)

    def test_density_time_independent_at_zero_radius(self, exponential):
        from hcs.hydrogen import evolve_hydrogen

        x = _ground(exponential)
        y = evolve_hydrogen(x, 1.0, 7.7)
        pt = (0.9, 1.1, 0.3)
        assert abs(eval_hydrogen_cs_position(y, *pt)) == pytest.approx(
            abs(eval_hydrogen_cs_position(x, *pt)), rel=1e-13
        )


class TestRadialExpectation:
    def test_ground_state_moments(self, exponential):
        x = _ground(exponential)
        assert radial_expectation(x, 1) == pytest.approx(1.5, abs=1e-10)
        assert radial_expectation(x, 2) == pytest.approx(3.0, abs=1e-10)
        assert radial_expectation(x, 0) == pytest.approx(1.0, abs=1e-14)
        assert radial_expectation(x, -1) == pytest.approx(1.0, abs=1e-10)

    def test_matches_adaptive_quadrature_for_coherent_state(self, exponential):
        x = hydrogen_cs(HydrogenLabel(0.9, 0.7, ANGLES), exponential, 6, check_tail=False)
        got = radial_expectation(x, 1)
        # pairwise oracle: adaptive quadrature of every radial overlap
        def overlap(n, n2, l, power):
            return quad(
                lambda r: radial_eigenfunction(n, l, r) * radial_eigenfunction(n2, l, r) * r**power,
                0,
                300,
                limit=200,
            )[0]

        # each radial overlap depends only on (l, {n, n2}, power): integrate it once
        overlaps = {
            (n, n2, l, power): overlap(n, n2, l, power)
            for l in range(7)
            for n in range(l, 7)
            for n2 in range(n, 7)
            for power in (2, 3)
        }
        num = den = 0.0
        for l in range(7):
            for m in range(-l, l + 1):
                ch = l * l + l + m
                amps = {n: x.coeffs[shell_offset(n) + ch] for n in range(l, 7)}
                for n, cn in amps.items():
                    for n2, cn2 in amps.items():
                        w = (np.conj(cn) * cn2).real
                        key = (min(n, n2), max(n, n2), l)
                        num += w * overlaps[key + (3,)]
                        den += w * overlaps[key + (2,)]
        assert got == pytest.approx(num / den, rel=1e-9)
        assert den == pytest.approx(x.norm_squared(), rel=1e-9)

    def test_power_validation(self, exponential):
        with pytest.raises(ValueError):
            radial_expectation(_ground(exponential), -2)

    @pytest.mark.parametrize("n_max,power,nodes", [(126, 1, 129), (126, 2, 129), (20, 300, 172)])
    def test_rule_cap_names_n_max_and_power(self, exponential, n_max, power, nodes):
        # the top shell pair needs (2 n_max + 4 + max(power, 2)) // 2 nodes; the cap is 128
        x = hydrogen_cs(GROUND_LABEL, exponential, n_max, check_tail=False)
        message = f"up to power {max(power, 2)} at n_max = {n_max} need a {nodes}-node .* limit of 128 nodes"
        with pytest.raises(ConfigurationError, match=message):
            radial_expectation(x, power)
        if n_max == 126:
            with pytest.raises(ConfigurationError, match=message):
                radial_uncertainty_product(x)

    def test_zero_state_rejected(self, exponential):
        x = _ground(exponential)
        zero = HydrogenExpansion(0, 0 * x.amps, x.angular)
        with pytest.raises(ValueError, match="nonzero norm"):
            radial_uncertainty_product(zero)

    def test_euler_angles_drop_out_bit_for_bit(self, exponential):
        a = hydrogen_cs(HydrogenLabel(0.9, 0.4, ANGLES), exponential, 24, check_tail=False)
        b = hydrogen_cs(HydrogenLabel(0.9, 0.4, EulerAngles(2.9, 0.1, 5.0)), exponential, 24, check_tail=False)
        assert not np.array_equal(a.coeffs, b.coeffs)
        for power in (-1, 1, 2, 3):
            assert radial_expectation(a, power) == radial_expectation(b, power)
        assert radial_uncertainty_product(a) == radial_uncertainty_product(b)


class TestUncertaintyProduct:
    def test_ground_state_value(self, exponential):
        x = _ground(exponential)
        p_mean, p_sq = position._normalized_forms(x)[-2:]
        assert p_mean == pytest.approx(0.0, abs=1e-12)
        assert p_sq == pytest.approx(1.0, abs=1e-10)
        assert radial_uncertainty_product(x) == pytest.approx(0.75, abs=1e-9)

    def test_heisenberg_floor_random_states(self, exponential):
        rng = np.random.default_rng(23)
        for _ in range(20):
            label = HydrogenLabel(
                rng.uniform(0.0, 1.2),
                rng.uniform(-math.pi, math.pi),
                EulerAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)),
            )
            state = hydrogen_cs(label, exponential, 12, check_tail=False)
            assert radial_uncertainty_product(state) >= 0.25

    def test_gamma_shift_invariance_single_shell(self, exponential):
        a = hydrogen_cs(HydrogenLabel(0.0, 0.3, ANGLES), exponential, 0)
        b = hydrogen_cs(HydrogenLabel(0.0, 2.9, ANGLES), exponential, 0)
        assert radial_uncertainty_product(a) == pytest.approx(
            radial_uncertainty_product(b), abs=1e-12
        )


def test_operator_tables_built_once_per_n_max(exponential, monkeypatch):
    builds = []
    table = position.radial_table
    monkeypatch.setattr(position, "radial_table", lambda *args: builds.append(args[0]) or table(*args))
    position._radial_operators.cache_clear()
    position._shell_operators.cache_clear()
    x = hydrogen_cs(HydrogenLabel(0.8, 0.3, ANGLES), exponential, 12, check_tail=False)
    y = hydrogen_cs(HydrogenLabel(0.4, 1.9, EulerAngles(0.3, 2.0, 5.1)), exponential, 12, check_tail=False)
    radial_uncertainty_product(x)
    radial_expectation(y, 1)
    position._normalized_forms(y)
    assert position._radial_operators.cache_info().misses == 1
    assert position._shell_operators.cache_info().misses == 1
    radial_uncertainty_product(hydrogen_cs(HydrogenLabel(0.8, 0.3, ANGLES), exponential, 10, check_tail=False))
    assert position._radial_operators.cache_info().misses == 2
    assert position._shell_operators.cache_info().misses == 2
    # the moments never sample wavefunctions; the export builds its table once per call
    assert builds == []
    export_density_grid(x, GridSpec((0.5, 2.0), (1.2,), (0.3,)), [0.0, 1.0, 2.5])
    assert builds == [12]


def test_state_pipeline_builds_no_channel_vector(exponential, monkeypatch):
    # the library pipeline reads the angular factor's closed-form weights and O(n) peaks only
    from hcs import angular
    from hcs.hydrogen import hydrogen_stability_residual, state_norm

    def refuse(*args):
        raise AssertionError("the channel vector was built")

    monkeypatch.setattr(angular, "_channel_coefficients", refuse)
    angular_cs.cache_clear()
    try:
        label = HydrogenLabel(1.3, 0.4, EulerAngles(1.1, 0.7, 2.3))
        state = hydrogen_cs(label, exponential, 48)
        evolved = evolve_hydrogen(state, 1.2, 2.5)
        assert hydrogen_stability_residual(label, exponential, 1.2, 2.5, 48) <= 5e-15
        closed = state_norm(label, exponential, 48) ** 2
        for x in (state, evolved):
            assert abs(x.norm_squared() - closed) <= 1e-12 * closed
        assert radial_uncertainty_product(evolved) >= 0.25
    finally:
        angular_cs.cache_clear()


def test_export_builds_no_channel_vector(exponential, monkeypatch):
    # the export reads the label's spinor: neither the channel vector nor a spherical-harmonic table
    from hcs import angular

    def refuse(*args):
        raise AssertionError("the channel vector or a spherical-harmonic table was built")

    monkeypatch.setattr(angular, "_channel_coefficients", refuse)
    monkeypatch.setattr(position, "spherical_harmonic_table", refuse)
    angular_cs.cache_clear()
    try:
        grid = GridSpec((0.5, 2.0), (0.0, 1.2), (0.3, 4.0))
        for angles in (ANGLES, EulerAngles(0.3, 2.0, 5.1)):
            for s in (0.4, 0.8):
                x = hydrogen_cs(HydrogenLabel(s, 0.3, angles), exponential, 12, check_tail=False)
                assert np.all(np.isfinite(export_density_grid(x, grid, [0.0, 1.0, 2.5])))
    finally:
        angular_cs.cache_clear()


def _mpmath_pair_integrals(l, a, b):
    """int u_a u_b r^3, int u_a u_b r^4, int h_a h_b' and int h_a' h_b' (h = r u) by 40-digit mpmath.quad."""
    with mp.workdps(40):

        def shell(n):
            k = n - l
            norm = mp.sqrt((mp.mpf(2) / (n + 1)) ** 3 * mp.factorial(k) / (2 * (n + 1) * mp.factorial(n + l + 1)))

            def h_and_derivative(r):
                rho = 2 * r / (n + 1)
                lag = mp.laguerre(k, 2 * l + 1, rho)
                dlag = -mp.laguerre(k - 1, 2 * l + 2, rho) if k else 0  # d/drho L_k^(a) = -L_{k-1}^(a+1)
                u = norm * rho**l * mp.exp(-rho / 2) * lag
                du_drho = norm * mp.exp(-rho / 2) * (l * rho ** (l - 1) * lag if l else 0)
                du_drho += norm * mp.exp(-rho / 2) * rho**l * (dlag - lag / 2)
                return r * u, u + r * du_drho * 2 / (n + 1)

            return h_and_derivative

        ha, hb = shell(a), shell(b)
        cache = {}

        def samples(r):  # every integrand runs on the same quadrature nodes
            if r not in cache:
                cache[r] = ha(r) + hb(r)
            return cache[r]

        scale = 1 / (mp.mpf(1) / (a + 1) + mp.mpf(1) / (b + 1))
        points = [0, 10 * scale, 40 * scale, 150 * scale, mp.inf]
        integrands = (
            lambda r: samples(r)[0] * samples(r)[2] * r,
            lambda r: samples(r)[0] * samples(r)[2] * r * r,
            lambda r: samples(r)[0] * samples(r)[3],
            lambda r: samples(r)[1] * samples(r)[3],
        )
        return [float(mp.quad(f, points)) for f in integrands]


class TestRadialOperators:
    def test_closed_form_moments(self):
        # Bethe & Salpeter (1957), section 3, with N = n + 1; <1/r> = 1/N^2 and
        # <p_r^2> = 1/N^2 - l(l+1) <1/r^2> from the virial theorem
        tables = position._radial_operators(40)
        for l, table in enumerate(tables):
            big_n = np.arange(l + 1, 42.0)
            ell = l * (l + 1)
            for t, closed in (
                (1, 1 / big_n**2),
                (3, (3 * big_n**2 - ell) / 2),
                (4, big_n**2 * (5 * big_n**2 + 1 - 3 * ell) / 2),
                (-1, 1 / big_n**2 - ell / (big_n**3 * (l + 0.5))),
            ):
                assert np.allclose(np.diagonal(table[t]), closed, rtol=1e-12, atol=0), (l, t)

    def test_norm_table_is_identity_at_n_max_48(self):
        for table in position._radial_operators(48):
            assert np.max(np.abs(table[2] - np.eye(table.shape[1]))) <= 1e-13

    def test_tables_are_read_only(self):
        table = position._radial_operators(3)[0]
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0

    @pytest.mark.parametrize("l,a,b", [(0, 0, 48), (2, 7, 12), (10, 30, 31)])
    def test_off_diagonal_pairs_match_mpmath(self, l, a, b):
        table = position._radial_operators(48)[l]
        got = [table[t, a - l, b - l] for t in (3, 4, -2, -1)]
        for value, reference in zip(got, _mpmath_pair_integrals(l, a, b)):
            assert value == pytest.approx(reference, rel=1e-12)

    def test_momentum_tables_are_antisymmetric_and_symmetric(self):
        for table in position._radial_operators(12):
            assert np.array_equal(table[-2], -table[-2].T)
            assert np.array_equal(table[-1], table[-1].T)

    @pytest.mark.parametrize("n,l", [(0, 0), (13, 4), (30, 29), (47, 21), (48, 48)])
    def test_eigenstate_moments_at_n_max_48(self, n, l):
        # the moments of eigenstate (n, l) are the diagonal entries of channel l's tables
        table = position._radial_operators(48, 2)[l]
        big_n, ell, k = n + 1, l * (l + 1), n - l
        r_mean = (3 * big_n**2 - ell) / 2
        r_sq = big_n**2 * (5 * big_n**2 + 1 - 3 * ell) / 2
        p_sq = 1 / big_n**2 - ell / (big_n**3 * (l + 0.5))
        assert table[3, k, k] == pytest.approx(r_mean, rel=1e-12)
        assert table[4, k, k] == pytest.approx(r_sq, rel=1e-12)
        assert table[-2, k, k] == 0.0
        assert table[-1, k, k] == pytest.approx(p_sq, rel=1e-12)

    def test_product_independent_of_truncation(self, exponential):
        # 14 is the smallest truncation the tail guard accepts for this state;
        # at 12 the state itself differs (its shells 13 and 14 are cut off)
        label = HydrogenLabel(0.5, 0.3, ANGLES)
        products = [radial_uncertainty_product(hydrogen_cs(label, exponential, n)) for n in (14, 34, 48)]
        assert products == pytest.approx([products[-1]] * 3, rel=1e-10)


def _factored_forms(x, amps):
    """Normalized forms of a product state from its shell amplitudes: sum_l (2l+1) a^H O_l a."""
    tables = position._radial_operators(x.n_max, 2)
    forms = sum((2 * l + 1) * np.einsum("s,tsu,u->t", amps[l:].conj(), o, amps[l:]) for l, o in enumerate(tables))
    return forms / forms[2].real


def _gram_forms(coeffs, n_max):
    """Normalized forms from every flat coefficient: sum over l of sum O_l * G_l, G_l = conj(C_l) C_l^T."""
    forms = 0.0
    for l, table in enumerate(position._radial_operators(n_max, 2)):
        c = _channel_matrix(coeffs, n_max, l)
        forms = forms + np.einsum("tsu,su->t", table, c.conj() @ c.T)
    return forms / forms[2].real


class TestGramForms:
    @pytest.mark.parametrize("n_max", [12, 48])
    def test_product_states_match_the_factored_oracle(self, exponential, n_max):
        rng = np.random.default_rng(n_max)
        for s in (0.0, 0.5, 1.4):
            angles = EulerAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            label = HydrogenLabel(s, rng.uniform(-math.pi, math.pi), angles)
            amps = label_cs(label.s, label.gamma, exponential, "covering", n_max, check_tail=False)
            state = hydrogen_cs(label, exponential, n_max, check_tail=False)
            omega, t = rng.uniform(0.5, 2.0), rng.uniform(0.1, 5.0)
            phases = Spectrum("inverse-square", omega).evolution_phases(n_max + 1, t)
            for x, a in ((state, amps), (evolve_hydrogen(state, omega, t), amps * phases)):
                got = position._normalized_forms(x)
                np.testing.assert_allclose(got, _factored_forms(x, a), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("n_max", [12, 48])
    def test_product_states_match_the_per_channel_gram_oracle(self, exponential, n_max):
        # the oracle reads every coefficient and never uses sum_m |A_lm|^2 = 2l+1
        rng = np.random.default_rng(100 + n_max)
        for s in (0.0, 0.5, 1.4):
            angles = EulerAngles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            label = HydrogenLabel(s, rng.uniform(-math.pi, math.pi), angles)
            state = hydrogen_cs(label, exponential, n_max, check_tail=False)
            for x in (state, evolve_hydrogen(state, rng.uniform(0.5, 2.0), rng.uniform(0.1, 5.0))):
                np.testing.assert_allclose(
                    position._normalized_forms(x), _gram_forms(x.coeffs, n_max), rtol=1e-13, atol=1e-15
                )

    def test_non_product_state_matches_the_per_channel_products(self, exponential):
        # checks the Gram oracle itself, on random coefficients with no shell-product form
        n_max = 12
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(total_dimension(n_max)) + 1j * rng.standard_normal(total_dimension(n_max))
        forms = 0.0
        for l, table in enumerate(position._radial_operators(n_max, 2)):
            c = _channel_matrix(coeffs, n_max, l)
            forms = forms + np.einsum("sm,tsm->t", c.conj(), table @ c)
        np.testing.assert_allclose(_gram_forms(coeffs, n_max), forms / forms[2].real, rtol=1e-13, atol=1e-15)


class TestQuadratureNormContract:
    def test_meets_parseval_or_raises(self, exponential):
        x = hydrogen_cs(HydrogenLabel(2.0, 0.3, ANGLES), exponential, 34, check_tail=False)
        try:
            value = quadrature_norm_squared(x)
        except NumericalError:
            return
        assert abs(value - x.norm_squared()) <= 1e-8 * x.norm_squared()

    def test_coarse_rule_raises(self, exponential, monkeypatch):
        x = hydrogen_cs(HydrogenLabel(1.0, 0.4, ANGLES), exponential, 8, check_tail=False)
        monkeypatch.setattr(position, "_NORM_RULE_NODES", 12)
        with pytest.raises(NumericalError, match="radial rule of 12 nodes: norm error"):
            quadrature_norm_squared(x)


class TestExportDensityGrid:
    def test_ground_state_density(self, exponential):
        x = _ground(exponential)
        grid = GridSpec((0.5, 1.0, 2.0), (1.2,), (0.3,))
        psi = export_density_grid(x, grid, [0.0])
        assert len(psi) == 3
        for r, sample in zip(grid.r, psi):
            assert abs(sample) ** 2 == pytest.approx(math.exp(-2 * r) / math.pi, rel=1e-12)

    def test_row_order_is_t_major(self, exponential):
        x = hydrogen_cs(HydrogenLabel(0.8, 0.4, ANGLES), exponential, 6, check_tail=False)
        grid = GridSpec((0.5, 1.0), (0.4, 1.2), (0.0, 3.0))
        psi = export_density_grid(x, grid, [0.0, 1.0])
        assert len(psi) == 2 * 2 * 2 * 2
        for i, sample in enumerate(psi):
            t, r, theta, phi = np.unravel_index(i, (2, 2, 2, 2))
            point = grid.r[r], grid.theta[theta], grid.phi[phi]
            direct = eval_hydrogen_cs_position(evolve_hydrogen(x, 1.0, [0.0, 1.0][t]), *point)
            assert sample == pytest.approx(direct, abs=1e-14)

    def test_one_complex_array_with_t_major_axes(self, exponential):
        x = hydrogen_cs(HydrogenLabel(0.8, 0.4, ANGLES), exponential, 6, check_tail=False)
        grid = GridSpec((0.5, 1.0, 2.5), (0.4, 1.2), (0.0, 2.0, 4.0, 5.5))
        times = [0.0, 1.25, 3.0]
        psi = export_density_grid(x, grid, times)
        assert isinstance(psi, np.ndarray) and psi.dtype == np.complex128
        assert psi.shape == (3 * 3 * 2 * 4,)
        points = [axis.ravel() for axis in np.meshgrid(grid.r, grid.theta, grid.phi, indexing="ij")]
        for t, block in zip(times, psi.reshape(3, -1)):
            direct = eval_hydrogen_cs_position(evolve_hydrogen(x, 1.0, t), *points)
            assert np.allclose(block, direct, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, exponential, bad):
        with pytest.raises(ValueError, match="t_values"):
            export_density_grid(_ground(exponential), GridSpec((1.0,), (0.5,), (0.0,)), [0.0, bad])

    def test_omega_rows_match_the_spectrum_phase_path(self, exponential):
        # each time's samples, bit for bit, from the inverse-square spectrum's shell phases
        n_max, omega, times = 12, 1.3, [0.0, 0.7, 3.7]
        x = hydrogen_cs(HydrogenLabel(0.8, 0.4, ANGLES), exponential, n_max, check_tail=False)
        grid = GridSpec((0.5, 1.5, 4.0), (0.0, 0.9, 2.5), (0.2, 3.0))
        psi = export_density_grid(x, grid, times, omega=omega)
        u = radial_table(n_max, np.asarray(grid.r))
        powers = position._xi_powers(x, np.repeat(grid.theta, 2), np.tile(grid.phi, 3))
        for t, block in zip(times, psi.reshape(len(times), -1)):
            phases = Spectrum("inverse-square", omega).evolution_phases(n_max + 1, t)
            reference = np.matmul(position._radial_profiles(x.phased(phases), u).T, powers)
            assert block.tobytes() == reference.ravel().tobytes()

    @pytest.mark.parametrize(
        "n_max,s", [(0, 0.0), (1, 0.0), (12, 1.2), (24, 0.4), (48, 3.0), (60, 1.5), (96, 0.0), (96, 1.5)]
    )
    def test_samples_match_the_flat_coefficient_oracle(self, exponential, n_max, s):
        # the factored sum_l c_l xi^l R_l against spherical-harmonic sums over the (l, m) channels,
        # at the poles and both polar labels: 1.4e-15 of max|psi| measured at worst
        rng = np.random.default_rng(n_max)
        grid = GridSpec((0.3, 1.0, 4.0, 15.0, 40.0), (0.0, 0.7, 1.9, math.pi), (0.0, 2.5, 5.0))
        times = [0.0, 1.7, 6.0]
        r, theta, phi = (axis.ravel() for axis in np.meshgrid(grid.r, grid.theta, grid.phi, indexing="ij"))
        for theta_bar in (rng.uniform(0, math.pi), 0.0, math.pi):
            angles = EulerAngles(theta_bar, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            x = hydrogen_cs(HydrogenLabel(s, rng.uniform(-math.pi, math.pi), angles), exponential, n_max, check_tail=False)
            psi = export_density_grid(x, grid, times, omega=1.3).reshape(len(times), -1)
            for t, block in zip(times, psi):
                expected = _flat_position(evolve_hydrogen(x, 1.3, t).coeffs, n_max, r, theta, phi)
                assert np.max(np.abs(block - expected)) <= 1e-13 * np.max(np.abs(expected))
                pt = eval_hydrogen_cs_position(evolve_hydrogen(x, 1.3, t), r, theta, phi)
                assert np.max(np.abs(pt - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_gamma_shift_consistency(self, exponential):
        omega, t = 1.0, 2.2
        label = HydrogenLabel(0.7, 0.5, ANGLES)
        grid = GridSpec((0.4, 1.1), (0.8,), (1.0,))
        psi_evolved = export_density_grid(hydrogen_cs(label, exponential, 10, check_tail=False), grid, [t])
        psi_shifted = export_density_grid(
            hydrogen_cs(label.shifted(omega, t), exponential, 10, check_tail=False), grid, [0.0]
        )
        assert np.allclose(psi_evolved, psi_shifted, rtol=0, atol=1e-13)

    def test_csv_writer(self, tmp_path, exponential):
        x = _ground(exponential)
        grid = GridSpec((1.0,), (0.5,), (0.0,))
        psi = export_density_grid(x, grid, [0.0])
        axes = [([value], [0]) for value in (0.0, *grid.r, *grid.theta, *grid.phi)]
        path = tmp_path / "density.csv"
        write_csv(path, DENSITY_CSV_HEADER, axes + [psi.real, psi.imag, np.abs(psi) ** 2])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,r,theta,phi,re_psi,im_psi,density"
        assert len(lines) == 2
        assert lines[1].startswith("0,1,0.5,0,")
        assert float(lines[1].split(",")[-1]) == pytest.approx(math.exp(-2.0) / math.pi, rel=1e-15)
