import math

import numpy as np
import pytest
from scipy.integrate import quad

from hcs.angular import EulerAngles
from hcs.cli import write_csv
from hcs.fock1d import Spectrum
from hcs import position
from hcs.hydrogen import HydrogenExpansion, HydrogenLabel, hydrogen_cs, total_dimension
from hcs.position import (
    DENSITY_CSV_HEADER,
    GridSpec,
    eval_angular_cs_position,
    eval_eigenstate,
    eval_hydrogen_cs_position,
    export_density_grid,
    quadrature_norm_squared,
    radial_expectation,
    radial_momentum_moments,
    radial_uncertainty_product,
)
from hcs.specfun import BasisIndex, radial_eigenfunction
from hcs.weights import builtin_family


@pytest.fixture(scope="module")
def exponential():
    return builtin_family("exponential")


ANGLES = EulerAngles(1.1, 0.7, 2.3)
GROUND_LABEL = HydrogenLabel(0.0, 0.0, EulerAngles(0.0, 0.0, 0.0))


def _ground(family):
    return hydrogen_cs(GROUND_LABEL, family, 0)


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
    def test_ground_state_at_origin(self):
        got = eval_eigenstate(BasisIndex(0, 0, 0), 0.0, 0.7, 1.9)
        assert got == pytest.approx(0.5641895835477563, rel=1e-12)

    def test_2s_node(self):
        assert abs(eval_eigenstate(BasisIndex(1, 0, 0), 2.0, 0.5, 0.5)) <= 1e-13

    @pytest.mark.parametrize("n,l,m", [(0, 0, 0), (2, 1, -1), (4, 3, 2)])
    def test_normalized_over_space(self, n, l, m):
        # radial factor by adaptive quadrature; angular factor is exactly 1
        val, _ = quad(lambda r: radial_eigenfunction(n, l, r) ** 2 * r * r, 0, 300, limit=200)
        assert val == pytest.approx(1.0, rel=1e-9)


class TestEvalAngular:
    def test_shell_zero_ignores_label(self):
        a = eval_angular_cs_position(0, ANGLES, 1.3, 0.4, 2.0)
        b = eval_angular_cs_position(0, EulerAngles(0.2, 3.0, 1.0), 1.3, 0.4, 2.0)
        assert a == pytest.approx(b, rel=1e-14)
        expected = radial_eigenfunction(0, 0, 1.3) / math.sqrt(4 * math.pi)
        assert a == pytest.approx(expected, rel=1e-13)

    def test_position_norm_is_shell_dimension(self, exponential):
        n = 2
        coeffs = np.zeros(total_dimension(n), dtype=complex)
        from hcs.angular import angular_cs
        from hcs.hydrogen import shell_offset

        coeffs[shell_offset(n) :] = angular_cs(n, ANGLES).coeffs
        state = HydrogenExpansion(n_max=n, coeffs=coeffs, family=exponential, label=GROUND_LABEL)
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
        combo = HydrogenExpansion(
            n_max=6, coeffs=1.5 * a.coeffs - 2j * b.coeffs, family=exponential, label=a.label
        )
        pt = (1.7, 0.9, 4.1)
        lhs = eval_hydrogen_cs_position(combo, *pt)
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
        from hcs.hydrogen import shell_offset

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


class TestUncertaintyProduct:
    def test_ground_state_value(self, exponential):
        x = _ground(exponential)
        p_mean, p_sq = radial_momentum_moments(x)
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


def test_radial_table_built_once_per_call(exponential, monkeypatch):
    builds = []
    table = position.radial_table
    monkeypatch.setattr(position, "radial_table", lambda *args: builds.append(args[0]) or table(*args))
    x = hydrogen_cs(HydrogenLabel(0.8, 0.3, ANGLES), exponential, 12, check_tail=False)
    radial_uncertainty_product(x)
    assert builds == [12]
    export_density_grid(x, GridSpec((0.5, 2.0), (1.2,), (0.3,)), [0.0, 1.0, 2.5])
    assert builds == [12, 12]


class TestExportDensityGrid:
    def test_ground_state_density(self, exponential):
        x = _ground(exponential)
        grid = GridSpec((0.5, 1.0, 2.0), (1.2,), (0.3,))
        rows = export_density_grid(x, grid, [0.0])
        assert len(rows) == 3
        for row in rows:
            t, r, theta, phi, re, im, dens = row
            assert dens == pytest.approx(math.exp(-2 * r) / math.pi, rel=1e-12)

    def test_row_order_is_t_major(self, exponential):
        x = _ground(exponential)
        grid = GridSpec((0.5, 1.0), (0.4, 1.2), (0.0, 3.0))
        rows = export_density_grid(x, grid, [0.0, 1.0])
        ts = [row[0] for row in rows]
        assert ts == sorted(ts)
        first_block = rows[: len(rows) // 2]
        rs = [row[1] for row in first_block]
        assert rs == sorted(rs)
        assert len(rows) == 2 * 2 * 2 * 2

    def test_one_float_array_with_t_major_axes(self, exponential):
        x = hydrogen_cs(HydrogenLabel(0.8, 0.4, ANGLES), exponential, 6, check_tail=False)
        grid = GridSpec((0.5, 1.0, 2.5), (0.4, 1.2), (0.0, 2.0, 4.0, 5.5))
        times = [0.0, 1.25, 3.0]
        rows = export_density_grid(x, grid, times)
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        assert rows.shape == (3 * 3 * 2 * 4, 7)
        axes = np.meshgrid(times, grid.r, grid.theta, grid.phi, indexing="ij")
        for col, axis in enumerate(axes):
            assert np.array_equal(rows[:, col], axis.ravel())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, exponential, bad):
        with pytest.raises(ValueError, match="t_values"):
            export_density_grid(_ground(exponential), GridSpec((1.0,), (0.5,), (0.0,)), [0.0, bad])

    def test_oscillator_spectrum_period_rows_identical(self, exponential):
        x = hydrogen_cs(HydrogenLabel(0.8, 0.4, ANGLES), exponential, 6, check_tail=False)
        grid = GridSpec((0.5, 1.5), (0.9,), (0.2,))
        spec = Spectrum("oscillator", 1.0)
        t0 = 0.5
        rows_a = export_density_grid(x, grid, [t0], spectrum=spec)
        rows_b = export_density_grid(x, grid, [t0 + 2 * math.pi], spectrum=spec)
        for a, b in zip(rows_a, rows_b):
            assert np.array_equal(a[1:], b[1:])

    def test_gamma_shift_consistency(self, exponential):
        omega, t = 1.0, 2.2
        label = HydrogenLabel(0.7, 0.5, ANGLES)
        grid = GridSpec((0.4, 1.1), (0.8,), (1.0,))
        rows_evolved = export_density_grid(
            hydrogen_cs(label, exponential, 10, check_tail=False), grid, [t]
        )
        rows_shifted = export_density_grid(
            hydrogen_cs(label.shifted(omega, t), exponential, 10, check_tail=False), grid, [0.0]
        )
        for a, b in zip(rows_evolved, rows_shifted):
            assert np.allclose(a[4:], b[4:], atol=1e-13)

    def test_csv_writer(self, tmp_path, exponential):
        x = _ground(exponential)
        grid = GridSpec((1.0,), (0.5,), (0.0,))
        path = tmp_path / "density.csv"
        write_csv(path, DENSITY_CSV_HEADER, export_density_grid(x, grid, [0.0]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,r,theta,phi,re_psi,im_psi,density"
        assert len(lines) == 2
        assert float(lines[1].split(",")[-1]) == pytest.approx(math.exp(-2.0) / math.pi, rel=1e-15)
