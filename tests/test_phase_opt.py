import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbcrate.channel import SystemParams
from sbcrate.phase_opt import optimal_phase, phase_period
from sbcrate.pt_rate import max_pt_rate_psk, pt_rate
from sbcrate.constellation import mask_constellation, mask_points, mpsk_points

from .conftest import channel_from_polar
from .grid_oracle import grid_search_phase

TWO_PI = 2.0 * math.pi


def circular_distance(a: float, b: float, period: float) -> float:
    d = abs(a - b) % period
    return min(d, period - d)


class TestOptimalPhaseAsk:
    def test_zero_channel_phase(self):
        sol = optimal_phase("mask", 2, 0.0)
        assert sol.phase_rad == 0.0 and sol.wrap_index == 0

    def test_modular_negation(self):
        sol = optimal_phase("mask", 2, 0.7)
        assert sol.phase_rad == pytest.approx(TWO_PI - 0.7, rel=1e-12)
        assert sol.wrap_index == 1

    @given(theta0=st.floats(0.0, TWO_PI, exclude_max=True))
    @settings(max_examples=100)
    def test_aligns_cosine(self, theta0):
        sol = optimal_phase("mask", 2, theta0)
        assert 0.0 <= sol.phase_rad < TWO_PI
        assert math.cos(theta0 + sol.phase_rad) == pytest.approx(1.0, abs=1e-12)

    @given(theta0=st.floats(-10.0, 10.0), m=st.integers(2, 256))
    @settings(max_examples=100)
    def test_one_phase_for_every_order(self, theta0, m):
        assert optimal_phase("mask", m, theta0) == optimal_phase("mask", 2, theta0)

    def test_independent_of_order_by_construction(self, default_system, default_channel):
        # One phase maximizes the rate for every order simultaneously.
        phi = optimal_phase("mask", 2, default_channel.theta0).phase_rad
        for m in (2, 4, 8, 16):
            obj = lambda p: pt_rate(default_system, default_channel, mask_points(m, p))
            grid_phi, grid_val = grid_search_phase(obj, 0.0, TWO_PI, 10_000)
            assert circular_distance(phi, grid_phi, TWO_PI) <= TWO_PI / 10_000
            assert float(obj(np.array([phi]))[0]) >= grid_val - 1e-10

    def test_gain_strictly_positive_at_optimum(self):
        # Any live backscatter path helps once the common phase is aligned:
        # every summand but the zero-amplitude one beats the baseline.
        rng = np.random.default_rng(23)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        from sbcrate.pt_rate import pt_rate_no_bd
        for _ in range(25):
            ch = channel_from_polar(*10 ** rng.uniform(-6, -3, size=3),
                                    *rng.uniform(0, TWO_PI, size=3))
            m = int(rng.choice([2, 4, 8]))
            phi = optimal_phase("mask", m, ch.theta0).phase_rad
            gain = (pt_rate(sys, ch, mask_constellation(m, phi).points)
                    - pt_rate_no_bd(sys, ch))
            assert gain > 0.0


class TestOptimalPhasePsk:
    def test_binary_at_zero_channel_phase(self):
        sol = optimal_phase("mpsk", 2, 0.0)
        assert sol.phase_rad == pytest.approx(math.pi / 2, rel=1e-12)

    def test_quaternary_at_zero_channel_phase(self):
        sol = optimal_phase("mpsk", 4, 0.0)
        assert sol.phase_rad == pytest.approx(math.pi / 4, rel=1e-12)

    @given(theta0=st.floats(0.0, TWO_PI, exclude_max=True), m=st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=100)
    def test_formula_and_range(self, theta0, m):
        sol = optimal_phase("mpsk", m, theta0)
        period = TWO_PI / m
        assert 0.0 <= sol.phase_rad < period
        want = (math.pi / m - theta0) % period
        assert circular_distance(sol.phase_rad, want, period) <= 1e-9

    def test_matches_grid_search(self, default_system, default_channel):
        for m in (2, 4, 8, 16):
            sol = optimal_phase("mpsk", m, default_channel.theta0)
            obj = lambda p: pt_rate(default_system, default_channel, mpsk_points(m, 0.9, p))
            period = TWO_PI / m
            grid_phi, grid_val = grid_search_phase(obj, 0.0, period, 10_000)
            assert circular_distance(sol.phase_rad, grid_phi, period) <= period / 10_000
            assert float(obj(np.array([sol.phase_rad]))[0]) >= grid_val - 1e-10

    def test_parity_rule_matches_grid_argmax_for_orders_3_to_16(self):
        # Odd orders peak with one symbol aligned to the channel phase, even
        # orders with the fan straddling it.  Where the curve is too flat for
        # the grid to resolve, only the value condition is checked.
        rng = np.random.default_rng(31)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        grid_points = 10_000
        for _ in range(10):
            ch = channel_from_polar(*10 ** rng.uniform(-6, -3, size=3),
                                    *rng.uniform(0, TWO_PI, size=3))
            alpha0 = float(rng.uniform(0.3, 1.0))
            for m in range(3, 17):
                period = TWO_PI / m
                grid = np.linspace(0.0, period, grid_points, endpoint=False)
                vals = pt_rate(sys, ch, mpsk_points(m, alpha0, grid))
                closed = optimal_phase("mpsk", m, ch.theta0).phase_rad
                best = max_pt_rate_psk(sys, ch, m, alpha0)
                assert best >= vals.max() - 1e-10
                assert best == pytest.approx(
                    float(pt_rate(sys, ch, mpsk_points(m, alpha0, [closed]))[0]), abs=1e-12)
                if vals.max() - vals.min() >= 1e-7:
                    grid_phi = float(grid[int(np.argmax(vals))])
                    assert circular_distance(closed, grid_phi, period) <= period / grid_points

    def test_varies_with_order(self):
        theta0 = 1.3
        phases = {m: optimal_phase("mpsk", m, theta0).phase_rad for m in (2, 4, 8, 16)}
        for m, phi in phases.items():
            assert phi == pytest.approx((math.pi / m - theta0) % (TWO_PI / m), abs=1e-12)
        assert len(set(round(p, 9) for p in phases.values())) > 1


class TestPhasePeriod:
    def test_full_circle_for_mask_symbol_spacing_for_mpsk(self):
        assert phase_period("mask", 8) == TWO_PI
        assert phase_period("mpsk", 8) == TWO_PI / 8

    @given(theta0=st.floats(-10.0, 10.0), scheme=st.sampled_from(["mask", "mpsk"]),
           m=st.integers(2, 64))
    @settings(max_examples=100)
    def test_optimum_lies_in_one_period(self, theta0, scheme, m):
        sol = optimal_phase(scheme, m, theta0)
        assert 0.0 <= sol.phase_rad < phase_period(scheme, m)


class TestGridSearch:
    def test_cosine_coarse_grid(self):
        phase, value = grid_search_phase(np.cos, 0.0, TWO_PI, 8)
        assert phase == 0.0 and value == 1.0

    def test_shifted_cosine_fine_grid(self):
        phase, _ = grid_search_phase(lambda x: np.cos(x - 1.0), 0.0, TWO_PI, 100_000)
        assert abs(phase - 1.0) <= TWO_PI / 100_000

    def test_quadratic_objective(self):
        phase, value = grid_search_phase(lambda x: -(x - 2.0) ** 2, 0.0, 4.0, 4001)
        assert phase == pytest.approx(2.0, abs=4.0 / 4001)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_ties_break_toward_smaller_phase(self):
        phase, _ = grid_search_phase(lambda x: np.ones_like(x), 0.0, 1.0, 11)
        assert phase == 0.0

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            grid_search_phase(np.cos, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            grid_search_phase(np.cos, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            grid_search_phase(lambda x: 1.0, 0.0, 1.0, 10)  # not one value per phase

    def test_consistent_with_closed_form_on_random_channel(self):
        rng = np.random.default_rng(17)
        sys = SystemParams(power_w=0.05, noise_w=1e-13, spread=1)
        for _ in range(10):
            ch = channel_from_polar(*10 ** rng.uniform(-6, -3, size=3),
                                    *rng.uniform(0, TWO_PI, size=3))
            m = int(rng.choice([2, 4, 8]))
            obj = lambda p: pt_rate(sys, ch, mask_points(m, p))
            grid_phi, _ = grid_search_phase(obj, 0.0, TWO_PI, 10_000)
            closed = optimal_phase("mask", m, ch.theta0).phase_rad
            assert circular_distance(grid_phi, closed, TWO_PI) <= TWO_PI / 10_000
