import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscconv import (
    ConfigurationError,
    Fragment,
    GaborFilter,
    InputError,
    OscillatorArrayConfig,
    default_bank,
    edge_fragment,
    fsk_encode,
    gabor_filter,
    normalize_fragment,
)


class TestFragment:
    def test_normalize_maps_endpoints(self):
        raw = np.array([[0.0, 255.0], [127.5, 63.75]])
        frag = normalize_fragment(raw, g_max=255.0)
        assert frag.side == 2
        assert frag.values == pytest.approx([-1.0, 1.0, 0.0, -0.5])

    def test_normalize_rejects_bad_input(self):
        with pytest.raises(InputError):
            normalize_fragment(np.zeros((2, 3)), 1.0)
        with pytest.raises(InputError):
            normalize_fragment(np.array([[0.0, 1.5]] * 2), 1.0)
        with pytest.raises(InputError):
            normalize_fragment(np.array([[-0.1, 0.5]] * 2), 1.0)
        with pytest.raises(ConfigurationError):
            normalize_fragment(np.zeros((2, 2)), 0.0)

    @pytest.mark.filterwarnings("error")
    def test_normalize_rejects_nan_pixels_and_scales(self):
        with pytest.raises(InputError, match="pixel values"):
            normalize_fragment(np.array([[math.nan]]), 1.0)
        for g_max in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="g_max"):
                normalize_fragment(np.ones((1, 1)), g_max)

    def test_fragment_validation(self):
        with pytest.raises(ConfigurationError):
            Fragment(side=2, values=np.zeros(3))
        with pytest.raises(ConfigurationError):
            Fragment(side=2, values=np.array([0.0, 0.0, 0.0, 1.5]))
        with pytest.raises(ConfigurationError):
            Fragment(side=0, values=np.zeros(0))

    @pytest.mark.parametrize("value, accepted", [
        (-1.0 - 5e-13, True), (1.0 + 5e-13, True), (-1.0 - 2e-12, False), (1.0 + 2e-12, False),
    ], ids=["below-by-5e-13", "above-by-5e-13", "below-by-2e-12", "above-by-2e-12"])
    def test_values_may_pass_plus_or_minus_one_by_1e_12(self, value, accepted):
        if accepted:
            assert Fragment(side=1, values=[value]).values[0] == value
        else:
            with pytest.raises(ConfigurationError, match=r"must lie in \[-1, \+1\]"):
                Fragment(side=1, values=[value])

    def test_fragment_rejects_nan(self):
        with pytest.raises(ConfigurationError, match="fragment values"):
            Fragment(side=1, values=[math.nan])

    def test_copies_callers_values(self):
        values = np.zeros(4)
        frag = Fragment(side=2, values=values)
        values[0] = 0.5
        assert frag.values[0] == 0.0

    def test_fragment_immutable(self):
        frag = Fragment(side=2, values=np.zeros(4))
        with pytest.raises(ValueError):
            frag.values[0] = 1.0

    def test_edge_fragment(self):
        frag = edge_fragment()
        assert frag.side == 5
        assert frag.values.min() >= -1.0 and frag.values.max() <= 1.0
        assert frag.values[0] == pytest.approx(2.0 * 0.20 - 1.0)
        assert np.array_equal(frag.values, edge_fragment().values)


class TestGaborFilter:
    def test_zero_k_is_uniform(self):
        filt = gabor_filter(5, theta_deg=45.0, k=0.0)
        assert np.array_equal(filt.values, np.ones(25))

    def test_horizontal_grating_column_pattern(self):
        # theta = 0: phase varies along x only, so columns alternate
        # cos(pi * x) at k = 0.5 with x in {-2..2}
        filt = gabor_filter(5, theta_deg=0.0, k=0.5)
        grid = filt.values.reshape(5, 5)
        expected_cols = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        for row in grid:
            assert np.array_equal(row, expected_cols)

    def test_rotation_by_90_transposes(self):
        a = gabor_filter(5, theta_deg=0.0, k=0.35).values.reshape(5, 5)
        b = gabor_filter(5, theta_deg=90.0, k=0.35).values.reshape(5, 5)
        assert np.array_equal(b, a.T)

    def test_phase_shift(self):
        base = gabor_filter(5, 0.0, 0.2)
        assert np.array_equal(gabor_filter(5, 0.0, 0.2, phase=2 * math.pi).values, base.values)
        assert np.array_equal(gabor_filter(5, 0.0, 0.2, phase=math.pi).values, -base.values)

    def test_unbinarized_keeps_cosine(self):
        filt = gabor_filter(3, theta_deg=0.0, k=0.25, binarized=False)
        grid = filt.values.reshape(3, 3)
        # x in {-1, 0, 1}: cos(pi/2 * x) = 0, 1, 0 along each row
        assert grid[0] == pytest.approx([math.cos(-math.pi / 2), 1.0, math.cos(math.pi / 2)])
        assert not filt.binarized

    def test_binarized_entries_are_signs(self):
        for theta in (0.0, 30.0, 60.0):
            filt = gabor_filter(5, theta, 0.35)
            assert np.isin(filt.values, (-1.0, 1.0)).all()

    def test_filter_validation(self):
        with pytest.raises(ConfigurationError):
            gabor_filter(0, 0.0, 0.2)
        with pytest.raises(ConfigurationError):
            gabor_filter(5, 0.0, -0.1)
        with pytest.raises(ConfigurationError):
            GaborFilter(side=2, values=np.array([1.0, -1.0, 0.5, 1.0]), theta_deg=0, k=0.2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["theta_deg", "k", "phase"])
    def test_rejects_non_finite_parameters(self, name, value):
        params = {"theta_deg": 0.0, "k": 0.2, "phase": 0.0, name: value}
        with pytest.raises(ConfigurationError, match=name):
            gabor_filter(5, **params)
        with pytest.raises(ConfigurationError, match=name):
            GaborFilter(side=1, values=np.ones(1), **params)

    def test_unbinarized_filter_rejects_nan(self):
        with pytest.raises(ConfigurationError, match="filter values"):
            GaborFilter(side=1, values=[math.nan], theta_deg=0.0, k=0.2, binarized=False)

    # the angle 2*pi*k*(x*cos(theta) + y*sin(theta)) + phase must stay a finite
    # float, or np.cos makes it NaN; a huge finite angle is only a grating
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side, k, phase, overflows", [
        (5, 1e308, 0.0, True),  # 2*pi*k alone overflows
        (1, 1e308, 0.0, True),  # inf * 0 at the one pixel
        (5, 1e307, 1.7e308, True),  # the sum overflows
        (5, 1e307, 0.0, False),
        (5, 0.2, 1.7e308, False),
    ])
    def test_grating_phase_must_stay_finite(self, side, k, phase, overflows):
        if overflows:
            with pytest.raises(ConfigurationError, match="overflow the grating phase"):
                gabor_filter(side, 0.0, k, phase)
        else:
            assert np.isin(gabor_filter(side, 0.0, k, phase).values, (-1.0, 1.0)).all()

    def test_copies_callers_values(self):
        values = np.array([1.0, -1.0, -1.0, 1.0])
        filt = GaborFilter(side=2, values=values, theta_deg=0.0, k=0.0)
        values[0] = -1.0
        assert filt.values[0] == 1.0


class TestDefaultBank:
    def test_size_and_order(self):
        bank = default_bank()
        assert len(bank) == 18
        assert (bank[0].theta_deg, bank[0].k) == (0.0, 0.2)
        assert (bank[1].theta_deg, bank[1].k) == (0.0, 0.35)
        assert (bank[4].theta_deg, bank[4].k) == (30.0, 0.35)
        assert (bank[17].theta_deg, bank[17].k) == (150.0, 0.5)

    def test_orientations_distinguishable(self):
        bank = default_bank()
        # same k, orthogonal orientations: genuinely different patterns
        assert not np.array_equal(bank[0].values, bank[9].values)

    def test_deterministic(self):
        a, b = default_bank(), default_bank()
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)

    def test_all_sides_match(self):
        for filt in default_bank(side=7):
            assert filt.side == 7
            assert filt.values.shape == (49,)


class TestFskEncode:
    # fsk_encode reads omega0 and delta_omega off the config; n is not checked
    CFG = OscillatorArrayConfig(n=25, delta_omega=0.05)

    def test_perfect_match_collapses_detuning(self):
        filt = gabor_filter(5, 30.0, 0.35)
        frag = Fragment(side=5, values=filt.values.copy())
        omega = fsk_encode(frag, filt, self.CFG)
        assert np.allclose(omega, 1.0)

    def test_arithmetic(self):
        frag = Fragment(side=1, values=np.array([1.0]))
        filt = GaborFilter(side=1, values=np.array([-1.0]), theta_deg=0, k=0.2)
        assert fsk_encode(frag, filt, self.CFG)[0] == pytest.approx(1.10)
        frag2 = Fragment(side=1, values=np.array([0.25]))
        filt2 = GaborFilter(
            side=1, values=np.array([0.75]), theta_deg=0, k=0.2, binarized=False
        )
        assert fsk_encode(frag2, filt2, self.CFG)[0] == pytest.approx(0.975)

    def test_swap_reflects_about_center(self):
        frag = edge_fragment()
        filt = gabor_filter(5, 60.0, 0.5)
        forward = fsk_encode(frag, filt, self.CFG)
        backward = 1.0 + 0.05 * (filt.values - frag.values)
        assert np.allclose(forward + backward, 2.0)

    def test_range_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            frag = Fragment(side=4, values=rng.uniform(-1, 1, 16))
            filt = gabor_filter(4, rng.uniform(0, 180), rng.uniform(0, 0.6))
            omega = fsk_encode(frag, filt, self.CFG)
            assert omega.min() >= 1.0 - 2 * 0.05 - 1e-12
            assert omega.max() <= 1.0 + 2 * 0.05 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        side=st.integers(1, 4),
        data=st.data(),
        delta_omega=st.floats(0.0, 1.0),
    )
    def test_range_bound_property(self, side, data, delta_omega):
        unit = st.lists(st.floats(-1.0, 1.0), min_size=side * side, max_size=side * side)
        frag = Fragment(side=side, values=np.array(data.draw(unit)))
        filt = GaborFilter(
            side=side, values=np.array(data.draw(unit)), theta_deg=0.0, k=0.0, binarized=False
        )
        cfg = OscillatorArrayConfig(n=side * side, delta_omega=delta_omega)
        omega = fsk_encode(frag, filt, cfg)
        assert omega.min() >= cfg.omega0 - 2.0 * delta_omega
        assert omega.max() <= cfg.omega0 + 2.0 * delta_omega

    def test_side_mismatch(self):
        with pytest.raises(ConfigurationError):
            fsk_encode(edge_fragment(), gabor_filter(4, 0.0, 0.2), self.CFG)
