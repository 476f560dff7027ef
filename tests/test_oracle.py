import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscconv.oracle
from oscconv import (
    ConfigurationError,
    FeatureMap,
    Fragment,
    Image,
    InputError,
    convolve_valid,
    distance_identity_check,
    dot,
    edge_fragment,
    gabor_filter,
)


def naive_feature_map(grid, kernel, mode):
    """Independent reference: explicit quadruple loop, no vectorization."""
    gh, gw = len(grid), len(grid[0])
    s = len(kernel)
    out = []
    for r in range(gh - s + 1):
        row = []
        for c in range(gw - s + 1):
            acc = 0.0
            for i in range(s):
                for j in range(s):
                    if mode == "convolution":
                        acc += grid[r + i][c + j] * kernel[s - 1 - i][s - 1 - j]
                    else:
                        acc += grid[r + i][c + j] * kernel[i][j]
            row.append(acc)
        out.append(row)
    return np.array(out)


def shifted_view_map(grid, kernel, mode):
    """Independent reference for large maps: 2-D shifted views of the image
    times each tap, summed from zero in row-major tap order."""
    s = kernel.shape[0]
    if mode == "convolution":
        kernel = kernel[::-1, ::-1]
    h, w = grid.shape[0] - s + 1, grid.shape[1] - s + 1
    out = np.zeros((h, w))
    for i in range(s):
        for j in range(s):
            out = out + grid[i:i + h, j:j + w] * kernel[i, j]
    return out


def mixed_kernel(rng, side):
    """Kernel entries drawn from exact +-1.0, +-0.0 and uniform values, so
    the taps added without a multiply meet the multiplied ones."""
    pool = np.concatenate([[1.0, -1.0, 1.0, -1.0, 0.0, -0.0], rng.uniform(-1, 1, 4)])
    return Fragment(side=side, values=rng.choice(pool, side * side))


def random_image(rng, width, height):
    return Image(width=width, height=height, values=rng.uniform(-1, 1, width * height))


@st.composite
def map_shapes(draw):
    """(width, height, side): image sides up to 12, any kernel side that fits."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return width, height, draw(st.integers(1, min(width, height)))


class TestDot:
    def test_perfect_match(self):
        filt = gabor_filter(5, 30.0, 0.35)
        frag = Fragment(side=5, values=filt.values.copy())
        assert dot(frag, filt) == 25.0

    def test_orthogonal_patterns(self):
        a = Fragment(side=2, values=np.array([1.0, 1.0, -1.0, -1.0]))
        b = gabor_filter(2, 0.0, 0.0)
        assert dot(a, b) == 0.0

    def test_small_example(self):
        frag = Fragment(side=2, values=np.array([0.5, -0.5, 1.0, 0.0]))
        filt = Fragment(side=2, values=np.array([1.0, 1.0, -1.0, 1.0]))
        assert dot(frag, filt) == pytest.approx(0.5 - 0.5 - 1.0 + 0.0)

    def test_symmetric_and_bilinear(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.uniform(-1, 1, 9)
            b = rng.uniform(-1, 1, 9)
            c = rng.uniform(-1, 1, 9)
            fa, fb = Fragment(3, a), Fragment(3, b)
            assert dot(fa, fb) == pytest.approx(dot(fb, fa), rel=1e-14)
            lam = 0.37
            combo = Fragment(3, lam * b + (1 - lam) * c)
            expected = lam * dot(fa, Fragment(3, b)) + (1 - lam) * dot(fa, Fragment(3, c))
            assert dot(fa, combo) == pytest.approx(expected, rel=1e-12)

    def test_side_mismatch(self):
        with pytest.raises(ConfigurationError):
            dot(edge_fragment(), gabor_filter(4, 0.0, 0.2))


class TestConvolveValid:
    def test_identity_kernel_correlation(self):
        rng = np.random.default_rng(1)
        img = random_image(rng, 6, 4)
        kernel = Fragment(side=1, values=np.array([1.0]))
        fmap = convolve_valid(img, kernel, mode="correlation")
        assert fmap.width == 6 and fmap.height == 4
        assert np.allclose(fmap.grid(), img.grid())

    def test_constant_image_closed_form(self):
        img = Image(width=7, height=7, values=np.full(49, 0.5))
        filt = gabor_filter(3, 60.0, 0.35)
        fmap = convolve_valid(img, filt)
        expected = 0.5 * filt.values.sum()
        assert np.allclose(fmap.values, expected)
        assert fmap.width == 5 and fmap.height == 5

    @pytest.mark.parametrize("mode", ["convolution", "correlation"])
    def test_matches_naive_loop(self, mode):
        rng = np.random.default_rng(4)
        for width, height, side in [(5, 5, 3), (8, 6, 3), (7, 9, 5), (4, 4, 4)]:
            img = random_image(rng, width, height)
            filt = Fragment(side=side, values=rng.uniform(-1, 1, side * side))
            fmap = convolve_valid(img, filt, mode=mode)
            ref = naive_feature_map(
                img.grid().tolist(), filt.values.reshape(side, side).tolist(), mode
            )
            assert np.array_equal(fmap.grid(), ref)

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(["convolution", "correlation"]),
        shape=map_shapes(),
        seed=st.integers(0, 2**32 - 1),
    )
    # a 1-row map, a 1-column map and a 1x1 kernel, whatever else is drawn
    @example(mode="convolution", shape=(12, 5, 5), seed=0)
    @example(mode="correlation", shape=(4, 11, 4), seed=1)
    @example(mode="convolution", shape=(9, 7, 1), seed=2)
    def test_matches_naive_loop_property(self, mode, shape, seed):
        width, height, side = shape
        rng = np.random.default_rng(seed)
        img = random_image(rng, width, height)
        filt = Fragment(side=side, values=rng.uniform(-1, 1, side * side))
        fmap = convolve_valid(img, filt, mode=mode)
        ref = naive_feature_map(
            img.grid().tolist(), filt.values.reshape(side, side).tolist(), mode
        )
        assert np.array_equal(fmap.grid(), ref)

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(["convolution", "correlation"]),
        shape=map_shapes(),
        block_values=st.sampled_from([1, 5, 13, 2**14]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_kernels_in_small_blocks_match_naive_loop(self, mode, shape, block_values,
                                                            seed):
        # blocks of one row, of a few rows with a partial last block, or the whole map
        width, height, side = shape
        rng = np.random.default_rng(seed)
        img = random_image(rng, width, height)
        filt = mixed_kernel(rng, side)
        with mock.patch.object(oscconv.oracle, "_BLOCK_VALUES", block_values):
            fmap = convolve_valid(img, filt, mode=mode)
        ref = naive_feature_map(
            img.grid().tolist(), filt.values.reshape(side, side).tolist(), mode
        )
        assert np.array_equal(fmap.grid(), ref)

    @pytest.mark.parametrize("mode", ["convolution", "correlation"])
    @pytest.mark.parametrize(
        "width, height, side",
        [
            # 54 map rows per block: two full blocks and a partial one of 18
            (300, 130, 5),
            # wider than a block: one map row per block
            (2**14 + 9, 4, 3),
        ],
    )
    def test_maps_across_row_blocks_are_exact(self, mode, width, height, side):
        rng = np.random.default_rng(width + height)
        img = random_image(rng, width, height)
        for filt in (mixed_kernel(rng, side), gabor_filter(side, 30.0, 0.35)):
            fmap = convolve_valid(img, filt, mode=mode)
            kernel = filt.values.reshape(side, side)
            assert np.array_equal(fmap.grid(), shifted_view_map(img.grid(), kernel, mode))

    @pytest.mark.parametrize("mode", ["convolution", "correlation"])
    def test_map_shares_no_memory_with_image(self, mode):
        rng = np.random.default_rng(6)
        img = random_image(rng, 7, 6)
        before = img.values.copy()
        fmap = convolve_valid(img, Fragment(side=3, values=rng.uniform(-1, 1, 9)), mode=mode)
        assert np.array_equal(img.values, before)
        assert not fmap.values.flags.writeable
        assert not np.shares_memory(fmap.values, img.values)

    def test_single_position_correlation_is_dot(self):
        rng = np.random.default_rng(2)
        img = random_image(rng, 5, 5)
        filt = gabor_filter(5, 120.0, 0.5)
        fmap = convolve_valid(img, filt, mode="correlation")
        assert fmap.values.shape == (1,)
        assert fmap.values[0] == pytest.approx(dot(img.window(0, 0, 5), filt), abs=1e-12)

    def test_convolution_is_correlation_of_rotated_kernel(self):
        rng = np.random.default_rng(5)
        img = random_image(rng, 8, 8)
        filt = Fragment(side=3, values=rng.uniform(-1, 1, 9))
        rotated = Fragment(side=3, values=filt.values.reshape(3, 3)[::-1, ::-1].ravel())
        conv = convolve_valid(img, filt, mode="convolution")
        corr = convolve_valid(img, rotated, mode="correlation")
        assert np.array_equal(conv.grid(), corr.grid())

    def test_filter_too_big(self):
        img = Image(width=3, height=3, values=np.zeros(9))
        with pytest.raises(InputError):
            convolve_valid(img, gabor_filter(5, 0.0, 0.2))

    def test_unknown_mode(self):
        img = Image(width=5, height=5, values=np.zeros(25))
        with pytest.raises(ConfigurationError):
            convolve_valid(img, gabor_filter(3, 0.0, 0.2), mode="full")


class TestImage:
    def test_window_extraction(self):
        values = np.arange(12, dtype=float) / 11.0
        img = Image(width=4, height=3, values=2 * values - 1)
        frag = img.window(1, 2, 2)
        expected = img.grid()[1:3, 2:4].ravel()
        assert np.array_equal(frag.values, expected)

    def test_window_bounds(self):
        img = Image(width=4, height=3, values=np.zeros(12))
        with pytest.raises(InputError):
            img.window(1, 2, 3)
        with pytest.raises(InputError):
            img.window(-1, 0, 2)

    def test_copies_callers_values(self):
        values = np.zeros(16)
        img = Image(width=4, height=4, values=values)
        values[0] = 0.5
        assert img.values[0] == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Image(width=2, height=2, values=np.zeros(3))
        with pytest.raises(ConfigurationError):
            Image(width=2, height=2, values=np.array([0.0, 0.0, 0.0, 2.0]))
        with pytest.raises(ConfigurationError):
            Image(width=0, height=2, values=np.zeros(0))

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError, match="image values"):
            Image(width=1, height=1, values=[math.nan])


class TestFeatureMap:
    def test_copies_callers_values(self):
        values = np.zeros(6)
        fmap = FeatureMap(width=3, height=2, values=values)
        values[0] = 2.0
        assert fmap.values[0] == 0.0

    def test_keeps_nan_cells(self):
        # a failed window's cell holds NaN; a map is not bounded to [-1, +1]
        fmap = FeatureMap(width=2, height=1, values=[math.nan, 3.0])
        assert math.isnan(fmap.values[0]) and fmap.values[1] == 3.0


class TestDistanceIdentity:
    def test_binary_patterns(self):
        filt = gabor_filter(5, 30.0, 0.35)
        frag = Fragment(side=5, values=filt.values.copy())
        lhs, rhs = distance_identity_check(frag, filt)
        assert lhs == 50.0
        assert rhs == 50.0

    def test_random_patterns(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            frag = Fragment(side=4, values=rng.uniform(-1, 1, 16))
            other = Fragment(side=4, values=rng.uniform(-1, 1, 16))
            lhs, rhs = distance_identity_check(frag, other)
            assert lhs == pytest.approx(rhs, abs=1e-12)
