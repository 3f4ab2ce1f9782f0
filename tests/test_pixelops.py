"""Color conversion, resize, blur, and luma behavior."""

import numpy as np
import pytest

from xmodal.errors import InputError
from xmodal.pixelops import (
    gaussian_blur,
    motion_blur,
    motion_blur_kernel,
    quantize_8bit,
    rgb_to_ycbcr,
    round_half_away,
    shorter_side_resize,
    to_luma,
    ycbcr_to_rgb,
)

from conftest import constant_rgb, gray_image, noise_image, rgb_image


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.5) == 1.0
        assert round_half_away(-0.5) == -1.0
        assert round_half_away(2.5) == 3.0
        assert round_half_away(np.array([1.4, -1.4])).tolist() == [1.0, -1.0]


class TestColorConversion:
    def test_white_full_range(self):
        yc = rgb_to_ycbcr(constant_rgb(1.0), "full")
        assert yc[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert yc[1, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert yc[2, 0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_pure_red_luma(self):
        red = rgb_image(np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
        assert rgb_to_ycbcr(red)[0, 0, 0] == pytest.approx(0.299, abs=1e-12)

    def test_white_limited_range(self):
        yc = rgb_to_ycbcr(constant_rgb(1.0), "limited")
        assert yc[0, 0, 0] == pytest.approx(235 / 255, abs=1e-12)

    def test_limited_black_point_inverse(self):
        ycbcr = rgb_image(
            np.full((2, 2), 16 / 255), np.full((2, 2), 128 / 255), np.full((2, 2), 128 / 255)
        )
        rgb = ycbcr_to_rgb(ycbcr, "limited")
        assert np.all(np.abs(rgb) < 1e-6)

    def test_neutral_inverse_full(self):
        ycbcr = rgb_image(np.ones((2, 2)), np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        rgb = ycbcr_to_rgb(ycbcr, "full")
        assert np.allclose(rgb, 1.0, atol=1e-12)

    @pytest.mark.parametrize("color_range", ["full", "limited"])
    def test_round_trip(self, color_range):
        img = noise_image(3, h=9, w=7, channels=3)
        back = ycbcr_to_rgb(rgb_to_ycbcr(img, color_range), color_range)
        assert np.allclose(back, img, atol=1e-6)

    def test_limited_luma_stays_in_tv_band(self):
        for seed in range(5):
            img = noise_image(seed, h=8, w=8, channels=3, lo=0.0, hi=1.0)
            y = rgb_to_ycbcr(img, "limited")[0]
            assert y.min() >= 16 / 255 - 1e-12
            assert y.max() <= 235 / 255 + 1e-12

    def test_wrong_channel_count(self):
        with pytest.raises(InputError, match=r"shape \(3, height, width\), got \(1, 4, 4\)"):
            rgb_to_ycbcr(gray_image(np.zeros((4, 4))))
        with pytest.raises(InputError, match=r"shape \(3, height, width\), got \(1, 4, 4\)"):
            ycbcr_to_rgb(gray_image(np.zeros((4, 4))))


class TestQuantize8Bit:
    def test_half_code_rounds_up(self):
        buf = gray_image(np.full((1, 1), 0.5))
        assert quantize_8bit(buf)[0, 0, 0] == 128 / 255

    def test_zero_is_fixed_point(self):
        buf = gray_image(np.zeros((2, 2)))
        assert np.all(quantize_8bit(buf) == 0.0)

    def test_idempotent(self):
        img = noise_image(0, h=16, w=16)
        once = quantize_8bit(img)
        twice = quantize_8bit(once)
        assert np.array_equal(once, twice)


class TestResize:
    def test_identity_when_shorter_side_matches(self):
        img = noise_image(1, h=256, w=512)
        out = shorter_side_resize(img, 256)
        assert np.shares_memory(out, img) and out.shape == img.shape  # no copy

    def test_integer_halving(self):
        img = noise_image(2, h=512, w=1024)
        out = shorter_side_resize(img, 256)
        assert out.shape[1:] == (256, 512)

    def test_aspect_rounding(self):
        img = noise_image(3, h=200, w=300)
        out = shorter_side_resize(img, 256)
        assert out.shape[1:] == (256, 384)

    def test_min_side_always_target(self):
        for seed, (h, w) in enumerate([(100, 37), (64, 193), (31, 31)]):
            out = shorter_side_resize(noise_image(seed, h=h, w=w), 48)
            assert min(out.shape[1:]) == 48

    def test_constant_preserved(self):
        img = constant_rgb(0.37, h=20, w=30)
        out = shorter_side_resize(img, 14)
        assert np.allclose(out, 0.37, atol=1e-12)

    def test_a_longer_side_past_the_size_budget_raises(self):
        # a 16384-wide output: raised before any array of that size is allocated
        words = "resizing 128x1 to shorter side 128 gives 16384x128, a side longer than 4096"
        with pytest.raises(InputError, match=f"^{words}$"):
            shorter_side_resize(np.zeros((1, 1, 128)), 128)
        assert shorter_side_resize(np.zeros((1, 1, 128)), 32).shape == (1, 32, 4096)


class TestGaussianBlur:
    def test_sigma_zero_identity(self):
        img = noise_image(0)
        out = gaussian_blur(img, 0.0)
        assert np.shares_memory(out, img) and out.shape == img.shape

    def test_constant_unchanged(self):
        img = constant_rgb(0.42, h=16, w=16)
        out = gaussian_blur(img, 2.5)
        assert np.allclose(out, 0.42, atol=1e-9)

    def test_impulse_gives_kernel(self):
        size = 17
        plane = np.zeros((size, size))
        plane[size // 2, size // 2] = 1.0
        out = gaussian_blur(gray_image(plane), 1.0)[0]
        radius = 3
        taps = np.exp(-0.5 * (np.arange(-radius, radius + 1)) ** 2)
        taps /= taps.sum()
        expected = np.zeros_like(plane)
        expected[
            size // 2 - radius : size // 2 + radius + 1,
            size // 2 - radius : size // 2 + radius + 1,
        ] = np.outer(taps, taps)
        assert np.allclose(out, expected, atol=1e-12)

    def test_mean_preserved(self):
        img = noise_image(7, h=24, w=24)
        out = gaussian_blur(img, 1.7)
        assert out.mean() == pytest.approx(img.mean(), abs=1e-6)


class TestMotionBlur:
    def test_length_one_identity(self):
        img = noise_image(0)
        out = motion_blur(img, 1, 45.0)
        assert np.shares_memory(out, img) and out.shape == img.shape

    def test_constant_unchanged(self):
        img = constant_rgb(0.3, h=16, w=16)
        out = motion_blur(img, 5, 30.0)
        assert np.allclose(out, 0.3, atol=1e-9)

    def test_horizontal_length3_row(self):
        plane = np.zeros((1, 5))
        plane[0, 2] = 3.0
        out = motion_blur(gray_image(plane), 3, 0.0)[0]
        assert np.allclose(out, [[0.0, 1.0, 1.0, 1.0, 0.0]], atol=1e-12)

    def test_kernel_sums_to_one(self):
        for length, angle in [(3, 0), (5, 30), (7, 90), (4, 135), (9, 63)]:
            kernel = motion_blur_kernel(length, angle)
            assert kernel.sum() == pytest.approx(1.0, abs=1e-12)


class TestFlipAndLuma:
    def test_luma_passthrough_for_gray(self):
        img = noise_image(0)
        out = to_luma(img)
        assert np.shares_memory(out, img) and out.shape == img.shape

    def test_luma_of_white_and_green(self):
        assert to_luma(constant_rgb(1.0))[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        green = rgb_image(np.zeros((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))
        assert to_luma(green)[0, 0, 0] == pytest.approx(0.587, abs=1e-12)
