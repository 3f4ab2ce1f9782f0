"""DCT histograms, RAPSD, luminance-range detection, residual spectra."""

import numpy as np
import pytest

from xmodal.codecsim import (
    apply_chain,
    chain_steps,
    jpeg_simulate,
    tv_range_squeeze,
)
from xmodal.errors import InputError
from xmodal.forensics import (
    dataset_mean_rapsd,
    dct_ac_histogram,
    detect_tv_range,
    luminance_histogram,
    rapsd,
    residual_power,
    residual_spectrum,
)
from xmodal.pixelops import gaussian_blur

from conftest import constant_rgb, gray_image, noise_image, textured_image


class TestDctAcHistogram:
    def test_constant_image_all_zero_ac(self):
        result = dct_ac_histogram([constant_rgb(0.3, h=16, w=16)])
        assert result.zero_fraction == 1.0
        assert result.total_ac == 4 * 63

    def test_uncompressed_noise_has_no_zeros(self):
        images = [noise_image(seed, h=32, w=32) for seed in range(5)]
        result = dct_ac_histogram(images)
        assert result.zero_fraction < 0.01

    def test_compression_ordering(self):
        images = [noise_image(seed, h=16, w=16, lo=0.25, hi=0.75) for seed in range(10)]
        low = dct_ac_histogram(
            [jpeg_simulate(i, 10, quantize_output=False) for i in images]
        ).zero_fraction
        high = dct_ac_histogram(
            [jpeg_simulate(i, 90, quantize_output=False) for i in images]
        ).zero_fraction
        assert low > high

    def test_counts_sum_to_total(self):
        result = dct_ac_histogram([textured_image(0)], value_range=8.0, nbins=17)
        assert len(result.bin_edges) == len(result.counts) + 1 == 18
        assert result.counts.sum() <= result.total_ac  # clipped tails allowed

    def test_empty_input(self):
        with pytest.raises(InputError, match="dct_ac_histogram needs at least one image"):
            dct_ac_histogram([])

    def test_too_small_image(self):
        with pytest.raises(InputError, match="need at least 8x8 pixels, got 4x4"):
            dct_ac_histogram([gray_image(np.zeros((4, 4)))])


class TestRapsd:
    def test_constant_image_zero_power(self):
        profile = rapsd(constant_rgb(0.6, h=32, w=32), nbins=8)
        assert np.all(profile.power < 1e-20)

    def test_white_noise_flat_spectrum(self):
        nbins = 8
        profiles = np.stack(
            [rapsd(noise_image(seed, h=64, w=64), nbins=nbins).power for seed in range(20)]
        )
        mean_per_bin = profiles.mean(axis=0)
        se_per_bin = profiles.std(axis=0, ddof=1) / np.sqrt(profiles.shape[0])
        grand = mean_per_bin.mean()
        assert np.all(np.abs(mean_per_bin - grand) <= 3.0 * se_per_bin + 1e-12)

    def test_blur_never_raises_bin_power(self):
        img = noise_image(3, h=32, w=32)
        blurred = gaussian_blur(img, 2.0)
        before = rapsd(img, nbins=10)
        after = rapsd(blurred, nbins=10)
        assert np.all(after.power <= before.power + 1e-9)

    def test_constant_shift_invariance_exact(self):
        # dyadic pixel grid and power-of-2 dims make mean subtraction exact
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 256, size=(32, 32))
        img = gray_image(codes / 256.0)
        shifted = gray_image(codes / 256.0 + 0.5)
        a = rapsd(img, nbins=8)
        b = rapsd(shifted, nbins=8)
        assert np.array_equal(a.power, b.power)

    def test_flip_invariance(self):
        img = noise_image(1, h=48, w=48)
        a = rapsd(img, nbins=12).power
        b = rapsd(img[:, :, ::-1], nbins=12).power
        assert np.allclose(a, b, atol=1e-9)

    def test_hann_window_accepted(self):
        profile = rapsd(noise_image(0, h=32, w=32), window="hann", nbins=8)
        assert np.all(np.isfinite(profile.power))

    def test_too_small(self):
        with pytest.raises(InputError, match="rapsd needs at least 16x16 pixels, got 8x8"):
            rapsd(noise_image(0, h=8, w=8))


class TestDatasetMeanRapsd:
    def test_single_image_equals_rapsd(self):
        direct = rapsd(textured_image(0, h=32, w=32), nbins=8)
        assert np.array_equal(dataset_mean_rapsd([direct]).power, direct.power)

    @pytest.mark.parametrize("copies", [2, 4])
    def test_identical_copies_mean_exact(self, copies):
        direct = rapsd(textured_image(1, h=32, w=32), nbins=8)
        mean = dataset_mean_rapsd(iter([direct] * copies))
        assert np.array_equal(mean.power, direct.power)
        assert np.array_equal(mean.counts, copies * direct.counts)

    def test_three_copies_near_exact(self):
        direct = rapsd(textured_image(2, h=32, w=32), nbins=8)
        mean = dataset_mean_rapsd([direct] * 3)
        assert np.allclose(mean.power, direct.power, rtol=1e-14)

    def test_degraded_set_loses_high_band(self):
        originals = [noise_image(i, h=48, w=48) for i in range(10)]
        chain = chain_steps({"steps": [
            {"step": "motion_blur", "length": 5, "angle_deg": 0.0},
            {"step": "resize", "shorter_side": 32},
            {"step": "video_codec", "qstep": 16.0, "deadzone": 0.5},
        ]})
        degraded = [apply_chain(img, chain, np.random.default_rng(7)) for img in originals]
        nbins = 12
        orig = dataset_mean_rapsd(rapsd(img, nbins=nbins) for img in originals)
        degr = dataset_mean_rapsd(rapsd(img, nbins=nbins) for img in degraded)
        top = slice(2 * nbins // 3, nbins)
        assert degr.power[top].mean() < orig.power[top].mean()

    def test_empty_input(self):
        with pytest.raises(InputError, match="dataset_mean_rapsd needs at least one profile"):
            dataset_mean_rapsd(iter(()))


def ramp_image() -> np.ndarray:
    return gray_image(np.tile(np.arange(256) / 255.0, (16, 1)))


class TestLuminanceHistogram:
    def test_constant_single_bin(self):
        counts = luminance_histogram([constant_rgb(0.5, h=8, w=8)])
        assert np.count_nonzero(counts) == 1
        assert counts.max() == 64

    def test_ramp_fills_every_bin(self):
        counts = luminance_histogram([ramp_image()])
        assert np.all(counts > 0)

    def test_squeezed_ramp_has_interior_gap(self):
        counts = luminance_histogram([tv_range_squeeze(ramp_image())])
        interior = counts[16:236]
        assert np.count_nonzero(interior == 0) >= 1

    def test_counts_sum(self):
        counts = luminance_histogram([noise_image(0, h=10, w=10)])
        assert counts.shape == (256,) and counts.sum() == 100


class TestDetectTvRange:
    def test_full_ramp_is_full(self):
        verdict, tail_mass, comb_score = detect_tv_range(luminance_histogram([ramp_image()]))
        assert verdict == "full"
        assert tail_mass > 0.01

    def test_squeezed_ramp_is_limited(self):
        verdict, tail_mass, comb_score = detect_tv_range(
            luminance_histogram([tv_range_squeeze(ramp_image())])
        )
        assert verdict == "limited"
        assert comb_score > 0.02

    def test_letterboxed_full_range_is_full(self):
        # black bars plus scene tones 0.25..1.0: codes 16..63 are unused, not a comb
        plane = np.zeros((100, 256))
        plane[20:80] = np.linspace(0.25, 1.0, 256)
        verdict, tail_mass, comb_score = detect_tv_range(luminance_histogram([gray_image(plane)]))
        assert verdict == "full"
        assert comb_score == 0.0

    def test_letterboxed_squeezed_ramp_stays_limited(self):
        plane = np.zeros((100, 256))
        plane[20:80] = np.arange(256) / 255.0
        squeezed = tv_range_squeeze(gray_image(plane))
        verdict, tail_mass, comb_score = detect_tv_range(luminance_histogram([squeezed]))
        assert verdict == "limited"
        assert comb_score > 0.02

    def test_constant_is_indeterminate(self):
        verdict, tail_mass, comb_score = detect_tv_range(
            luminance_histogram([constant_rgb(0.5, h=8, w=8)])
        )
        assert verdict == "indeterminate"
        assert tail_mass == 0.0
        assert comb_score == 0.0

    def test_wrong_bin_count(self):
        with pytest.raises(InputError, match="expected 256 bins, got 10"):
            detect_tv_range(np.ones(10, dtype=np.int64))


def mean_residual_spectrum(images, denoise_sigma=1.0, size=64):
    return residual_spectrum(residual_power(img, denoise_sigma, size) for img in images)


class TestResidualSpectrum:
    def test_constant_dataset_zero_spectrum(self):
        values = mean_residual_spectrum([constant_rgb(0.4, h=64, w=64) for _ in range(3)])
        assert np.all(np.abs(values) < 1e-12)

    def test_noise_residual_is_high_pass(self):
        values = mean_residual_spectrum([noise_image(i, h=64, w=64) for i in range(5)])
        cy, cx = 32, 32
        lf = values[cy - 8 : cy + 8, cx - 8 : cx + 8].mean()
        mask = np.ones_like(values, dtype=bool)
        mask[cy - 8 : cy + 8, cx - 8 : cx + 8] = False
        hf = values[mask].mean()
        assert hf > lf

    def test_stripe_pattern_peaks_at_its_frequency(self):
        size = 64
        xx = np.tile(np.arange(size), (size, 1))
        stripes = 0.5 + 0.3 * np.sin(2 * np.pi * xx / 8.0)  # vertical stripes, period 8
        values = mean_residual_spectrum([gray_image(stripes)], size=size)
        cy, cx = size // 2, size // 2
        k = size // 8
        peak_bins = {(cy, cx - k), (cy, cx + k)}
        values[cy, cx] = -np.inf  # ignore any DC leakage
        flat_order = np.argsort(values.ravel())[::-1]
        top2 = {tuple(np.unravel_index(i, values.shape)) for i in flat_order[:2]}
        assert top2 == peak_bins

    def test_nonnegative_everywhere(self):
        values = mean_residual_spectrum([textured_image(0, h=48, w=48)], size=32)
        assert values.min() >= 0.0

    def test_small_images_padded(self):
        values = mean_residual_spectrum([textured_image(1, h=20, w=24)], size=32)
        assert values.shape == (32, 32)

    def test_mean_is_log_of_mean_power(self):
        powers = [residual_power(noise_image(i, h=32, w=32), 1.0, 16) for i in range(3)]
        expected = np.fft.fftshift(np.log10(1.0 + sum(powers) / 3))
        assert np.allclose(residual_spectrum(powers), expected, rtol=1e-14)

    def test_empty_input(self):
        with pytest.raises(InputError, match="residual_spectrum needs at least one spectrum"):
            residual_spectrum(iter(()))


class TestColorInputsAndLimits:
    def test_rapsd_accepts_color_input(self):
        img = noise_image(0, h=32, w=32, channels=3)
        profile = rapsd(img, nbins=8)
        assert np.all(np.isfinite(profile.power))

    def test_dataset_mean_rapsd_chain_preprocessing(self):
        images = [noise_image(k, h=32, w=32) for k in range(4)]
        chain = chain_steps({"steps": [{"step": "gaussian_blur", "sigma": 2.0}]})
        rng = np.random.default_rng(1)
        plain = dataset_mean_rapsd(rapsd(img, nbins=8) for img in images)
        chained = dataset_mean_rapsd(
            rapsd(apply_chain(img, chain, rng), nbins=8) for img in images
        )
        assert chained.power[-1] < plain.power[-1]


class TestValidatorsRejectNan:
    def test_dct_histogram_nan_range(self):
        with pytest.raises(InputError, match="value_range"):
            dct_ac_histogram([constant_rgb(0.3, h=16, w=16)], value_range=float("nan"))
