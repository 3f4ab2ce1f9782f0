"""DCT histograms, RAPSD, luminance-range detection, residual spectra."""

import numpy as np
import pytest

from xmodal.codecsim import (
    ChainSpec,
    MotionBlurStep,
    ResizeStep,
    VideoCodecSimStep,
    apply_chain,
    jpeg_simulate,
    tv_range_squeeze,
)
from xmodal.core import ImageBuffer, Label, Manifest, Modality, SampleRecord
from xmodal.errors import (
    AllSamplesFailedError,
    EmptyInputError,
    ImageTooSmallError,
    WrongBinCountError,
)
from xmodal.forensics import (
    Histogram,
    TvRangeVerdict,
    Window,
    dataset_mean_rapsd,
    dct_ac_histogram,
    detect_tv_range,
    luminance_histogram,
    rapsd,
    residual_spectrum,
)
from xmodal.pixelops import Boundary, gaussian_blur

from conftest import constant_rgb, gray_image, noise_image, textured_image


def memory_manifest(images: dict[str, ImageBuffer]):
    """(manifest, loader) pair serving in-memory buffers by record path."""
    records = tuple(
        SampleRecord(name, name, Label.REAL, Modality.IMAGE, "mem")
        for name in images
    )

    def loader(path: str) -> ImageBuffer:
        if path not in images:
            raise OSError(f"missing {path}")
        return images[path]

    return Manifest(records, "memory"), loader


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
        assert result.histogram.counts.sum() == result.histogram.total
        assert result.histogram.total <= result.total_ac  # clipped tails allowed

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            dct_ac_histogram([])

    def test_too_small_image(self):
        with pytest.raises(ImageTooSmallError):
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
        blurred = gaussian_blur(img, 2.0, Boundary.CIRCULAR)
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
        b = rapsd(ImageBuffer(img.data[:, :, ::-1]), nbins=12).power
        assert np.allclose(a, b, atol=1e-9)

    def test_hann_window_accepted(self):
        profile = rapsd(noise_image(0, h=32, w=32), window=Window.HANN, nbins=8)
        assert np.all(np.isfinite(profile.power))

    def test_too_small(self):
        with pytest.raises(ImageTooSmallError):
            rapsd(noise_image(0, h=8, w=8))


class TestDatasetMeanRapsd:
    def test_single_image_equals_rapsd(self):
        img = textured_image(0, h=32, w=32)
        manifest, loader = memory_manifest({"a": img})
        result = dataset_mean_rapsd(manifest, nbins=8, loader=loader)
        direct = rapsd(img, nbins=8)
        assert np.array_equal(result.profile.power, direct.power)

    @pytest.mark.parametrize("copies", [2, 4])
    def test_identical_copies_mean_exact(self, copies):
        img = textured_image(1, h=32, w=32)
        manifest, loader = memory_manifest({f"c{i}": img for i in range(copies)})
        result = dataset_mean_rapsd(manifest, nbins=8, loader=loader)
        direct = rapsd(img, nbins=8)
        assert np.array_equal(result.profile.power, direct.power)

    def test_three_copies_near_exact(self):
        img = textured_image(2, h=32, w=32)
        manifest, loader = memory_manifest({f"c{i}": img for i in range(3)})
        result = dataset_mean_rapsd(manifest, nbins=8, loader=loader)
        direct = rapsd(img, nbins=8)
        assert np.allclose(result.profile.power, direct.power, rtol=1e-14)

    def test_degraded_set_loses_high_band(self):
        originals = {f"o{i}": noise_image(i, h=48, w=48) for i in range(10)}
        chain = ChainSpec(
            (MotionBlurStep(5, 0.0), ResizeStep(32), VideoCodecSimStep(16.0, 0.5))
        )
        degraded = {
            k: apply_chain(img, chain, np.random.default_rng(7))
            for k, img in originals.items()
        }
        m1, l1 = memory_manifest(originals)
        m2, l2 = memory_manifest(degraded)
        nbins = 12
        orig = dataset_mean_rapsd(m1, nbins=nbins, loader=l1).profile
        degr = dataset_mean_rapsd(m2, nbins=nbins, loader=l2).profile
        top = slice(2 * nbins // 3, nbins)
        assert degr.power[top].mean() < orig.power[top].mean()

    def test_partial_failures_counted(self):
        images = {"good": textured_image(0, h=32, w=32)}
        records = (
            SampleRecord("good", "good", Label.REAL, Modality.IMAGE, "s"),
            SampleRecord("bad", "missing", Label.REAL, Modality.IMAGE, "s"),
        )
        manifest = Manifest(records, "memory")

        def loader(path):
            if path != "good":
                raise OSError("nope")
            return images["good"]

        result = dataset_mean_rapsd(manifest, nbins=8, loader=loader)
        assert result.n_used == 1
        assert result.n_failed == 1
        assert result.failed_ids == ("bad",)

    def test_all_failures_raise(self):
        records = (SampleRecord("x", "x", Label.REAL, Modality.IMAGE, "s"),)
        manifest = Manifest(records, "memory")

        def loader(path):
            raise OSError("nope")

        with pytest.raises(AllSamplesFailedError):
            dataset_mean_rapsd(manifest, nbins=8, loader=loader)


def ramp_image() -> ImageBuffer:
    return gray_image(np.tile(np.arange(256) / 255.0, (16, 1)))


class TestLuminanceHistogram:
    def test_constant_single_bin(self):
        hist = luminance_histogram([constant_rgb(0.5, h=8, w=8)])
        assert np.count_nonzero(hist.counts) == 1
        assert hist.counts.max() == 64

    def test_ramp_fills_every_bin(self):
        hist = luminance_histogram([ramp_image()])
        assert np.all(hist.counts > 0)

    def test_squeezed_ramp_has_interior_gap(self):
        hist = luminance_histogram([tv_range_squeeze(ramp_image())])
        interior = hist.counts[16:236]
        assert np.count_nonzero(interior == 0) >= 1

    def test_counts_sum(self):
        hist = luminance_histogram([noise_image(0, h=10, w=10)])
        assert hist.counts.sum() == hist.total == 100


class TestDetectTvRange:
    def test_full_ramp_is_full(self):
        verdict, evidence = detect_tv_range(luminance_histogram([ramp_image()]))
        assert verdict is TvRangeVerdict.FULL
        assert evidence.tail_mass > 0.01

    def test_squeezed_ramp_is_limited(self):
        verdict, evidence = detect_tv_range(
            luminance_histogram([tv_range_squeeze(ramp_image())])
        )
        assert verdict is TvRangeVerdict.LIMITED
        assert evidence.comb_score > 0.02

    def test_letterboxed_full_range_is_full(self):
        # black bars plus scene tones 0.25..1.0: codes 16..63 are unused, not a comb
        plane = np.zeros((100, 256))
        plane[20:80] = np.linspace(0.25, 1.0, 256)
        verdict, evidence = detect_tv_range(luminance_histogram([gray_image(plane)]))
        assert verdict is TvRangeVerdict.FULL
        assert evidence.comb_score == 0.0

    def test_letterboxed_squeezed_ramp_stays_limited(self):
        plane = np.zeros((100, 256))
        plane[20:80] = np.arange(256) / 255.0
        squeezed = tv_range_squeeze(gray_image(plane))
        verdict, evidence = detect_tv_range(luminance_histogram([squeezed]))
        assert verdict is TvRangeVerdict.LIMITED
        assert evidence.comb_score > 0.02

    def test_constant_is_indeterminate(self):
        verdict, evidence = detect_tv_range(
            luminance_histogram([constant_rgb(0.5, h=8, w=8)])
        )
        assert verdict is TvRangeVerdict.INDETERMINATE
        assert evidence.tail_mass == 0.0
        assert evidence.comb_score == 0.0

    def test_wrong_bin_count(self):
        hist = Histogram(np.arange(11.0), np.ones(10, dtype=np.int64), 10)
        with pytest.raises(WrongBinCountError):
            detect_tv_range(hist)


class TestResidualSpectrum:
    def test_constant_dataset_zero_spectrum(self):
        manifest, loader = memory_manifest(
            {f"c{i}": constant_rgb(0.4, h=64, w=64) for i in range(3)}
        )
        result = residual_spectrum(manifest, denoise_sigma=1.0, size=64, loader=loader)
        assert np.all(np.abs(result.spectrum.values) < 1e-12)

    def test_noise_residual_is_high_pass(self):
        manifest, loader = memory_manifest(
            {f"n{i}": noise_image(i, h=64, w=64) for i in range(5)}
        )
        result = residual_spectrum(manifest, denoise_sigma=1.0, size=64, loader=loader)
        values = result.spectrum.values
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
        manifest, loader = memory_manifest({"s": gray_image(stripes)})
        result = residual_spectrum(manifest, denoise_sigma=1.0, size=size, loader=loader)
        values = result.spectrum.values.copy()
        cy, cx = size // 2, size // 2
        k = size // 8
        peak_bins = {(cy, cx - k), (cy, cx + k)}
        values[cy, cx] = -np.inf  # ignore any DC leakage
        flat_order = np.argsort(values.ravel())[::-1]
        top2 = {tuple(np.unravel_index(i, values.shape)) for i in flat_order[:2]}
        assert top2 == peak_bins

    def test_nonnegative_everywhere(self):
        manifest, loader = memory_manifest({"t": textured_image(0, h=48, w=48)})
        result = residual_spectrum(manifest, size=32, loader=loader)
        assert result.spectrum.values.min() >= 0.0

    def test_small_images_padded(self):
        manifest, loader = memory_manifest({"small": textured_image(1, h=20, w=24)})
        result = residual_spectrum(manifest, size=32, loader=loader)
        assert result.spectrum.values.shape == (32, 32)


class TestColorInputsAndLimits:
    def test_rapsd_accepts_color_input(self):
        img = noise_image(0, h=32, w=32, channels=3)
        profile = rapsd(img, nbins=8)
        assert np.all(np.isfinite(profile.power))

    def test_dataset_mean_rapsd_chain_preprocessing(self):
        from xmodal.codecsim import ChainSpec, GaussianBlurStep

        images = {f"i{k}": noise_image(k, h=32, w=32) for k in range(4)}
        manifest, loader = memory_manifest(images)
        plain = dataset_mean_rapsd(manifest, nbins=8, loader=loader)
        chained = dataset_mean_rapsd(
            manifest, preprocess=ChainSpec((GaussianBlurStep(2.0),)),
            nbins=8, loader=loader, seed=1,
        )
        assert chained.profile.power[-1] < plain.profile.power[-1]
