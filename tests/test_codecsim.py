"""DCT kernels, quantizers, codec simulators, and degradation chains."""

import math

import numpy as np
import pytest
from scipy import fft as sp_fft

from xmodal.codecsim import (
    JPEG_LUMA_BASE,
    MAX_JITTER,
    MAX_SIDE,
    MAX_SIGMA,
    STEP_FIELDS,
    _KERNELS,
    apply_chain,
    chain_steps,
    dct8x8_forward,
    dct8x8_inverse,
    deadzone_quantize_block,
    dequantize_coefficients,
    jpeg_simulate,
    quant_table_from_quality,
    quantize_coefficients,
    tv_range_squeeze,
    video_codec_simulate,
)
from xmodal.errors import InputError, NumericalError, XmodalError
from xmodal.forensics import dct_ac_histogram, luminance_histogram, rapsd

from conftest import constant_rgb, gray_image, noise_image, textured_image


class TestDct8x8:
    def test_constant_block_dc_only(self):
        coeffs = dct8x8_forward(np.full((8, 8), 0.7))
        assert coeffs[0, 0] == pytest.approx(8 * 0.7, abs=1e-12)
        ac = coeffs.copy()
        ac[0, 0] = 0.0
        assert np.abs(ac).max() < 1e-12

    def test_zero_block(self):
        assert np.all(dct8x8_forward(np.zeros((8, 8))) == 0.0)

    def test_parseval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            block = rng.normal(size=(8, 8))
            coeffs = dct8x8_forward(block)
            assert abs((coeffs**2).sum() - (block**2).sum()) < 1e-9

    def test_round_trip(self):
        block = np.random.default_rng(1).uniform(size=(8, 8))
        back = dct8x8_inverse(dct8x8_forward(block))
        assert np.abs(back - block).max() <= 1e-10

    def test_dc_only_inverse_is_constant(self):
        coeffs = np.zeros((8, 8))
        coeffs[0, 0] = 8 * 0.25
        assert np.allclose(dct8x8_inverse(coeffs), 0.25, atol=1e-12)

    def test_matches_scipy_orthonormal_dct(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            block = rng.normal(size=(8, 8))
            ours = dct8x8_forward(block)
            reference = sp_fft.dctn(block, type=2, norm="ortho")
            assert np.allclose(ours, reference, atol=1e-12)


class TestQuantTables:
    def test_q50_is_base_table(self):
        assert np.array_equal(quant_table_from_quality(50), JPEG_LUMA_BASE)

    def test_table_is_a_read_only_int64_array(self):
        table = quant_table_from_quality(75, "chroma")
        assert table.shape == (8, 8) and table.dtype == np.int64
        assert not table.flags.writeable

    def test_q96_scaling(self):
        table = quant_table_from_quality(96)
        expected = np.clip((JPEG_LUMA_BASE * 8 + 50) // 100, 1, 255)
        assert np.array_equal(table, expected)
        assert table[0, 0] == 1  # base 16 at scale 8

    def test_q100_clamps_to_one(self):
        assert np.all(quant_table_from_quality(100) == 1)

    def test_low_quality_formula(self):
        table = quant_table_from_quality(10)
        expected = np.clip((JPEG_LUMA_BASE * 500 + 50) // 100, 1, 255)
        assert np.array_equal(table, expected)

    def test_out_of_range(self):
        for q in (0, 101, -5):
            with pytest.raises(InputError, match=rf"quality must lie in \[1, 100\], got {q}"):
                quant_table_from_quality(q)

    def test_quantization_idempotent(self):
        rng = np.random.default_rng(3)
        table = quant_table_from_quality(40)
        coeffs = rng.normal(scale=120.0, size=(8, 8))
        q1 = quantize_coefficients(coeffs, table)
        rec = dequantize_coefficients(q1, table)
        q2 = quantize_coefficients(rec, table)
        assert np.array_equal(q1, q2)
        assert np.array_equal(rec, dequantize_coefficients(q2, table))


class TestDeadzone:
    def test_deadzone_zeroes_small_ac(self):
        coeffs = np.zeros((8, 8))
        coeffs[0, 1] = 8.9  # inside 0.9 * 10
        coeffs[1, 0] = 9.5  # outside
        rec = deadzone_quantize_block(coeffs, qstep=10.0, deadzone=0.9)
        assert rec[0, 1] == 0.0
        assert rec[1, 0] == 10.0

    def test_dc_exempt_from_deadzone(self):
        coeffs = np.zeros((8, 8))
        coeffs[0, 0] = 6.0
        rec = deadzone_quantize_block(coeffs, qstep=10.0, deadzone=0.9)
        assert rec[0, 0] == 10.0

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        coeffs = rng.normal(scale=40.0, size=(8, 8))
        once = deadzone_quantize_block(coeffs, 7.3, 0.4)
        twice = deadzone_quantize_block(once, 7.3, 0.4)
        assert np.array_equal(once, twice)

    def test_domain_validation(self):
        with pytest.raises(InputError, match=r"^deadzone_quantize_block: 'qstep': "):
            deadzone_quantize_block(np.zeros((8, 8)), qstep=0.0)
        with pytest.raises(InputError, match=r"^deadzone_quantize_block: 'deadzone': "):
            deadzone_quantize_block(np.zeros((8, 8)), qstep=1.0, deadzone=1.0)

    def test_subnormal_qstep_is_rejected_at_load(self):
        # a step this small once passed the check and overflowed every sample
        doc = {"steps": [{"step": "video_codec", "qstep": 1e-320}]}
        with pytest.raises(InputError, match=r"'qstep': must be a finite number >= 1e-06, "
                                             r"got 1e-320$"):
            chain_steps(doc)


class TestJpegSimulate:
    def test_constant_midgray_unchanged(self):
        img = constant_rgb(0.5, h=16, w=16)
        for quality in (10, 50, 95):
            out = jpeg_simulate(img, quality)
            assert np.abs(out - img).max() <= 1 / 255 + 1e-12

    def test_gray_input_supported(self):
        img = noise_image(0, h=24, w=24)
        out = jpeg_simulate(img, 80)
        assert len(out) == 1
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_non_multiple_of_8_dims(self):
        img = noise_image(1, h=19, w=13, channels=3)
        out = jpeg_simulate(img, 70)
        assert out.shape[1:] == (19, 13)

    def test_more_zeros_at_low_quality(self):
        zero_low, zero_high = [], []
        for seed in range(50):
            img = noise_image(seed, h=16, w=16, lo=0.2, hi=0.8)
            low = jpeg_simulate(img, 10, quantize_output=False)
            high = jpeg_simulate(img, 90, quantize_output=False)
            zero_low.append(dct_ac_histogram([low]).zero_fraction)
            zero_high.append(dct_ac_histogram([high]).zero_fraction)
        assert np.mean(zero_low) > np.mean(zero_high)

    def test_output_is_8bit_by_default(self):
        img = noise_image(2, h=16, w=16, channels=3)
        out = jpeg_simulate(img, 60)
        codes = out * 255.0
        assert np.allclose(codes, np.round(codes), atol=1e-9)

    def test_quality_monotone_zero_fraction(self):
        images = [noise_image(seed, h=16, w=16, lo=0.25, hi=0.75) for seed in range(20)]
        fractions = []
        for quality in (10, 30, 50, 70, 90):
            outs = [jpeg_simulate(img, quality, quantize_output=False) for img in images]
            fractions.append(dct_ac_histogram(outs).zero_fraction)
        # strictly decreasing zero fraction as quality rises
        diffs = np.diff(fractions)
        assert np.all(diffs < 0)
        from scipy.stats import spearmanr

        rho, _ = spearmanr([10, 30, 50, 70, 90], fractions)
        assert rho <= -0.9


class TestVideoCodecSimulate:
    def test_fine_quantization_near_identity(self):
        img = noise_image(0, h=16, w=16)
        out = video_codec_simulate(img, qstep=1e-6, deadzone=0.0)
        assert np.abs(out - img).max() < 1e-4

    def test_constant_within_one_code(self):
        img = constant_rgb(0.4, h=16, w=16)
        out = video_codec_simulate(img, qstep=12.0, deadzone=0.5)
        assert np.abs(out - img).max() <= 1 / 255

    def test_deadzone_beats_jpeg_q90_zero_fraction(self):
        video_zero, jpeg_zero = [], []
        for seed in range(20):
            img = noise_image(seed, h=16, w=16, lo=0.25, hi=0.75)
            video_zero.append(
                dct_ac_histogram([video_codec_simulate(img, 16.0, 0.9)]).zero_fraction
            )
            jpeg_zero.append(
                dct_ac_histogram([jpeg_simulate(img, 90, quantize_output=False)]).zero_fraction
            )
        assert np.mean(video_zero) > np.mean(jpeg_zero)


class TestTvRangeSqueeze:
    def test_black_point_round_trip(self):
        img = constant_rgb(0.0, h=8, w=8)
        out = tv_range_squeeze(img)
        assert np.abs(out).max() <= 1 / 255 + 1e-12

    def test_ramp_develops_empty_bins(self):
        ramp = gray_image(np.tile(np.arange(256) / 255.0, (8, 1)))
        counts = luminance_histogram([tv_range_squeeze(ramp)])
        assert np.count_nonzero(counts == 0) >= 1

    def test_near_idempotent(self):
        img = textured_image(0, h=32, w=32, channels=3)
        once = tv_range_squeeze(img)
        twice = tv_range_squeeze(once)
        assert np.abs(twice - once).max() <= 1 / 255 + 1e-12


class TestChains:
    def test_identityish_chain_on_midgray(self):
        img = constant_rgb(0.5, h=24, w=24)
        chain = chain_steps({"steps": [
            {"step": "motion_blur", "length": 1, "angle_deg": 0.0},
            {"step": "resize", "shorter_side": 24},
            {"step": "jpeg", "quality": 100},
        ]})
        out = apply_chain(img, chain, np.random.default_rng(0))
        assert np.abs(out - img).max() <= 1 / 255 + 1e-12

    def test_canonical_chain_cuts_high_frequencies(self):
        img = noise_image(0, h=48, w=48)
        chain = chain_steps({"steps": [
            {"step": "motion_blur", "length": 5, "angle_deg": 0.0},
            {"step": "resize", "shorter_side": 32},
            {"step": "video_codec", "qstep": 16.0, "deadzone": 0.5},
        ]})
        out = apply_chain(img, chain, np.random.default_rng(0))
        before = rapsd(img, nbins=12)
        after = rapsd(out, nbins=12)
        top = slice(8, 12)
        assert after.power[top].mean() < before.power[top].mean()

    def test_apply_chain_deterministic(self):
        img = textured_image(1, h=32, w=32, channels=3)
        chain = chain_steps({"steps": [
            {"step": "gaussian_blur", "sigma": 0.8},
            {"step": "color_jitter", "brightness": (0.9, 1.1), "contrast": (0.9, 1.1),
             "saturation": (0.9, 1.1)},
            {"step": "jpeg", "quality": 70},
        ]})
        a = apply_chain(img, chain, np.random.default_rng(42))
        b = apply_chain(img, chain, np.random.default_rng(42))
        assert np.array_equal(a, b)
        c = apply_chain(img, chain, np.random.default_rng(43))
        assert not np.array_equal(a, c)

    def test_every_step_has_a_kernel(self):
        assert list(_KERNELS) == list(STEP_FIELDS)

    def test_chain_steps_fill_in_omitted_keys(self):
        chain = chain_steps({"steps": [
            {"step": "motion_blur", "length": 5},
            {"step": "gaussian_blur", "sigma": 0.5},
            {"step": "resize", "shorter_side": 128},
            {"step": "jpeg", "quality": 80},
            {"step": "video_codec", "qstep": 8.0},
            {"step": "tv_range_squeeze"},
            {"step": "color_jitter", "contrast": [0.9, 1.1]},
            {"step": "quantize_8bit"},
        ]})
        assert [step["step"] for step in chain] == list(STEP_FIELDS)
        assert chain[0] == {"step": "motion_blur", "length": 5, "angle_deg": 0.0}
        assert chain[4] == {"step": "video_codec", "qstep": 8.0, "deadzone": 0.0}
        assert chain[6] == {"step": "color_jitter", "brightness": (1.0, 1.0),
                            "contrast": (0.9, 1.1), "saturation": (1.0, 1.0)}

    def test_bad_step_built_in_code_names_its_index(self):
        steps = [{"step": "jpeg", "quality": 75}, {"step": "video_codec", "qstep": 0.0}]
        with pytest.raises(InputError, match=r"^step 1 'video_codec': 'qstep': must be"):
            chain_steps({"steps": steps})
        with pytest.raises(InputError, match=r"^step 0 'jpeg': 'qualty': unknown key"):
            chain_steps({"steps": [{"step": "jpeg", "qualty": 75}]})

    def test_color_jitter_draws_each_factor_from_default_pairs_too(self):
        # the three draws keep every later draw of the stream where it was
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        chain = chain_steps({"steps": [{"step": "color_jitter", "contrast": [0.9, 1.1]}]})
        apply_chain(noise_image(0, h=8, w=8, channels=3), chain, rng)
        [ref.uniform(*pair) for pair in ((1.0, 1.0), (0.9, 1.1), (1.0, 1.0))]
        assert rng.random() == ref.random()

    def test_apply_chain_takes_only_checked_steps(self):
        img = noise_image(0, h=8, w=8)
        with pytest.raises(InputError, match="^apply_chain: steps must be those chain_steps"):
            apply_chain(img, [{"step": "motion_blur", "length": 5}], np.random.default_rng(0))

    def test_step_documents_are_read_only(self):
        step = chain_steps({"steps": [{"step": "jpeg", "quality": 75}]})[0]
        with pytest.raises(TypeError):
            step["quality"] = 5
        with pytest.raises(AttributeError):
            step.pop("quality")

    def test_parameterless_steps_apply(self):
        chain = chain_steps({"steps": [{"step": "tv_range_squeeze"}, {"step": "quantize_8bit"}]})
        assert chain == ({"step": "tv_range_squeeze"}, {"step": "quantize_8bit"})
        img = noise_image(0, h=16, w=16, channels=3)
        out = apply_chain(img, chain, np.random.default_rng(0))
        assert len(out) == 3

    def test_unknown_step_name(self):
        with pytest.raises(InputError, match="step 0: unknown chain step 'h264'"):
            chain_steps({"steps": [{"step": "h264"}]})

    @pytest.mark.parametrize("step, key, largest", [
        ("motion_blur", "length", MAX_SIDE),
        ("gaussian_blur", "sigma", MAX_SIGMA),
        ("resize", "shorter_side", MAX_SIDE),
    ])
    def test_size_budget_is_the_largest_accepted_value(self, step, key, largest):
        parse = lambda v: chain_steps({"steps": [{"step": step, key: v}]})
        assert parse(largest)[0][key] == largest
        with pytest.raises(InputError, match=f"step 0 '{step}': '{key}': must be"):
            parse(largest + 1)
        if step == "gaussian_blur":  # the kernel spans 2*ceil(3*sigma) + 1 pixels
            assert 2 * math.ceil(3 * largest) + 1 <= MAX_SIDE < 2 * math.ceil(3 * (largest + 1))

    @pytest.mark.parametrize("key", ["brightness", "contrast", "saturation"])
    def test_color_jitter_factors_are_bounded(self, key):
        parse = lambda pair: chain_steps({"steps": [{"step": "color_jitter", key: pair}]})
        assert parse([0, MAX_JITTER])[0][key] == (0, MAX_JITTER)
        for pair in ([0, MAX_JITTER + 1], [1e308, 1e308]):
            with pytest.raises(InputError, match=f"step 0 'color_jitter': '{key}': must be a pair"):
                parse(pair)

    def test_largest_color_jitter_stays_finite(self):
        # the largest brightness and contrast with no saturation: 1e308 made NaN
        img = noise_image(0, h=16, w=16, channels=3)
        step = {"step": "color_jitter", "brightness": (MAX_JITTER, MAX_JITTER),
                "contrast": (MAX_JITTER, MAX_JITTER), "saturation": (0.0, 0.0)}
        out = apply_chain(img, chain_steps({"steps": [step]}), np.random.default_rng(0))
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_non_finite_chain_result_is_an_xmodal_error(self):
        # a gray JPEG round trip of 1e308 samples overflows to NaN; the check
        # at the chain's end raises an error the corpus loop counts
        img = np.full((1, 8, 8), 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="must be finite") as err:
                apply_chain(img, chain_steps({"steps": [{"step": "jpeg", "quality": 75}]}),
                            np.random.default_rng(0))
        assert isinstance(err.value, XmodalError)

    def test_empty_chain_rejected(self):
        with pytest.raises(InputError, match=r"^chain document must be \{'steps': \[...\]\} "
                                             "with at least one step$"):
            chain_steps({"steps": []})
