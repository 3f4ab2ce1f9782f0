"""Cross-modal AI-generated-content detection toolkit.

Video frames are image signals pushed through blur, resize, and codec
quantization; this package provides the simulators for that pipeline, the
forensic analyses that expose it, a cross-modal contrastive training
objective that bridges it, and the evaluation protocol to measure the
result.

Importing the package loads none of its modules: each public name, and each
submodule, is imported on first use, so a command loads only its own stack.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them
_EXPORTS = {
    "core": ("ScoredPrediction", "load_image", "parse_manifest", "save_image",
             "write_manifest"),
    "pixelops": ("gaussian_blur", "motion_blur", "quantize_8bit", "rgb_to_ycbcr",
                 "round_half_away", "shorter_side_resize", "to_luma", "ycbcr_to_rgb"),
    "codecsim": ("apply_chain", "chain_steps", "dct8x8_forward", "dct8x8_inverse",
                 "derive_sample_seed", "jpeg_simulate", "quant_table_from_quality",
                 "tv_range_squeeze", "video_codec_simulate"),
    "forensics": ("DctAcResult", "RadialProfile", "dataset_mean_rapsd", "dct_ac_histogram",
                  "detect_tv_range", "luminance_histogram", "rapsd", "residual_power",
                  "residual_spectrum"),
    "cmsupcon": ("contrastive_grad", "contrastive_loss"),
    "trainer": ("FeatureDataset", "SyntheticSpec", "ToyModel", "backward", "forward",
                "generate_synthetic", "load_checkpoint", "mixed_batch_sampler",
                "optimizer_step", "save_checkpoint", "train", "train_config"),
    "metrics": ("FrameScore", "multi_frame_average", "per_subset_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "errors", "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
