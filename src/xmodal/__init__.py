"""Cross-modal AI-generated-content detection toolkit.

Video frames are image signals pushed through blur, resize, and codec
quantization; this package provides the simulators for that pipeline, the
forensic analyses that expose it, a cross-modal contrastive training
objective that bridges it, and the evaluation protocol to measure the
result.
"""

__version__ = "0.1.0"

from .core import (
    ImageBuffer,
    Label,
    Manifest,
    Modality,
    SampleRecord,
    ScoredPrediction,
    load_image,
    parse_manifest,
    save_image,
    write_manifest,
)
from .pixelops import (
    ColorRange,
    Window,
    gaussian_blur,
    motion_blur,
    quantize_8bit,
    rgb_to_ycbcr,
    round_half_away,
    shorter_side_resize,
    to_luma,
    ycbcr_to_rgb,
)
from .codecsim import (
    ChainSpec,
    ColorJitterStep,
    GaussianBlurStep,
    JpegSimStep,
    MotionBlurStep,
    QuantTable,
    Quantize8BitStep,
    ResizeStep,
    TvRangeSqueezeStep,
    VideoCodecSimStep,
    VideoQuantModel,
    apply_chain,
    dct8x8_forward,
    dct8x8_inverse,
    derive_sample_seed,
    jpeg_simulate,
    quant_table_from_quality,
    tv_range_squeeze,
    video_codec_simulate,
)
from .forensics import (
    DctAcResult,
    Histogram,
    RadialProfile,
    SpectrumImage,
    TvRangeVerdict,
    dataset_mean_rapsd,
    dct_ac_histogram,
    detect_tv_range,
    luminance_histogram,
    rapsd,
    residual_power,
    residual_spectrum,
)
from .cmsupcon import (
    BatchFeatures,
    LossConfig,
    LossVariant,
    cm_supcon_grad,
    cm_supcon_loss,
    vanilla_supcon_loss,
)
from .trainer import (
    FeatureDataset,
    OptimState,
    SyntheticSpec,
    ToyModel,
    TrainConfig,
    backward,
    forward,
    generate_synthetic,
    load_checkpoint,
    mixed_batch_sampler,
    optimizer_step,
    save_checkpoint,
    train,
)
from .metrics import (
    Aggregation,
    EvalReport,
    FrameScore,
    accuracy,
    average_precision,
    balanced_accuracy,
    multi_frame_average,
    per_subset_report,
    precision_recall_f1,
)
