"""Guided score-based enhancement: diffusion enhancement of noisy signals with
a one-shot denoiser steering the early reverse steps, offline or streamed in
fixed-latency chunks.
"""

from .audio import MixSpec, Signal, fft_radix2, lsd, read_wav, sdr_db, synthesize_pair, write_wav
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    DomainError,
    GseError,
    WavFormatError,
)
from .nets import (
    DenoiserNet,
    ScoreNet,
    TimeEmbedding,
    TrainConfig,
    TrainResult,
    load_checkpoint,
    save_checkpoint,
    train_denoiser,
    train_score,
)
from .sampler import (
    CostLedger,
    DiffusionState,
    SamplerConfig,
    StepPlan,
    corrector_step,
    predictor_step,
    reverse_process,
)
from .score import (
    AnalyticGaussianScore,
    DiscriminativeScore,
    GaussianPrior,
    GuidanceSchedule,
    HybridScore,
    LearnedScore,
    ScoreProvider,
    analytic_gaussian_score,
    discriminative_score,
)
from .sde import (
    SdeParams,
    diffusion_coeff,
    forward_ensemble_moments,
    make_rng,
    mean,
    perturb,
    sample_perturbed,
    std,
    variance,
)
from .streaming import (
    HistoryBank,
    LatencyReport,
    StreamConfig,
    StreamEnhancer,
    enhance_offline,
    enhance_stream,
    process_chunk,
    realtime_factor,
)

__version__ = "0.1.0"
