"""RIS-assisted MIMO downlink: channels, codebooks, beam training, and
alternating rate optimization, plus a seeded experiment harness."""

from .channel import (
    ChannelRealization,
    FarFieldSpec,
    PathSpec,
    PhaseShiftVector,
    cascade,
    far_channel,
    near_channel,
    synthesize_channel,
    ula_response,
    upa_response,
)
from .codebook import (
    Codebook,
    Codeword,
    SamplingGrid,
    build_ff_codebook,
    build_hybrid_codebook,
    build_nn_codebook,
    ff_steering,
    star,
    subdivide_range,
)
from .geometry import SystemGeometry
from .harness import ExperimentConfig, ResultRow, parse_config, run_experiment
from .optimizer import (
    AOState,
    Combiner,
    Precoder,
    achievable_rate,
    ao_loop,
    mse_matrix,
    optimal_combiner,
    solve_precoder,
    weight_update,
)
from .training import (
    TrainingReport,
    angular_sweep,
    exhaustive_search,
    hierarchical_nn,
    two_stage_hybrid,
)

__version__ = "0.1.0"
