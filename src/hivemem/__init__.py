"""Parallel agent teams sharing a learned-admission memory bank.

K team loops run concurrently over one task; a trainable controller
decides which intermediate steps enter a global key-value memory bank;
teams retrieve each other's results instead of recomputing them; and
the controller is trained by stepwise policy gradients with
group-relative, usage-aware, sparsity-regularized credit assignment.
"""

from .bank import MemoryBank, MemoryEntry
from .controller import (
    NO,
    YES,
    AdmissionPolicy,
    ControllerContext,
    Decision,
    StepTriplet,
    build_context,
    decide,
    embed,
    log_prob,
)
from .embeddings import EmbeddingProvider, HashingEmbedder
from .errors import (
    BackendFailure,
    ConfigurationError,
    EntryNotFoundError,
    HivememError,
    SchemaError,
    TrainingDiverged,
    ValidationError,
)
from .metrics import RunMetrics, compute_metrics, report
from .runtime import (
    AgentBackend,
    Candidate,
    ConstantAdmission,
    EpisodeTrace,
    FinalMove,
    HeuristicAdmission,
    LearnedAdmission,
    MajorityAggregator,
    RetrieveMove,
    StepMove,
    TaskSpec,
    first_finisher,
    run_episode,
)
from .sim import (
    ScriptedBackend,
    SimScorer,
    SimTask,
    generate_task,
    run_matrix,
    run_variant,
    variant_policy,
)
from .training import (
    AdamW,
    RewardBreakdown,
    TrainConfig,
    TrainReport,
    episode_reward,
    group_advantage,
    shaped_advantages,
    train,
)

__version__ = "0.1.0"
