"""Budget-constrained hierarchical Shapley/Owen attribution for black-box
score functions, plus a desk-scale extraction simulator driven by the
class-wise attribution objective."""

from .blackbox import (
    Model,
    ModelOutputError,
    TopKConfig,
    VictimSpec,
    WrappedModel,
    make_victim,
    query,
    wrap_topk_hard,
    wrap_topk_soft,
)
from .core import (
    AtomGrid,
    BudgetExhausted,
    ConfigError,
    PartitionTree,
    QueryLedger,
    build_atom_grid,
    build_partition_tree,
    derive_seed,
    make_rng,
)
from .explainer import (
    BudgetTooSmall,
    ExplainConfig,
    choose_depth,
    explain,
    explain_all_classes,
    explain_cost,
)
from .extraction import (
    ExtractionConfig,
    ExtractionReport,
    SubstituteModel,
    run_comparison,
    run_extraction,
    train_substitute,
)
from .masking import MaskerSpec, blur_reference
from .objectives import (
    ObjectiveWeights,
    ce_clone_loss,
    class_objective,
    disagreement,
    kl_clone_loss,
    normalize_shap,
)
from .oracle import (
    Attribution,
    TableGame,
    exact_owen,
    exact_shapley,
    group_uniform_shapley,
    masked_game,
)
from .synthesis import (
    SHAP_OFF,
    DecaySchedule,
    SynthConfig,
    parse_schedule,
    schedule_lookup,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "AtomGrid",
    "Attribution",
    "BudgetExhausted",
    "BudgetTooSmall",
    "ConfigError",
    "DecaySchedule",
    "ExplainConfig",
    "ExtractionConfig",
    "ExtractionReport",
    "MaskerSpec",
    "Model",
    "ModelOutputError",
    "ObjectiveWeights",
    "PartitionTree",
    "QueryLedger",
    "SHAP_OFF",
    "SubstituteModel",
    "SynthConfig",
    "TableGame",
    "TopKConfig",
    "VictimSpec",
    "WrappedModel",
    "blur_reference",
    "build_atom_grid",
    "build_partition_tree",
    "ce_clone_loss",
    "choose_depth",
    "class_objective",
    "derive_seed",
    "disagreement",
    "exact_owen",
    "exact_shapley",
    "explain",
    "explain_all_classes",
    "explain_cost",
    "group_uniform_shapley",
    "kl_clone_loss",
    "make_rng",
    "make_victim",
    "masked_game",
    "normalize_shap",
    "parse_schedule",
    "query",
    "run_comparison",
    "run_extraction",
    "schedule_lookup",
    "synthesize",
    "train_substitute",
    "wrap_topk_hard",
    "wrap_topk_soft",
]
