"""Trace reconstruction over the deletion channel: structured sources, mask
events, a run-alignment reconstructor, exact and asymptotic probabilities,
and a reproducible experiment harness."""

from .analytics import (
    ProbReport,
    ThresholdParams,
    TraceCount,
    critical_rate,
    log_ratio_diagnostic,
    poly_trace_table,
    prob_no_pattern_witness_asymptotic,
    prob_no_pattern_witness_exact,
    prob_uncovered_run_asymptotic,
    prob_uncovered_run_mgf,
    prob_uncovered_run_sum,
    prob_unpreserved_run,
)
from .bits import (
    BitString,
    PatternSpan,
    RepeatBlockSpec,
    RunFractionSpec,
    RunProfile,
    is_subsequence,
    make_repeat_instance,
    make_run_instance,
    run_compose,
    run_decompose,
)
from .channel import (
    DeletionMask,
    MaskedTrace,
    RngSpec,
    apply_mask,
    sample_mask,
    sample_traces,
    trace_is_consistent,
)
from .events import (
    AdjacentPattern,
    AmbiguityWitness,
    EventReport,
    SandwichPattern,
    copy_fully_deleted,
    detect_ambiguities,
    detect_events,
    has_pattern_witness,
    run_coverage,
)
from .harness import (
    AuditReport,
    ConfigError,
    EstimateRow,
    ExperimentConfig,
    InfeasibleError,
    audit_implications,
    estimate_difficulty,
    estimate_event_probs,
    estimate_mr_error,
    sweep_threshold,
    wilson_interval,
)
from .reconstruct import (
    ReconstructionResult,
    SufficiencyVerdict,
    consistent_sources,
    is_levenshtein_sufficient,
    maximal_runs,
)

__version__ = "0.1.0"
