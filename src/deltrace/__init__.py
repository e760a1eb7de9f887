"""Trace reconstruction over the deletion channel: structured sources, mask
events, a run-alignment reconstructor, exact and asymptotic probabilities,
and a reproducible experiment harness.

The public names below load their submodule on first access (PEP 562), so
`import deltrace.cli` runs cli.py before anything imports numpy."""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "analytics": """ProbReport ThresholdParams TraceCount critical_rate log_ratio_diagnostic
            poly_trace_table prob_no_pattern_witness_asymptotic prob_no_pattern_witness_exact
            prob_uncovered_run_asymptotic prob_uncovered_run_mgf prob_uncovered_run_sum""",
        "bits": """BitString PatternSpan RepeatBlockSpec RunFractionSpec RunProfile is_subsequence
            make_repeat_instance make_run_instance run_decompose""",
        "channel": "DeletionMask MaskedTrace RngSpec apply_mask sample_traces",
        "events": """AdjacentPattern AmbiguityWitness EventReport SandwichPattern
            detect_ambiguities detect_events""",
        "harness": """AuditReport ConfigError EstimateRow ExperimentConfig InfeasibleError
            audit_implications estimate_event_probs""",
        "reconstruct": """ReconstructionResult SufficiencyVerdict consistent_sources
            is_levenshtein_sufficient maximal_runs""",
    }.items()
    for name in names.split()
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
