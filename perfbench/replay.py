"""Traced replay: a workload's config run again through the public functions
of bits, channel, events, reconstruct and analytics, with a span around every
call.

The replay draws the same masks as the harness: trial i samples its traces
from RngSpec(seed).trial_rng(i), and sample_traces takes rng.random((T, n)) < p
exactly as the harness's trial loop does.  Its counts therefore have to equal
the CSV counts for the same config, which run.py checks.
"""

from __future__ import annotations

import json
import time

from deltrace import (
    AdjacentPattern,
    BitString,
    PatternSpan,
    RepeatBlockSpec,
    RngSpec,
    RunFractionSpec,
    SandwichPattern,
    TraceCount,
    detect_ambiguities,
    detect_events,
    is_levenshtein_sufficient,
    is_subsequence,
    make_repeat_instance,
    make_run_instance,
    maximal_runs,
    prob_uncovered_run_asymptotic,
    prob_uncovered_run_mgf,
    run_decompose,
    sample_traces,
)

from checks import ORACLE_CAP


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, trial id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.trial])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args):
        index = self.begin(name)
        result = fn(*args)
        self.end(index)
        return result

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")


def instance(source: dict):
    """Source string, run profile and declared span, as the harness builds them."""
    n = source["n"]
    if source["kind"] == "repeat":
        spec = RepeatBlockSpec(BitString(source["pattern"]), source["ell"], source.get("a", 1.0))
        s, span = make_repeat_instance(spec, n)
        return s, run_decompose(s), span
    s = make_run_instance(RunFractionSpec(source.get("first_bit", 0), tuple(source["fractions"])), n)
    profile = run_decompose(s)
    lengths = profile.lengths
    longest = lengths.index(max(lengths))
    return s, profile, PatternSpan(offset=sum(lengths[:longest]), period=1, copies=lengths[longest])


def _audit_patterns(profile) -> list:
    """Adjacent run pairs at every boundary and sandwiches around single-bit
    interior runs: the patterns the audit declares."""
    lengths = profile.lengths
    bit = lambda i: BitString([(profile.first_bit + i) % 2])  # noqa: E731
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    patterns = [AdjacentPattern(starts[i], bit(i), lengths[i], bit(i + 1), lengths[i + 1])
                for i in range(len(lengths) - 1)]
    patterns += [SandwichPattern(starts[i - 1], bit(i - 1), bit(i), lengths[i - 1], lengths[i + 1])
                 for i in range(1, len(lengths) - 1) if lengths[i] == 1]
    return patterns


def _replay_trials(cfg: dict, tr: Tracer) -> dict:
    audit = cfg["mode"] == "audit"
    s, profile, span = tr.call("bits.instance", instance, cfg["source"])
    n, p, t_count = len(s), cfg["p"], cfg["traces"]
    patterns = _audit_patterns(profile) if audit else []
    oracle = audit or n <= ORACLE_CAP
    spec = RngSpec(master_seed=cfg["seed"])
    counts = {"no-pattern-witness": 0, "uncovered-run": 0, "reconstruction-error": 0}
    if oracle:
        counts["difficulty"] = 0
    breaches = {"no-witness-and-sufficient": 0, "covered-and-wrong": 0,
                "ambiguity-alternative-inconsistent": 0}
    for trial in range(cfg["trials"]):
        tr.trial = trial
        root = tr.begin("trial")
        rng = tr.call("channel.trial_rng", spec.trial_rng, trial)
        traces = tr.call("channel.sample_traces", sample_traces, s, p, t_count, rng)
        events = tr.call("events.detect_events", detect_events, traces, [span], profile)
        witnessed = events.pattern_witness[0]
        counts["no-pattern-witness"] += not witnessed
        counts["uncovered-run"] += not events.run_covered
        plain = [mt.trace for mt in traces]
        result = tr.call("reconstruct.maximal_runs", maximal_runs, n, plain)
        wrong = not (result.ok and result.string == s)
        counts["reconstruction-error"] += wrong
        breaches["covered-and-wrong"] += events.run_covered and wrong
        if oracle:
            verdict = tr.call("reconstruct.oracle", is_levenshtein_sufficient, s, plain)
            counts["difficulty"] += not verdict.sufficient
            breaches["no-witness-and-sufficient"] += (not witnessed) and verdict.sufficient
        if audit:
            found = tr.call("events.detect_ambiguities", detect_ambiguities, s, traces, patterns)
            for witness in found:
                if not all(tr.call("bits.is_subsequence", is_subsequence, t, witness.alternative)
                           for t in plain):
                    breaches["ambiguity-alternative-inconsistent"] += 1
        tr.end(root)
    tr.trial = None
    return {"counts": counts, "breaches": breaches if audit else {}, "n": n,
            "traces": t_count, "copies": span.copies}


def _replay_sweep(cfg: dict, tr: Tracer) -> dict:
    fractions, p, a = cfg["source"]["fractions"], cfg["p"], cfg.get("a", 1.0)
    rows = []
    for c in cfg["c_grid"]:
        for n in cfg["n_grid"]:
            count = TraceCount.exponential(c, n, a)
            lengths = [frac * n for frac in fractions]
            exact = tr.call("analytics.prob_uncovered_run_mgf", prob_uncovered_run_mgf,
                            lengths, p, count)
            asym = tr.call("analytics.prob_uncovered_run_asymptotic",
                           prob_uncovered_run_asymptotic, fractions, p, c, count)
            for report in (exact, asym):
                rows.append({"n": n, "c": c, "method": report.method,
                             "ln_value": report.ln_value, "flags": list(report.flags)})
    return {"rows": rows, "runs": len(fractions)}


def replay(cfg: dict, tracer: Tracer) -> dict:
    """Replay one config under a root span; returns what run.py cross-checks."""
    root = tracer.begin("replay")
    result = (_replay_sweep if cfg["mode"] == "sweep" else _replay_trials)(cfg, tracer)
    tracer.end(root)
    return result
