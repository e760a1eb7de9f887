"""Experiment layer: JSON config parsing, Monte Carlo estimators with paired
per-trial sampling, implication audits, threshold sweeps, and CSV emission.

Reproducibility contract: identical config + seed gives byte-identical CSV.
Floats are serialized with repr, trials are reduced in index order, and the
sidecar carries no timestamps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .analytics import (
    DIRECT_SUM_MAX_TRACES,
    ThresholdParams,
    TraceCount,
    _check_mgf_runs,
    critical_rate,
    prob_no_pattern_witness_asymptotic,
    prob_no_pattern_witness_exact,
    prob_uncovered_run_asymptotic,
    prob_uncovered_run_mgf,
    prob_uncovered_run_sum,
)
from .bits import (
    BitString,
    PatternSpan,
    RepeatBlockSpec,
    RunFractionSpec,
    _run_lengths,
    frozen,
    make_repeat_instance,
    make_run_instance,
)
from . import kernel
from .kernel import (InfeasibleError, RngSpec, _covered_runs, _embedding_tables, _embeds_flipped, _mask_block,
                     _matchers, _run_alignment_misses, _RunTables, _span_wiped, _sufficient)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration (exit code 2)."""


ESTIMATORS = ("difficulty", "no-pattern-witness", "uncovered-run", "reconstruction-error")
DIFFICULTY_DEFAULT_MAX_N = 20  # above it, montecarlo runs difficulty only if named
CSV_HEADER = "estimator,n,p,T_or_c,a,value,ln_value,ci_low,ci_high,trials,seed,method"
WILSON_Z = 1.959963984540054  # two-sided 95%

_MODE_KEYS = {
    "montecarlo": {"mode", "source", "p", "traces", "trials", "seed", "out", "estimators"},
    "exact": {"mode", "source", "p", "traces", "out"},
    "asymptotic": {"mode", "source", "p", "traces", "out"},
    "sweep": {"mode", "source", "p", "c_grid", "n_grid", "a", "out"},
    "audit": {"mode", "source", "p", "traces", "trials", "seed", "out"},
    "generate": {"mode", "source", "out"},
}
MODES = tuple(_MODE_KEYS)


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _json_int(value, within, message: str) -> int:
    """value if it is a JSON integer (not true or false) for which within
    holds; ConfigError(message) otherwise."""
    _require(isinstance(value, int) and not isinstance(value, bool) and within(value), message)
    return value


def _json_number(value, within, message: str) -> float:
    """value as a float if it is a JSON integer or number (not true or false)
    for which within holds; ConfigError(message) otherwise."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool) and within(value), message)
    return float(value)


def _check_keys(obj: dict, allowed: set, where: str):
    _require(isinstance(obj, dict), f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


@frozen
class _Instance:
    """A concrete source string with everything the estimators consume:
    lengths is its run table, the length of each maximal run of s in order."""

    s: BitString
    span: PatternSpan
    lengths: np.ndarray


@frozen
class SourceSpec:
    """The config's source: a recipe from the bits layer plus the length n.

    ``recipe`` is a RepeatBlockSpec (kind ``repeat``), a RunFractionSpec
    (kind ``runs``) or the literal BitString (kind ``bits``, whose n is its
    length).  ``n`` is None only in sweep configs, where the n-grid supplies it.
    """

    recipe: RepeatBlockSpec | RunFractionSpec | BitString
    n: int | None

    @classmethod
    def from_dict(cls, obj, *, allow_missing_n: bool) -> "SourceSpec":
        _require(isinstance(obj, dict), "source must be a JSON object")
        kind = obj.get("kind")
        _require(kind in ("repeat", "runs", "bits"), "source.kind must be repeat, runs, or bits")
        if kind == "bits":
            _check_keys(obj, {"kind", "bits"}, "source")
            bits = obj.get("bits")
            _require(isinstance(bits, str) and bits and set(bits) <= {"0", "1"},
                     "source.bits must be a nonempty 0/1 string")
            return cls(BitString(bits), len(bits))
        n = obj.get("n")
        if not allow_missing_n:
            n = _json_int(n, lambda v: v >= 1, "source.n must be a positive integer")
            _require(n <= sys.float_info.max, "source.n exceeds the largest float, about 1.8e308")
        else:
            _require(n is None, "omit source.n: the sweep n-grid supplies it")
        if kind == "repeat":
            _check_keys(obj, {"kind", "pattern", "ell", "a", "n"}, "source")
            pattern = obj.get("pattern")
            _require(isinstance(pattern, str) and pattern and set(pattern) <= {"0", "1"},
                     "source.pattern must be a nonempty 0/1 string")
            ell = _json_number(obj.get("ell"), lambda v: 0 < v <= 1, "source.ell must lie in (0, 1]")
            a = _json_number(obj.get("a", 1.0), lambda v: 0 < v <= 1, "source.a must lie in (0, 1]")
            return cls(RepeatBlockSpec(pattern, ell, a), n)
        _check_keys(obj, {"kind", "first_bit", "fractions", "n"}, "source")
        first = _json_int(obj.get("first_bit", 0), lambda v: v in (0, 1),
                          "source.first_bit must be 0 or 1")
        fracs = obj.get("fractions")
        message = "source.fractions must be a list of numbers in (0, 1)"
        _require(isinstance(fracs, list) and fracs, message)
        fracs = [_json_number(x, lambda v: 0 < v < 1, message) for x in fracs]
        _require(abs(sum(fracs) - 1.0) <= 1e-9, "source.fractions must sum to 1")
        return cls(RunFractionSpec(first, fracs), n)

    def run_count(self) -> int:
        """The run count of instance(), read off a repeat or runs recipe
        without building the string, and off a literal string's bit changes
        without its run table; raises as instance() does on a source it
        refuses."""
        if self.n > MAX_TRIAL_ELEMENTS:  # refused before the string is allocated
            raise InfeasibleError(f"the source needs n = {self.n} bits, over the cap of {MAX_TRIAL_ELEMENTS} bits")
        if isinstance(self.recipe, BitString):
            bits = self.recipe.bits
            return int(np.count_nonzero(bits[1:] != bits[:-1])) + 1
        try:
            return self.recipe.run_count(self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def instance(self) -> _Instance:
        """The length-n string, its declared span (the repeated block of a
        repeat source, otherwise the first longest run) and its run table."""
        self.run_count()  # every refusal, before the string is allocated
        recipe, span = self.recipe, None
        if isinstance(recipe, RepeatBlockSpec):
            s, span = make_repeat_instance(recipe, self.n)
        elif isinstance(recipe, RunFractionSpec):
            s = make_run_instance(recipe, self.n)
        else:
            s = recipe
        lengths = _run_lengths(s.bits)
        if span is None:
            longest = int(lengths.argmax())
            span = PatternSpan(int(lengths[:longest].sum()), 1, int(lengths[longest]))
        return _Instance(s, span, lengths)


@frozen
class ExperimentConfig:
    mode: str
    source: SourceSpec
    p: float | None = None
    traces: int | None = None
    schedule: tuple[float, float] | None = None  # (c, a)
    trials: int | None = None
    seed: int | None = None
    out: str | None = None
    estimators: tuple[str, ...] | None = None
    c_grid: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    sweep_a: float = 1.0

    @classmethod
    def from_dict(cls, obj: dict, mode: str | None = None) -> "ExperimentConfig":
        _require(isinstance(obj, dict), "config must be a JSON object")
        cfg_mode = obj.get("mode", mode)
        _require(cfg_mode in MODES, f"mode must be one of {', '.join(MODES)}")
        _require(mode is None or cfg_mode == mode,
                 f"config mode {cfg_mode!r} does not match subcommand {mode!r}")
        _check_keys(obj, _MODE_KEYS[cfg_mode], f"{cfg_mode} config")
        source = SourceSpec.from_dict(obj.get("source"), allow_missing_n=cfg_mode == "sweep")
        out = obj.get("out")
        _require(out is None or (isinstance(out, str) and out), "out must be a nonempty path")

        if cfg_mode == "generate":
            return cls(mode=cfg_mode, source=source, out=out)

        p = _json_number(obj.get("p"), lambda v: 0 <= v <= 1, "p must be a probability in [0, 1]")
        kwargs = dict(mode=cfg_mode, source=source, p=p, out=out)

        if cfg_mode == "sweep":
            c_grid = obj.get("c_grid")
            message = "c_grid must be a list of positive rates"
            _require(isinstance(c_grid, list) and c_grid, message)
            c_grid = tuple(_json_number(c, lambda v: v > 0, message) for c in c_grid)
            n_grid = obj.get("n_grid")
            message = "n_grid must be a list of positive integers"
            _require(isinstance(n_grid, list) and n_grid, message)
            n_grid = tuple(_json_int(n, lambda v: v >= 1, message) for n in n_grid)
            _require(max(n_grid) <= sys.float_info.max, "n_grid entries exceed the largest float, about 1.8e308")
            a = _json_number(obj.get("a", 1.0), lambda v: 0 < v <= 1, "a must lie in (0, 1]")
            _require(not isinstance(source.recipe, BitString), "sweep needs a repeat or runs source")
            return cls(c_grid=c_grid, n_grid=n_grid, sweep_a=a, **kwargs)

        traces = obj.get("traces")
        if isinstance(traces, dict):
            _check_keys(traces, {"c", "a"}, "traces")
            c = _json_number(traces.get("c"), lambda v: v > 0, "traces.c must be positive")
            a = _json_number(traces.get("a", 1.0), lambda v: 0 < v <= 1, "traces.a must lie in (0, 1]")
            kwargs["schedule"] = (c, a)
        else:
            kwargs["traces"] = _json_int(traces, lambda v: True,
                                         "traces must be an integer or a {c, a} schedule")
            _require(traces >= 1, "empty trace set has undefined sufficiency")

        if cfg_mode == "asymptotic":
            _require("schedule" in kwargs, "asymptotic mode needs a {c, a} trace schedule")
            _require(not isinstance(source.recipe, BitString), "asymptotic mode needs a repeat or runs source")
            return cls(**kwargs)
        if cfg_mode == "exact":
            return cls(**kwargs)

        # montecarlo and audit: simulation modes
        _require("traces" in kwargs, f"{cfg_mode} mode needs an integer trace count")
        trials = _json_int(obj.get("trials"), lambda v: 1 <= v <= 2**64, "trials must be an integer in [1, 2^64]")
        seed = _json_int(obj.get("seed"), lambda v: 0 <= v < 2**64, "seed must be an integer in [0, 2^64)")
        kwargs.update(trials=trials, seed=seed)
        if cfg_mode == "audit":
            return cls(**kwargs)
        names = obj.get("estimators")
        if names is not None:
            _require(isinstance(names, list) and names
                     and all(e in ESTIMATORS for e in names) and len(set(names)) == len(names),
                     f"estimators must be distinct names among {', '.join(ESTIMATORS)}")
            kwargs["estimators"] = tuple(names)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str, mode: str | None = None, overrides: dict | None = None):
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError("config is nested too deeply to parse") from None
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        merged = dict(obj)
        for key, value in (overrides or {}).items():
            if value is not None:
                merged[key] = value
        config = cls.from_dict(merged, mode=mode)
        digest = hashlib.sha256(
            json.dumps(merged, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        object.__setattr__(config, "_config_sha256", digest)
        return config

    @property
    def config_sha256(self) -> str:
        return getattr(self, "_config_sha256", "unhashed")


# ---------------------------------------------------------------------------
# rows and CSV

def _wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at WILSON_Z; well behaved for proportions at 0 or 1."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z2 = WILSON_Z * WILSON_Z
    denom = trials + z2
    center = (successes + z2 / 2.0) / denom
    spread = (WILSON_Z / denom) * math.sqrt(successes * (trials - successes) / trials + z2 / 4.0)
    # the bounds must bracket the point estimate; at 0 or trials successes the
    # algebra gives the estimate itself and float rounding can land either side
    freq = successes / trials
    return (max(0.0, min(center - spread, freq)), min(1.0, max(center + spread, freq)))


@frozen
class EstimateRow:
    estimator: str
    n: int
    p: float
    t_or_c: int | float
    a: float | None
    value: float
    ln_value: float
    ci: tuple[float, float] | None = None
    trials: int | None = None
    seed: int | None = None
    method: str = "monte-carlo"

    def __post_init__(self):
        if self.ci is not None and not (self.ci[0] <= self.value <= self.ci[1]):
            raise ValueError("estimate must lie inside its confidence interval")

    def fields(self) -> list[str]:
        return [
            self.estimator,
            str(self.n),
            repr(float(self.p)),
            str(self.t_or_c) if isinstance(self.t_or_c, int) else repr(self.t_or_c),
            "" if self.a is None else repr(float(self.a)),
            repr(float(self.value)),
            repr(float(self.ln_value)),
            "" if self.ci is None else repr(self.ci[0]),
            "" if self.ci is None else repr(self.ci[1]),
            "" if self.trials is None else str(self.trials),
            "" if self.seed is None else str(self.seed),
            self.method,
        ]


def rows_to_csv(rows, regimes=None) -> str:
    header = CSV_HEADER if regimes is None else CSV_HEADER + ",regime"
    lines = [header]
    if regimes is None:
        lines.extend(",".join(row.fields()) for row in rows)
    else:
        if len(regimes) != len(rows):
            raise ValueError("one regime label per row required")
        lines.extend(",".join(row.fields() + [reg]) for row, reg in zip(rows, regimes))
    return "\n".join(lines) + "\n"


def _write_stdout(text: str) -> None:
    """Write text to stdout now; a closed stdout is a ConfigError."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # shutdown flushes stdout again: give it somewhere that cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write output: {exc}") from exc


def write_outputs(config: ExperimentConfig, text: str) -> None:
    """Write the payload to config.out (plus a metadata sidecar) or stdout."""
    if config.out is None:
        _write_stdout(text)
        return
    from . import __version__

    path = config.out
    sidecar = "\n".join(
        [
            "rng-algorithm: pcg64",
            f"package: deltrace {__version__}",
            f"config-sha256: {config.config_sha256}",
        ]
    )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(path + ".meta.txt", "w", encoding="utf-8", newline="") as fh:
            fh.write(sidecar + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


# ---------------------------------------------------------------------------
# Monte Carlo kernel: blocks of trials on per-trial streams, shared masks

# Blocks hold B = max(1, kernel.BLOCK_ELEMENTS // (T * n)) trials.  One
# trial's T x n mask bits above this are refused before anything is
# allocated.  A trial larger than a block peaks at about 4.5 (a run per bit)
# to 6.2 (few runs, whose coverage counts cast the whole mask to int32) bytes
# per mask bit, PEAK_BYTES_PER_BIT with a margin: CLI peak RSS on Linux at 32
# traces and 2^25 bits, p = 0.001, 0.5 and 0.99 (4.5, 4.8-4.9 on runs of 2
# bits, and 6.2), and taken as linear beyond.  At the cap that is up to 7
# GiB.  With one trace the arrays of n entries dominate (the run table and
# its transients while the instance is built, coverage's start columns):
# montecarlo on repeat 01, ell 0.5 (a run per bit), p = 0.99, one trial
# peaked at 213 MB for 2^22 bits, 51 bytes per mask bit (270 MB when coverage
# gathered each run's columns).
MAX_TRIAL_ELEMENTS = 1 << 30
PEAK_BYTES_PER_BIT = 7

_AUDIT_CHECKS = (
    "no-witness-and-sufficient",
    "covered-and-wrong",
    "ambiguity-alternative-inconsistent",
)
# the check behind each column of an audit block's failures; the last also
# names every later column, one per audited pattern
_OFFENDER_CHECKS = ("covered-and-wrong", "no-witness-and-sufficient", "ambiguity-alternative-inconsistent")


def _audit_patterns(lengths: np.ndarray) -> np.ndarray:
    """The structural patterns audited on every trial, as (P, 2) run pairs (i, j):
    the adjacent runs at each boundary, then the runs around each single-bit
    interior run.  Each pattern's blocks are single bits, so every trace wipes
    one of its copies exactly when it deletes a bit of run i or of run j."""
    runs = np.arange(lengths.size)
    single = runs[1:-1][lengths[1:-1] == 1]
    return np.column_stack([np.concatenate([runs[:-1], single - 1]), np.concatenate([runs[1:], single + 1])])


def _sufficient_sets(s: BitString, padded, lens, tables, first: int) -> np.ndarray:
    """Whether each trace set (trials first, first + 1, ...) admits s as its only
    source, from one oracle call.  A call over its budget is split into its
    first trace set alone, then the two halves of the rest, so a refusal names
    the first trial that passes the budget on its own, and a block whose first
    trial passes it is refused on the second call."""
    try:
        return _sufficient(s.bits, padded, lens, tables)
    except InfeasibleError as exc:
        if len(lens) == 1:
            raise InfeasibleError(f"{exc} on trial {first}") from None
    edges = [0, 1, 1 + (len(lens) - 1) // 2, len(lens)]
    return np.concatenate([_sufficient_sets(s, padded[lo:hi], lens[lo:hi], [t[:, lo:hi] for t in tables],
                                            first + lo) for lo, hi in zip(edges, edges[1:]) if lo < hi])


def _figure(value: int) -> str:
    """A count for a one-line message: in full below 10^15, otherwise to three
    digits (1.00e+331), by Decimal, which takes any int where a float overflows."""
    from decimal import Decimal

    return str(value) if value < 10**15 else f"{Decimal(value):.3g}"


def _simulate(config: ExperimentConfig, estimators, *, audit: bool = False):
    """(fired, offenders): the trials on which each estimator's event
    occurred, by name, and an audit's breaches as (trial, check), trial by
    trial.  One pass, B = max(1, kernel.BLOCK_ELEMENTS // (T * n)) trials per block.
    kernel._mask_block fills a block's (B, T, n) mask, trial i from its own
    stream, B streams taken in order from one RngSpec(seed).block_rngs over
    all trials (bit-equal to trial_rng(i)), so the counts do not depend on B.
    The mask is allocated once per run; each block draws into a [:size] view of
    it through _mask_block, which allocates its own buffer of uniforms per call
    and compares it with p whenever the next piece would not fit and at the
    block's end.  Run coverage's index arrays (kernel._RunTables) are built once
    per run from the instance's run table, its run lengths; their starts also
    place each audited pattern's junction bits.  Coverage first finds the traces
    that wiped a run, and reads clean runs only on trials where some trace
    wiped none, unless the audit asks for their (trace, run) table.  The mask
    events, the oracle's verdicts (one call, see _sufficient_sets) and every
    audit check cover the whole block, the last two reading the traces only
    through their padded bits (_matchers), and the oracle and the pattern
    checks also through one pair of embedding tables (_embedding_tables), built
    once per block.  The oracle decides whether s is each trial's only length-n
    source and stops at the first witness of another; it never counts them.  The
    audit reads every declared pattern's verdict off that table of clean runs;
    in each block it checks every (trial, run pair) hit, a pair that fired on
    the trial, against the pair's competing source: s with the bits where run i
    meets run j flipped, 2 for adjacent runs and 3 around a single-bit run, as
    events.AdjacentPattern and SandwichPattern swap them.  The hits go to
    _embeds_flipped in chunks of at most max(1, kernel.BLOCK_ELEMENTS // T).

    montecarlo counts reconstruction-error as the uncovered trials: a trace
    that wipes out a run has fewer runs than s, so maximal_runs uses exactly
    the traces that wiped no run, and it returns s exactly when each run is
    kept whole by one of them, which is run coverage.  audit computes the
    verdict independently by run alignment and counts the covered trials it
    misses (covered-and-wrong)."""
    t_count, p, n = config.traces, config.p, config.source.n
    if t_count * n > MAX_TRIAL_ELEMENTS:
        raise InfeasibleError(
            f"one trial needs traces x n = {_figure(t_count * n)} mask bits, up to about "
            f"{_figure((PEAK_BYTES_PER_BIT * t_count * n + 2**29) >> 30)} GiB at peak, over the cap of "
            f"{MAX_TRIAL_ELEMENTS} bits (up to about {PEAK_BYTES_PER_BIT * MAX_TRIAL_ELEMENTS / 2**30:.0f} GiB)"
        )
    oracle = audit or "difficulty" in estimators
    instance = config.source.instance()
    s, lengths = instance.s, instance.lengths
    pairs = _audit_patterns(lengths) if audit else None
    rngs = RngSpec(master_seed=config.seed).block_rngs(0, config.trials)
    block = max(1, kernel.BLOCK_ELEMENTS // (t_count * n))
    masks = np.empty((min(block, config.trials), t_count, n), dtype=bool)
    runs = _RunTables(lengths)
    fired = dict.fromkeys(ESTIMATORS, 0)
    offenders = []
    for first in range(0, config.trials, block):
        size = min(block, config.trials - first)
        flags = _mask_block(rngs, p, masks[:size])
        # no trace kept a copy of the span whole
        no_witness = _span_wiped(flags, instance.span).all(axis=-1)
        per_run, clean = _covered_runs(flags, runs, table=audit)
        covered = per_run.all(axis=-1)
        uncovered = int((~covered).sum())
        fired["no-pattern-witness"] += int(no_witness.sum())
        fired["uncovered-run"] += uncovered
        if not audit:
            fired["reconstruction-error"] += uncovered
        if not oracle:
            continue
        kept = ~flags
        padded, lens = _matchers(np.broadcast_to(s.bits, kept.shape)[kept], np.count_nonzero(kept, axis=-1))
        if audit:
            # before the tables, so that they never sit next to hit's (B, T, P) temporaries
            wrong = _run_alignment_misses(s, lengths, padded)
            # pattern (i, j) fires where every trace deleted a bit of run i or of run j
            hit = ~(clean[..., pairs[:, 0]] & clean[..., pairs[:, 1]]).any(axis=-2)
        tables = _embedding_tables(s.bits, padded, lens)
        sufficient = _sufficient_sets(s, padded, lens, tables, first)
        fired["difficulty"] += int((~sufficient).sum())
        if not audit:
            continue
        fired["reconstruction-error"] += int(wrong.sum())
        inconsistent = np.zeros_like(hit)
        sets, k = np.nonzero(hit)
        chunk = max(1, kernel.BLOCK_ELEMENTS // t_count)
        for c in range(0, sets.size, chunk):
            b, pair = sets[c:c + chunk], k[c:c + chunk]
            i, j = pairs[pair].T  # flip the bits where run i meets run j
            inconsistent[b, pair] = ~_embeds_flipped(s.bits, padded, lens, tables, b,
                                                     runs.starts[i + 1] - 1, runs.starts[j] + 1)
        failed = np.column_stack([covered & wrong, no_witness & sufficient, inconsistent])
        offenders.extend((first + int(trial), _OFFENDER_CHECKS[min(check, 2)])
                         for trial, check in np.argwhere(failed))  # trial-major
    return fired, offenders


def _mc_row(config, estimator, successes) -> EstimateRow:
    freq = successes / config.trials
    ci = _wilson_interval(successes, config.trials)
    return EstimateRow(
        estimator=estimator,
        n=config.source.n,
        p=config.p,
        t_or_c=config.traces,
        a=None,
        value=freq,
        ln_value=math.log(freq) if freq > 0 else float("-inf"),
        ci=ci,
        trials=config.trials,
        seed=config.seed,
        method="monte-carlo",
    )


def _simulation_estimators(config: ExperimentConfig) -> tuple[str, ...]:
    if config.estimators is not None:
        return config.estimators
    if config.source.n <= DIFFICULTY_DEFAULT_MAX_N:
        return ESTIMATORS
    return tuple(e for e in ESTIMATORS if e != "difficulty")


def _estimate(config: ExperimentConfig, estimators) -> list[EstimateRow]:
    fired = _simulate(config, estimators)[0]
    return [_mc_row(config, name, fired[name]) for name in estimators]


def estimate_event_probs(config: ExperimentConfig) -> list[EstimateRow]:
    """Frequencies of the two mask events: every trace deleting a copy of
    the declared span, and some run going uncovered."""
    return _estimate(config, ("no-pattern-witness", "uncovered-run"))


# Offender lines an audit summary prints; the rest are only counted.
SUMMARY_OFFENDERS = 20


@frozen
class AuditReport:
    trials: int
    counts: dict[str, int]
    offenders: tuple[tuple[int, str], ...]
    rows: tuple[EstimateRow, ...]

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.counts.values())

    def summary(self) -> str:
        lines = [f"audit trials: {self.trials}"]
        lines.extend(f"audit {name}: {count}" for name, count in self.counts.items())
        shown = self.offenders[:SUMMARY_OFFENDERS]
        lines.extend(f"offender trial={t} check={name}" for t, name in shown)
        if len(self.offenders) > len(shown):
            lines.append(f"audit offenders not shown: {len(self.offenders) - len(shown)}")
        lines.append(f"audit result: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def audit_implications(config: ExperimentConfig) -> AuditReport:
    """Run every estimator on shared seeds and count implication breaches:
    an event that forbids sufficiency alongside a sufficient verdict, run
    coverage alongside a reconstruction miss, and a structural ambiguity
    whose competing source fails to embed some trace."""
    fired, offenders = _simulate(config, ESTIMATORS, audit=True)
    tally = Counter(name for _, name in offenders)
    return AuditReport(
        trials=config.trials,
        counts={name: tally[name] for name in _AUDIT_CHECKS},
        offenders=tuple(offenders),
        rows=tuple(_mc_row(config, name, fired[name]) for name in ESTIMATORS),
    )


# ---------------------------------------------------------------------------
# formula modes

def _formula_row(name, n, p, t_or_c, a, report) -> EstimateRow:
    return EstimateRow(name, n, p, t_or_c, a, report.value, report.ln_value, method=report.method)


def _schedule_count(c: float, n: int, a: float, key: str) -> TraceCount:
    """TraceCount.exponential(c, n, a), or ConfigError naming key where c * n^a
    overflows a float."""
    try:
        return TraceCount.exponential(c, n, a)
    except ValueError:
        raise ConfigError(f"{key} must keep c * n^a below the largest float, about 1.8e308") from None


def _formula_rows(config: ExperimentConfig) -> list[EstimateRow]:
    runs, n, p = config.source.run_count(), config.source.n, config.p
    if config.traces is not None:
        count, t_or_c, a = TraceCount.integer(config.traces), config.traces, None
    else:
        t_or_c, a = config.schedule
        count = _schedule_count(t_or_c, n, a, "traces")
    _check_mgf_runs(runs, p)  # refused before the instance is allocated
    if p in (0.0, 1.0):  # every route answers from p alone: a one-bit stand-in, not the source
        span, lengths = PatternSpan(0, 1, 1), [1]
    else:
        instance = config.source.instance()
        span, lengths = instance.span, instance.lengths
    reports = [
        ("no-pattern-witness", prob_no_pattern_witness_exact(span.period, span.copies, p, count)),
        ("uncovered-run", prob_uncovered_run_mgf(lengths, p, count)),
    ]
    if config.traces is not None and config.traces <= DIRECT_SUM_MAX_TRACES:
        reports.append(("uncovered-run", prob_uncovered_run_sum(lengths, p, count)))
    return [_formula_row(name, n, p, t_or_c, a, report) for name, report in reports]


def _event_routes(recipe: RepeatBlockSpec | RunFractionSpec, p: float):
    """The event a structured recipe is judged by: its estimator name, its
    critical rate, the exact route exact(n, count) on the real-valued copy
    count ell * n^a or run lengths fraction * n, and the asymptotic route
    asymptotic(c, count)."""
    _require(0 < p < 1, "p must lie strictly in (0, 1) in asymptotic and sweep modes")
    if isinstance(recipe, RepeatBlockSpec):
        r, ell = len(recipe.pattern), recipe.ell
        params = ThresholdParams(r=r, ell=ell, p=p)
        return (
            "no-pattern-witness",
            critical_rate(r, ell, p),
            lambda n, count: prob_no_pattern_witness_exact(r, ell * n**recipe.a, p, count),
            lambda c, count: prob_no_pattern_witness_asymptotic(params, c, count),
        )
    fractions = recipe.fractions
    return (
        "uncovered-run",
        critical_rate(1, max(fractions), p),
        lambda n, count: prob_uncovered_run_mgf([frac * n for frac in fractions], p, count),
        lambda c, count: prob_uncovered_run_asymptotic(fractions, p, c, count),
    )


def _asymptotic_rows(config: ExperimentConfig) -> list[EstimateRow]:
    c, a = config.schedule
    n = config.source.n
    name, _, _, asymptotic = _event_routes(config.source.recipe, config.p)
    report = asymptotic(c, _schedule_count(c, n, a, "traces"))
    return [_formula_row(name, n, config.p, c, a, report)]


def _regime(c: float, c_star: float) -> str:
    if abs(c - c_star) <= 1e-9 * abs(c_star):
        return "at"
    return "below" if c < c_star else "above"


def _sweep_threshold(config: ExperimentConfig) -> tuple[list[EstimateRow], list[str]]:
    """Exact and asymptotic probabilities over the (c, n) grid, each row
    labeled by its position against the critical rate.  Formula evaluation
    on real-valued copy counts and run lengths, not rounded instances."""
    name, c_star, exact, asymptotic = _event_routes(config.source.recipe, config.p)
    a = config.sweep_a
    rows: list[EstimateRow] = []
    regimes: list[str] = []
    for c in config.c_grid:
        for n in config.n_grid:
            count = _schedule_count(c, n, a, "c_grid")
            for report in (exact(n, count), asymptotic(c, count)):
                rows.append(_formula_row(name, n, config.p, c, a, report))
                regimes.append(_regime(c, c_star))
    return rows, regimes


def _comma_joined(values: np.ndarray) -> str:
    """",".join(map(str, values)) for nonnegative integers without a str per
    value: each value as bytes, NUL-padded to the widest, with its comma; the
    padding is then dropped.  Not np.char, which loads numpy.char on use."""
    width = len(str(values.max()))
    cells = np.full((values.size, width + 1), ord(","), dtype=np.uint8)
    cells[:, :width] = values.astype(f"S{width}").view(np.uint8).reshape(-1, width)
    return cells.tobytes().replace(b"\0", b"")[:-1].decode()


def _generate_text(config: ExperimentConfig) -> str:
    instance = config.source.instance()
    span = instance.span
    lines = [
        str(instance.s),
        f"span offset={span.offset} period={span.period} copies={span.copies}",
        "runs first_bit=%d lengths=%s" % (instance.s[0], _comma_joined(instance.lengths)),
        "",  # the last newline, without copying the text to append it
    ]
    return "\n".join(lines)


def run_mode(config: ExperimentConfig) -> int:
    """Execute a parsed config end to end; returns the process exit code."""
    if config.out is not None:  # refused before any trial runs
        folder = os.path.dirname(os.path.abspath(config.out))
        if not os.access(folder, os.W_OK | os.X_OK):
            raise ConfigError(f"cannot write output: {folder} is not a writable directory")
        for path in (config.out, config.out + ".meta.txt"):
            if os.path.isdir(path):
                raise ConfigError(f"cannot write output: {path} is a directory")
            if os.path.exists(path) and not os.access(path, os.W_OK):
                raise ConfigError(f"cannot write output: {path} is not writable")
    if config.mode == "generate":
        write_outputs(config, _generate_text(config))
        return 0
    if config.mode == "exact":
        write_outputs(config, rows_to_csv(_formula_rows(config)))
        return 0
    if config.mode == "asymptotic":
        write_outputs(config, rows_to_csv(_asymptotic_rows(config)))
        return 0
    if config.mode == "sweep":
        rows, regimes = _sweep_threshold(config)
        write_outputs(config, rows_to_csv(rows, regimes))
        return 0
    if config.mode == "montecarlo":
        write_outputs(config, rows_to_csv(_estimate(config, _simulation_estimators(config))))
        return 0
    report = audit_implications(config)
    write_outputs(config, rows_to_csv(report.rows))
    _write_stdout(report.summary())
    return 0 if report.ok else 4
