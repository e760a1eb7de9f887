"""Output checks.  A failed check counts the invocation as an error.

Per invocation (`check_output`):
  * the CLI exited 0 and printed the expected CSV rows, echoing the trials
    and seed it was given;
  * reconstruction-error <= uncovered-run, since run coverage forces a
    correct reconstruction;
  * audit reports all three breach counts at 0;
  * at REFERENCE_SEED, montecarlo and audit CSV bytes equal the reference
    recorded at the commit that introduced the benchmark, which pins the
    SeedSequence([seed, i]) stream contract;
  * sweep rows equal the reference in every column but value and ln_value,
    and ln_value agrees to 1e-9 relative (a reordered sum may move the last
    ulp, so these rows are not byte-compared).

Per run (`check_frequencies`): the counts of every invocation are pooled and
each frequency with a closed form must lie within 4 sigma of it, judged by
the exact binomial tail (the normal tail is poor for frequencies near 0 or 1
at these trial counts).
"""

from __future__ import annotations

import csv
import io
import math

from workloads import REFERENCE_SEED

AUDIT_BREACHES = ("no-witness-and-sufficient", "covered-and-wrong",
                  "ambiguity-alternative-inconsistent")
ORACLE_CAP = 20  # above this n the default montecarlo estimators drop difficulty
MGF_MAX_RUNS = 20  # inclusion-exclusion closed form exists up to this many runs
LN_REL_TOL = 1e-9
FOUR_SIGMA_TAIL = 0.5 * math.erfc(4 / math.sqrt(2))  # one-sided, 3.2e-5


def split_output(stdout: str) -> tuple[str, list[str]]:
    """CSV part and audit summary lines of a CLI's stdout."""
    lines = stdout.splitlines(keepends=True)
    cut = next((i for i, line in enumerate(lines) if line.startswith("audit ")), len(lines))
    return "".join(lines[:cut]), [line.rstrip("\n") for line in lines[cut:]]


def rows_of(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def counts_of(rows: list[dict]) -> dict[str, int]:
    """Successes per estimator, recovered from the frequency and trial count."""
    return {r["estimator"]: round(float(r["value"]) * int(r["trials"])) for r in rows}


def expected_estimators(cfg: dict) -> set[str]:
    names = {"no-pattern-witness", "uncovered-run", "reconstruction-error"}
    if cfg["mode"] == "audit" or cfg["source"]["n"] <= ORACLE_CAP:
        names.add("difficulty")
    return names


def ln_close(x: float, y: float) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= LN_REL_TOL * max(abs(x), abs(y), 1e-300)


def check_sweep(csv_text: str, reference: str) -> list[str]:
    got, ref = rows_of(csv_text), rows_of(reference)
    if len(got) != len(ref):
        return [f"sweep printed {len(got)} rows, reference has {len(ref)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        fixed = [k for k in r if k not in ("value", "ln_value") and g.get(k) != r[k]]
        if fixed:
            problems.append(f"sweep row {i}: {', '.join(fixed)} differ from the reference")
        elif not ln_close(float(g["ln_value"]), float(r["ln_value"])):
            problems.append(f"sweep row {i}: ln_value {g['ln_value']} vs reference {r['ln_value']}")
    return problems


def check_output(cfg: dict, code: int, stdout: str, reference: str) -> tuple[list[str], dict]:
    """Problems with one invocation's output, and its counts per estimator."""
    if code != 0:
        return [f"exit code {code}"], {}
    csv_text, summary = split_output(stdout)
    if cfg["mode"] == "sweep":
        return check_sweep(csv_text, reference), {}
    problems = []
    try:
        rows = rows_of(csv_text)
        counts = counts_of(rows)
    except (KeyError, ValueError) as exc:
        return [f"unparsable CSV: {exc}"], {}
    if set(counts) != expected_estimators(cfg) or len(rows) != len(counts):
        problems.append(f"estimator rows {sorted(counts)}")
    if any(r["trials"] != str(cfg["trials"]) or r["seed"] != str(cfg["seed"]) for r in rows):
        problems.append("trials or seed column does not echo the config")
    if counts.get("reconstruction-error", 0) > counts.get("uncovered-run", 0):
        problems.append("reconstruction-error count exceeds uncovered-run count")
    if cfg["mode"] == "audit":
        wanted = [f"audit {name}: 0" for name in AUDIT_BREACHES] + ["audit result: pass"]
        missing = [line for line in wanted if line not in summary]
        if missing:
            problems.append(f"audit summary lacks {missing}")
    if cfg["seed"] == REFERENCE_SEED and csv_text != reference:
        problems.append("CSV bytes differ from the reference at the reference seed")
    return problems, counts


def closed_forms(cfg: dict) -> dict[str, float]:
    """Exact probability per estimator, where the package has a closed form."""
    from deltrace import TraceCount, prob_no_pattern_witness_exact, prob_uncovered_run_mgf
    from replay import instance

    _, profile, span = instance(cfg["source"])
    count = TraceCount.integer(cfg["traces"])
    out = {"no-pattern-witness":
           prob_no_pattern_witness_exact(span.period, span.copies, cfg["p"], count).value}
    if len(profile.lengths) <= MGF_MAX_RUNS:
        out["uncovered-run"] = prob_uncovered_run_mgf(profile.lengths, cfg["p"], count).value
    return out


def binomial_tail(k: int, n: int, q: float) -> float:
    """P(X >= k) when k is at or above the mean n*q, else P(X <= k), for
    X ~ Binomial(n, q)."""
    if q <= 0.0 or q >= 1.0:
        return 1.0 if k == round(n * q) else 0.0
    js = range(k, n + 1) if k >= n * q else range(0, k + 1)
    base = math.lgamma(n + 1)
    lq, lr = math.log(q), math.log1p(-q)
    return math.fsum(math.exp(base - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                              + j * lq + (n - j) * lr) for j in js)


def check_frequencies(cfg: dict, counts: dict[str, int], trials: int) -> list[str]:
    """Pooled frequencies against the closed forms, 4 sigma two-sided."""
    problems = []
    for name, q in closed_forms(cfg).items():
        k = counts.get(name, 0)
        if binomial_tail(k, trials, q) < FOUR_SIGMA_TAIL:
            problems.append(f"{name}: {k}/{trials} is beyond 4 sigma of the closed form {q:.6g}")
    return problems
