"""The public names other code relies on: README's library example, the
names the bench scripts import from deltrace, and the top-level names that
load their submodule on first use.  Every public name has a reader outside
its own module, and the oracle's budget is the one README documents."""

import ast
import dataclasses
import importlib
import inspect
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import deltrace as dt
from deltrace.bits import rounded_run_lengths, span_matches

ROOT = Path(__file__).parent.parent


# public names with no reader outside their module, kept on purpose
KEPT_WITHOUT_READER = {
    "consistent_sources": "the counting route over the full automaton that the tests check the kernel's oracle against",
    "ConfigError": "what ExperimentConfig raises for a bad config; callers catch it by name, as cli does by its ValueError base",
}


def _library_example() -> str:
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _names_read(source: str) -> set[str]:
    """Every name a piece of code loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _annotation_names(node) -> set[str]:
    """Names in the annotations of a definition: a function's signature, or a
    class's fields and method signatures."""
    annotations = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.arg, ast.AnnAssign)):
            annotations.append(sub.annotation)
        elif isinstance(sub, ast.FunctionDef):
            annotations.append(sub.returns)
    return {name.id for annotation in filter(None, annotations) for name in ast.walk(annotation)
            if isinstance(name, ast.Name)}


def test_every_public_name_has_a_reader():
    # a name in deltrace.__all__ is read by another src module, the acceptance
    # file, README's library example or a bench script; or it types a kept
    # name's signature; or KEPT_WITHOUT_READER says why it stays
    import deltrace

    public = set(deltrace.__all__)
    sources = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "deltrace").glob("*.py"))}
    outside = [_names_read((ROOT / "tests" / "test_acceptance.py").read_text()), _names_read(_library_example())]
    outside += [_names_read(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    read_by = {module: _names_read(text) for module, text in sources.items() if module != "__init__"}
    kept = {name for name in public
            if any(name in names for names in outside)
            or any(name in names for module, names in read_by.items() if module != deltrace._SUBMODULE[name])}
    definitions = {node.name: node for text in sources.values() for node in ast.parse(text).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    kept |= public & set().union(*(_annotation_names(definitions[name]) for name in kept))
    # each route keeps something; an empty scan would prove nothing
    assert {"BitString", "maximal_runs", "ProbReport", "EventReport", "SufficiencyVerdict"} <= kept
    assert sorted(public - kept - KEPT_WITHOUT_READER.keys()) == []
    # an allowlisted name is public and still has no reader
    assert sorted(KEPT_WITHOUT_READER.keys() - (public - kept)) == []


def test_module_exports_are_public_or_mapped():
    # a module's public names are the package's __all__ and the names README's
    # module map gives as module-level for it: no other module assigns an
    # __all__ of its own, and the map names what exists
    readme = (ROOT / "README.md").read_text()
    bullets = re.findall(r"^\* `deltrace\.(\w+)`:(.*?)\n(?=\* |\n)", readme.split("Module map.", 1)[1], re.M | re.S)
    module_level = {module: set(re.findall(r"`(\w+)`", text.partition("Module-level:")[2])) for module, text in bullets}
    assert {"bits", "harness", "kernel", "cli"} <= module_level.keys() and "main" in module_level["cli"]
    stated = [path.name for path in sorted((ROOT / "src" / "deltrace").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "__all__"]
    missing = [f"{module}: {name}" for module, names in module_level.items() for name in sorted(names)
               if not hasattr(importlib.import_module(f"deltrace.{module}"), name)]
    assert (stated, missing) == (["__init__.py"], [])


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), "README.md", "exec"), {})
    out = capsys.readouterr().out
    for label in ("unique consistent source:", "event probability:", "critical rate:"):
        assert label in out


def test_bench_imports_resolve():
    imported = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deltrace":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    # the replay's list is the long one; an empty scan would prove nothing
    assert sum(name == "replay.py" and module == "deltrace" for name, module, _ in imported) > 10
    missing = [entry for entry in imported if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []


def test_lazy_exports_resolve_to_their_submodules():
    import deltrace

    assert len(deltrace.__all__) == len(set(deltrace.__all__)) > 40
    for name in deltrace.__all__:
        module = importlib.import_module(f"deltrace.{deltrace._SUBMODULE[name]}")
        assert getattr(deltrace, name) is getattr(module, name), name
    # before any name is resolved, as a fresh interpreter has it
    fresh = subprocess.run([sys.executable, "-c", "import deltrace; print(set(deltrace.__all__) - set(dir(deltrace)))"],
                           capture_output=True, text=True)
    assert fresh.stdout == "set()\n", fresh.stderr
    with pytest.raises(AttributeError, match="no_such_name"):
        deltrace.no_such_name
    star = {}
    exec("from deltrace import *", star)
    assert {name: star[name] for name in deltrace.__all__} == {name: getattr(deltrace, name) for name in deltrace.__all__}


def test_no_private_name_is_orphaned():
    # every module-level private name of the package is read somewhere in it,
    # outside its own definition, so a deletion leaves no dead helper behind
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "deltrace").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                names = []
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in names:
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    read.add(sub.attr)
            defined.update((name, path.name) for name in names
                           if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))
    # the scan finds the kernel's helpers; an empty one would prove nothing
    assert {"_simulate", "_clean_runs", "_RunTables"} <= defined.keys()
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in read) == []


def test_log_one_minus_exp_is_taken_from_logspace():
    # log(1 - e^x) is logspace.ln_one_minus_exp, which keeps its digits, and
    # its domain, where e^x rounds to 1; the clamp on -e^x past exp's overflow
    # is logspace.neg_exp.  So no other module writes log1p(-exp(x)) or reads
    # the overflow bound
    def called(node, name):
        return isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))

    found = []
    for path in sorted((ROOT / "src" / "deltrace").glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if called(node, "log1p") and isinstance(node.args[0], ast.UnaryOp)
                  and isinstance(node.args[0].op, ast.USub) and called(node.args[0].operand, "exp")]
        found += [f"{path.stem}: _EXP_OVERFLOW" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and "_EXP_OVERFLOW" in [alias.name for alias in node.names]]
    # the scan finds logspace's own; an empty one would prove nothing
    assert [entry for entry in found if not entry.startswith("logspace:")] == []
    assert len(found) == 1


def test_kernel_sizes_are_defined_once():
    # the object API and the harness import the kernel's stages but not its
    # sizes, so a test that patches a size on channel, events, reconstruct or
    # harness fails at the patch instead of changing nothing the stages read
    from deltrace import channel, events, harness, kernel, reconstruct

    for name in ("BLOCK_ELEMENTS", "SEED_CHUNK", "SHORT_RUN_LENGTH", "MAX_ORACLE_STATES"):
        assert isinstance(getattr(kernel, name), int)
        assert [module.__name__ for module in (channel, events, reconstruct, harness) if hasattr(module, name)] == []


def test_oracle_budget_is_the_documented_one():
    # README gives the budget as a power of two and, in the exit-3 message, as
    # a count; both must name the kernel's value, so a change to one fails
    from deltrace import kernel

    readme = " ".join((ROOT / "README.md").read_text().split())
    powers = re.findall(r"budget of 2\^(\d+) automaton states", readme)
    counts = re.findall(r"budget of (\d+) automaton states", readme)
    assert (len(powers), len(counts)) == (2, 1)
    assert {1 << int(k) for k in powers} == {int(c) for c in counts} == {kernel.MAX_ORACLE_STATES}


def _traces(bits, p=0.5, count=2):
    return dt.sample_traces(dt.BitString(bits), p, count, dt.RngSpec(3))


# (call, exception, message fragment): every refusal of a public constructor
# or entry point that no other test reaches
_REFUSALS = {
    "TraceCount-exact": (lambda: dt.TraceCount(0.0, exact=0), ValueError, "empty trace set"),
    "TraceCount.exponential": (lambda: dt.TraceCount.exponential(0.0, 10), ValueError, "growth schedule needs c > 0"),
    "trace-count-type": (lambda: dt.prob_no_pattern_witness_exact(1, 2, 0.3, 2.5), TypeError,
                         "trace count must be an int or a TraceCount"),
    "p-outside": (lambda: dt.prob_no_pattern_witness_exact(1, 2, 1.5, 3), ValueError,
                  "deletion probability must lie in [0, 1]"),
    "run-length": (lambda: dt.prob_uncovered_run_mgf([2, 0], 0.3, 3), ValueError, "run lengths must be positive"),
    "pattern-length": (lambda: dt.prob_no_pattern_witness_exact(0, 2, 0.3, 3), ValueError,
                       "pattern length r must be a positive integer"),
    "copy-count": (lambda: dt.prob_no_pattern_witness_exact(1, 0, 0.3, 3), ValueError, "copy count f must be positive"),
    "witness-asymptotic-c": (lambda: dt.prob_no_pattern_witness_asymptotic(dt.ThresholdParams(1, 0.5, 0.3), 0.0, 3),
                             ValueError, "growth rate c must be positive"),
    "run-asymptotic-c": (lambda: dt.prob_uncovered_run_asymptotic([0.5, 0.5], 0.3, 0.0, 3), ValueError,
                         "growth rate c must be positive"),
    "poly-schedule": (lambda: dt.poly_trace_table([0.5, 0.5], 0.3, 1.0, 0.0, [4]), ValueError,
                      "schedule needs c > 0 and b > 0"),
    "BitString-2d": (lambda: dt.BitString([[0, 1]]), ValueError, "bits must be one-dimensional"),
    "RunProfile-first-bit": (lambda: dt.RunProfile(2, (1,)), ValueError, "first_bit must be 0 or 1"),
    "RunProfile-length": (lambda: dt.RunProfile(0, (1, 0)), ValueError, "every run length must be >= 1"),
    "RepeatBlockSpec-pattern": (lambda: dt.RepeatBlockSpec(""), ValueError, "pattern must be nonempty"),
    "RepeatBlockSpec-ell": (lambda: dt.RepeatBlockSpec("01", ell=0.0), ValueError, "ell must be in (0, 1]"),
    "RepeatBlockSpec-a": (lambda: dt.RepeatBlockSpec("01", a=1.5), ValueError, "a must be in (0, 1]"),
    "RunFractionSpec-first-bit": (lambda: dt.RunFractionSpec(2, (1.0,)), ValueError, "first_bit must be 0 or 1"),
    "RunFractionSpec-empty": (lambda: dt.RunFractionSpec(0, ()), ValueError, "fractions must be positive"),
    "RunFractionSpec-sum": (lambda: dt.RunFractionSpec(0, (0.5, 0.4)), ValueError, "fractions must sum to 1"),
    "rounded-run-lengths": (lambda: rounded_run_lengths((0.6, 0.6), 5), ValueError, "fractions must sum to at most 1"),
    "DeletionMask-2d": (lambda: dt.DeletionMask([[True]]), ValueError, "flags must be one-dimensional"),
    "MaskedTrace-length": (lambda: dt.MaskedTrace(dt.BitString("0"), dt.DeletionMask([False, False]), 1), ValueError,
                           "mask length must equal source length"),
    "sample-traces-rng": (lambda: dt.sample_traces(dt.BitString("01"), 0.3, 2, 5), TypeError,
                          "rng must be a numpy Generator or an RngSpec"),
    "detect-events-empty": (lambda: dt.detect_events([], [], dt.RunProfile(0, (2,))), ValueError,
                            "need at least one trace"),
    "detect-events-length": (lambda: dt.detect_events(_traces("0011"), [], dt.RunProfile(0, (2, 1))), ValueError,
                             "trace source length does not match"),
    "SandwichPattern-offset": (lambda: dt.SandwichPattern(-1, "01", "1", 1, 1), ValueError,
                               "need offset >= 0 and copies >= 1"),
    "AdjacentPattern-offset": (lambda: dt.AdjacentPattern(0, "01", 0, "1", 1), ValueError,
                               "need offset >= 0 and copies >= 1"),
    "AdjacentPattern-empty": (lambda: dt.AdjacentPattern(0, "", 1, "1", 1), ValueError, "blocks must be nonempty"),
    "pattern-absent": (lambda: dt.detect_ambiguities(dt.BitString("0011"), _traces("0011"),
                                                     [dt.AdjacentPattern(0, "1", 2, "0", 2)]),
                       ValueError, "declared pattern absent from source"),
    "pattern-type": (lambda: dt.detect_ambiguities(dt.BitString("0011"), _traces("0011"), [object()]), TypeError,
                     "unknown pattern declaration object"),
    "trial-index": (lambda: dt.RngSpec(1).trial_rng(-1), ValueError, "trial_index must be >= 0"),
    "consistent-sources-n": (lambda: dt.consistent_sources(-1, []), ValueError, "n must be >= 0"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_public_validation_refuses(case):
    call, error, fragment = _REFUSALS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_span_past_the_end_does_not_match():
    # a span starting at the end would read an empty window, which equals any
    # number of copies of its empty block
    s = dt.BitString("010101")
    assert span_matches(s, dt.PatternSpan(offset=2, period=2, copies=2))
    assert not span_matches(s, dt.PatternSpan(offset=3, period=2, copies=2))
    assert not span_matches(s, dt.PatternSpan(offset=6, period=2, copies=1))


def test_no_module_imports_dataclasses():
    # dataclass(frozen=True) compiles its methods from source at every import;
    # the value types use bits.frozen, which compiles nothing
    found = [f"{path.stem}:{node.lineno}" for path in sorted((ROOT / "src" / "deltrace").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and "dataclasses" in [alias.name.split(".")[0] for alias in node.names]
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"]
    assert found == []


def _value_types():
    from deltrace import channel, harness
    from deltrace.analytics import METHODS

    runs = dt.RunFractionSpec(0, (0.5, 0.5))
    # class: (a valid construction by keyword, a field change __post_init__ refuses, or None)
    return {
        dt.RunProfile: (dict(first_bit=0, lengths=(2, 1)), dict(first_bit=2)),
        dt.PatternSpan: (dict(offset=1, period=2, copies=3), dict(offset=-1)),
        dt.RepeatBlockSpec: (dict(pattern=dt.BitString("01"), ell=0.5, a=1.0), dict(ell=0.0)),
        dt.RunFractionSpec: (dict(first_bit=1, fractions=(0.25, 0.75)), dict(fractions=(0.5, 0.4))),
        dt.ProbReport: (dict(value=0.5, ln_value=math.log(0.5), method=min(METHODS), flags=()), dict(value=1.5)),
        dt.TraceCount: (dict(ln_value=2.0, exact=7), dict(ln_value=math.inf)),
        dt.ThresholdParams: (dict(r=2, ell=0.5, p=0.3), dict(r=0)),
        harness._Instance: (dict(s=dt.BitString("0011"), span=dt.PatternSpan(0, 1, 2), lengths=(2, 2)), None),
        harness.SourceSpec: (dict(recipe=runs, n=10), None),
        dt.ExperimentConfig: (dict(mode="exact", source=harness.SourceSpec(runs, 10), p=0.3, traces=3), None),
        dt.EstimateRow: (dict(estimator="x", n=4, p=0.3, t_or_c=3, a=None, value=0.5, ln_value=-0.7, ci=(0.4, 0.6)),
                         dict(ci=(0.6, 0.7))),
        dt.AuditReport: (dict(trials=3, counts={"breaches": 0}, offenders=(), rows=()), None),
        dt.RngSpec: (dict(master_seed=5), dict(master_seed=-1)),
        channel.MaskedTrace: (dict(trace=dt.BitString("1"), mask=dt.DeletionMask([True, False]), source_length=2),
                              dict(source_length=3)),
        dt.EventReport: (dict(pattern_witness=(True,), per_run=(False, True)), None),
        dt.SandwichPattern: (dict(offset=0, outer=dt.BitString("01"), inner=dt.BitString("1"), left_copies=1,
                                  right_copies=2), dict(inner=dt.BitString("01"))),
        dt.AdjacentPattern: (dict(offset=0, left=dt.BitString("0"), left_copies=2, right=dt.BitString("1"),
                                  right_copies=1), dict(right=dt.BitString("0"))),
        dt.AmbiguityWitness: (dict(condition=1, pattern=None, alternative=dt.BitString("01")), None),
        dt.ReconstructionResult: (dict(string=dt.BitString("01"), failure=None), dict(failure="x")),
        dt.SufficiencyVerdict: (dict(consistent_count=1, witness=None), None),
    }


def test_value_types_cover_every_decorated_class():
    decorated = {node.name for path in sorted((ROOT / "src" / "deltrace").glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
                 and any(getattr(d, "id", None) == "frozen" for d in node.decorator_list)}
    assert {cls.__name__ for cls in _value_types()} == decorated and len(decorated) == 20


@pytest.mark.parametrize("cls", list(_value_types()), ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    # the contract of dataclass(frozen=True), checked against a dataclass
    # with the same fields and defaults
    kwargs, refused = _value_types()[cls]
    names = list(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    reference = dataclasses.make_dataclass(cls.__qualname__, [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults else (name, object)
        for name in names], frozen=True)
    assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == \
        [(p.name, p.default) for p in inspect.signature(reference).parameters.values()]
    obj = cls(**kwargs)
    values = tuple(getattr(obj, name) for name in names)
    assert repr(obj) == repr(reference(*values))
    # positional, keyword and default construction agree, and equal fields
    # give equal objects with equal hashes
    assert cls(*values) == obj == cls(**kwargs) == cls(values[0], **dict(zip(names[1:], values[1:])))
    assert cls(**{name: value for name, value in kwargs.items()
                  if name not in defaults or value is not defaults[name]}) == obj
    try:
        expected = hash(values)
    except TypeError:  # a field holds a dict or an array, as dataclass refuses too
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(cls(**kwargs)) == expected
    # only the same class compares
    assert obj.__eq__(values) is NotImplemented
    assert all(obj.__eq__(other(**args)) is NotImplemented for other, (args, _) in _value_types().items()
               if other is not cls)
    if names[0] not in defaults:
        with pytest.raises(TypeError, match=f"missing a required argument: '{names[0]}'"):
            cls(**{name: value for name, value in kwargs.items() if name != names[0]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(**kwargs, no_such_field=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(values[0], **{names[0]: values[0]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, None)
    if refused is not None:
        with pytest.raises(ValueError):
            cls(**{**kwargs, **refused})
    with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
        setattr(obj, names[0], values[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
        delattr(obj, names[0])
