"""Outside-in tracer for `rht`: wraps public functions without editing them.

`rht` modules import functions by name (`from .algebra import degree_basis`),
so a wrapper is useless unless every module attribute that refers to the
original is rebound.  `Tracer.install` does that for module globals and for
class attributes (methods), records every binding it replaced, and
`Tracer.uninstall` puts each one back.  `install_problems` and
`uninstall_problems` are the self-test: after install no `rht` module or
class may still hold an unwrapped original, and after uninstall every
binding must be the original object again.

Each traced function gets `calls`, `s` (cumulative wall time, counted once
per outermost call so recursion is not double counted) and `self_s` (time
minus the time of wrapped callees).  Counter hooks add work counts read
from the public arguments and results.  Time spent in the hooks themselves
is subtracted from every enclosing span, so spans measure `rht` and not
the tracer's bookkeeping.
"""

import functools
import importlib
import inspect
import sys
import time
import weakref


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth", "counts")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.counts = {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key, n):
        if n > self.counts.get(key, 0):
            self.counts[key] = n


# -- counter hooks: (tracer, stat, args, kwargs, result) ----------------------

def _count_monomials(tracer, stat, args, kwargs, result):
    stat.add("monomials", len(result))


def _bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _count_solve(tracer, stat, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    targets = args[1] if len(args) > 1 else kwargs.get("targets")
    stat.add("cells", matrix.rows * matrix.cols)
    stat.add("nnz", len(matrix.entries))
    stat.add("rank", result.rank)
    bits = max((_bits(v) for v in matrix.entries.values()), default=0)
    for t in targets or ():
        bits = max(bits, max((_bits(v) for v in t.values() if v), default=0))
    stat.maximum("max_bits", bits)


def _count_useful(tracer, stat, args, kwargs, result):
    stat.add("useful", 1 if result else 0)


def _count_degrees(tracer, stat, args, kwargs, result):
    stat.add("degrees", result.hi - result.lo + 1)


def _count_reuse(tracer, stat, args, kwargs, result):
    if result in tracer.seen_adapters:
        stat.add("reused", 1)
    else:
        tracer.seen_adapters.add(result)


def _count_generators(tracer, stat, args, kwargs, result):
    stat.add("generators", len(result.model.ctx.gens))


def _count_brackets(tracer, stat, args, kwargs, result):
    stat.add("brackets", len(result.brackets))


# (metric prefix, module, attribute or Class.method, counter hook)
TARGETS = [
    ("algebra.degree_basis", "rht.algebra", "degree_basis", _count_monomials),
    ("algebra.rebase", "rht.algebra", "rebase", None),
    ("algebra.apply_derivation", "rht.algebra", "apply_derivation", None),
    ("algebra.mul", "rht.algebra", "AlgElement.__mul__", None),
    ("linalg.solve_linear", "rht.linalg", "solve_linear", _count_solve),
    ("linalg.echelon_add", "rht.linalg", "Echelon.add", _count_useful),
    ("linalg.echelon_coordinates", "rht.linalg", "Echelon.coordinates", None),
    ("cdga.class_coordinates", "rht.cdga", "CohomologyReport.class_coordinates", None),
    ("cdga.validate", "rht.cdga", "validate", None),
    ("cdga.tensor_finite", "rht.cdga", "tensor_finite", None),
    ("cdga.cohomology_algebra", "rht.cdga", "cohomology_algebra", None),
    ("cdga.cohomology", "rht.cdga", "cohomology", _count_degrees),
    ("cdga.is_quasi_iso", "rht.cdga", "is_quasi_iso", None),
    ("cdga.complex_of", "rht.cdga", "complex_of", _count_reuse),
    ("minimal_model.minimal_model", "rht.minimal_model", "minimal_model", _count_generators),
    ("homotopy_lie.lie_table", "rht.homotopy_lie", "lie_table", _count_brackets),
    ("homotopy_lie.quadratic_part", "rht.homotopy_lie", "quadratic_part", None),
    ("invariants.tc_cup_length", "rht.invariants", "tc_cup_length", None),
    ("invariants.trichotomy_report", "rht.invariants", "trichotomy_report", None),
    ("constructions.config_space_model", "rht.constructions", "config_space_model", None),
    ("constructions.arrangement_complex", "rht.constructions", "arrangement_complex", None),
    ("dsl.parse", "rht.dsl", "parse", None),
    ("dsl.to_json_text", "rht.dsl", "to_json_text", None),
    ("cli.main", "rht.cli", "main", None),
]

# Work counts beyond calls: (metric suffix, unit).  Ratios are derived in
# `Tracer.metrics` from the raw counts the hooks accumulate.
#   monomials     monomials returned by degree_basis
#   cells, nnz    sums of rows x cols and of nonzero entries of the matrices solved
#   rank          sum of the ranks found
#   max_bits      largest numerator or denominator bit length in a matrix or target
#   useful_ratio  Echelon.add calls that enlarged the span / calls
#   degrees       sum over cohomology calls of the degrees in the window
#   reuse_ratio   complex_of calls returning an adapter it returned before / calls
#   generators    generators of the minimal models built
#   brackets      nonzero brackets stored in the Lie tables built
EXTRA_METRICS = {
    "algebra.degree_basis": [("monomials", "count")],
    "linalg.solve_linear": [("cells", "count"), ("nnz", "count"), ("rank", "count"),
                            ("max_bits", "bits")],
    "linalg.echelon_add": [("useful_ratio", "ratio")],
    "cdga.cohomology": [("degrees", "count")],
    "cdga.complex_of": [("reuse_ratio", "ratio")],
    "minimal_model.minimal_model": [("generators", "count")],
    "homotopy_lie.lie_table": [("brackets", "count")],
}

# Metrics that must repeat exactly between two traced passes on the same inputs.
EXACT_SUFFIXES = ("calls", "monomials", "cells", "nnz", "rank", "max_bits", "useful_ratio",
                  "degrees", "reuse_ratio", "generators", "brackets")


def metric_units():
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for prefix, _, _, _ in TARGETS:
        units[prefix + ".calls"] = "count"
        units[prefix + ".s"] = "s"
        units[prefix + ".self_s"] = "s"
        for suffix, unit in EXTRA_METRICS.get(prefix, ()):
            units["%s.%s" % (prefix, suffix)] = unit
    return units


def _rht_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rht" or name.startswith("rht."))]


def _rht_classes():
    out = []
    for mod in _rht_modules():
        for value in vars(mod).values():
            if inspect.isclass(value) and value.__module__.startswith("rht") and value not in out:
                out.append(value)
    return out


class Tracer:
    def __init__(self):
        self.stats = {prefix: Stat() for prefix, _, _, _ in TARGETS}
        self.originals = {}       # prefix -> original function
        self.wrappers = {}        # prefix -> wrapper
        self.bindings = []        # (owner, attribute, original) replaced by install
        self.missing = []
        self.seen_adapters = weakref.WeakSet()
        self._stack = []          # per active span: [child time, overhead at start]
        self._overhead = 0.0

    def reset(self):
        for prefix in self.stats:
            self.stats[prefix] = Stat()
        self.seen_adapters = weakref.WeakSet()

    def add_overhead(self, seconds):
        """Exclude time spent outside rht (e.g. a signal handler) from open spans."""
        self._overhead += seconds

    def _wrap(self, prefix, fn, hook):
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = tracer.stats[prefix]
            stat.calls += 1
            stat.depth += 1
            frame = [0.0, tracer._overhead]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat.depth -= 1
                elapsed = (t1 - t0) - (tracer._overhead - frame[1])
                stat.self_s += elapsed - frame[0]
                if stat.depth == 0:
                    stat.s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(tracer, stat, args, kwargs, result)
                tracer._overhead += clock() - t1
            return result

        return wrapper

    def install(self):
        self.bindings = []
        self.missing = []         # targets rht no longer has; their metrics read 0
        for prefix, modname, attr, hook in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(prefix, original, hook)
            self.originals[prefix] = original
            self.wrappers[prefix] = wrapper
        by_id = {id(fn): prefix for prefix, fn in self.originals.items()}
        owners = _rht_modules() + _rht_classes()
        for owner in owners:
            for name, value in list(vars(owner).items()):
                prefix = by_id.get(id(value))
                if prefix is not None and value is self.originals[prefix]:
                    setattr(owner, name, self.wrappers[prefix])
                    self.bindings.append((owner, name, value))

    def uninstall(self):
        for owner, name, original in reversed(self.bindings):
            setattr(owner, name, original)

    def install_problems(self):
        """Self-test: no rht module or class may still hold an unwrapped original."""
        originals = {id(fn): prefix for prefix, fn in self.originals.items()}
        problems = []
        for owner in _rht_modules() + _rht_classes():
            for name, value in vars(owner).items():
                if id(value) in originals:
                    problems.append("%s.%s still holds the unwrapped %s"
                                    % (getattr(owner, "__name__", owner), name, originals[id(value)]))
        if not self.bindings:
            problems.append("install rebound nothing")
        return problems

    def uninstall_problems(self):
        """Self-test: after uninstall every binding is the original object again."""
        problems = []
        for owner, name, original in self.bindings:
            if vars(owner).get(name) is not original:
                problems.append("%s.%s was not restored" % (getattr(owner, "__name__", owner), name))
        wrappers = {id(fn) for fn in self.wrappers.values()}
        for owner in _rht_modules() + _rht_classes():
            for name, value in vars(owner).items():
                if id(value) in wrappers:
                    problems.append("%s.%s still holds a wrapper" % (getattr(owner, "__name__", owner), name))
        return problems

    def metrics(self):
        """Per-layer metrics {name: value} for everything traced since the last reset."""
        out = {}
        for prefix, _, _, _ in TARGETS:
            stat = self.stats[prefix]
            out[prefix + ".calls"] = stat.calls
            out[prefix + ".s"] = stat.s
            out[prefix + ".self_s"] = stat.self_s
            for suffix, _ in EXTRA_METRICS.get(prefix, ()):
                if suffix == "useful_ratio":
                    value = stat.counts.get("useful", 0) / stat.calls if stat.calls else 0.0
                elif suffix == "reuse_ratio":
                    value = stat.counts.get("reused", 0) / stat.calls if stat.calls else 0.0
                else:
                    value = stat.counts.get(suffix, 0)
                out["%s.%s" % (prefix, suffix)] = value
        return out


def exact_counts(metrics):
    """The subset of per-layer metrics that must repeat exactly."""
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[1] in EXACT_SUFFIXES}
