"""Per-layer tracing of doldzeta from the benchmark's own code.

`Tracer.install()` wraps the public functions, the public methods and the
arithmetic operator methods of every doldzeta module, and rebinds each
wrapper in every doldzeta namespace that held the original (so `from .x
import f` call sites are traced too).  Constructors of the two classes whose
build time is a metric (`PermutationGroup`, `PartitionFamily`) are wrapped
as well.

Each wrapped call made while an operation runs is counted.  Most also open a
span (name, start, end, parent span, operation id), kept in flat arrays in
memory until the pass ends.  The helpers in `LEAVES` are called millions of
times from loops (permutation products, coefficient coercion, partition
images); they are counted but open no span, so their time falls to the span
that called them.  A layer is a module; its self time is the sum over its
spans of the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from math import comb
from time import perf_counter

MODULES = ("series", "multipoly", "dynamics", "partitions", "oracles", "identities",
           "graded", "cli")

OPERATORS = {"__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
             "__truediv__", "__pow__", "__floordiv__", "__mod__", "__divmod__"}

CONSTRUCTED = {"PermutationGroup", "PartitionFamily"}

LEAVES = {
    "series.rat", "series.rat_str", "series.Poly.coefficient",
    "dynamics.divisors", "dynamics.mobius", "dynamics.DoldProfile.count",
    "dynamics.LefschetzSequence.value",
    "partitions.identity_perm", "partitions.compose_perms", "partitions.invert_perm",
    "partitions.perm_cycle_type", "partitions.perm_cycle_count",
    "partitions.fiber_partition", "partitions.SetPartition.apply",
    "partitions.SetPartition.refines", "partitions.SetPartition.block_index_of",
    "oracles.PointedFiniteSet.act", "oracles.PointedFiniteSet.trace",
    "graded.koszul_sign", "graded.GradedEndomorphism.matrix",
    "graded.GradedEndomorphism.dimension",
}

# per-layer metric -> the span names it sums
GROUP_BUILD = ("__init__", "from_generators", "from_json", "trivial", "symmetric", "cyclic",
               "direct_product")
FAMILY_BUILD = ("__init__", "full", "discrete_only", "max_block", "refining",
                "from_predicate", "from_json", "extended_with")
SPAN_METRICS = {
    "partitions.validate_gset": ["partitions.validate_gset"],
    "partitions.group_build": [f"partitions.PermutationGroup.{n}" for n in GROUP_BUILD],
    "partitions.family_build": [f"partitions.PartitionFamily.{n}" for n in FAMILY_BUILD],
    "partitions.minimal_excluded_step": ["partitions.minimal_excluded_step"],
    "identities.gsymm_polynomial": ["identities.gsymm_polynomial"],
    "identities.general_lefschetz_polynomial": ["identities.general_lefschetz_polynomial"],
    "identities.dold_polynomial_of_functor": ["identities.dold_polynomial_of_functor"],
    "identities.compose_lefschetz": ["identities.compose_lefschetz"],
    "identities.realize_polynomial": ["identities.realize_polynomial"],
    "identities.integer_lattice_check": ["identities.integer_lattice_check"],
    "identities.verify_identity": ["identities.verify_identity"],
    "multipoly.mul": ["multipoly.MultiPoly.__mul__"],
    "multipoly.add": ["multipoly.MultiPoly.__add__"],
    "multipoly.evaluate": ["multipoly.MultiPoly.evaluate"],
    "multipoly.substitute": ["multipoly.MultiPoly.substitute"],
    "series.mul": ["series.PowerSeries.__mul__"],
    "series.inverse": ["series.PowerSeries.inverse"],
    "series.pow": ["series.PowerSeries.__pow__"],
    "series.exp": ["series.exp_series"],
    "series.exponent_product": ["series.exponent_product"],
    "dynamics.zeta_series": ["dynamics.zeta_series"],
    "dynamics.mobius": ["dynamics.dold_from_lefschetz", "dynamics.lefschetz_from_dold"],
    "graded.bareiss_determinant": ["graded.bareiss_determinant"],
    "graded.poincare_generating": ["graded.poincare_generating"],
}
ORACLES = ("fixed_bounded_multisets", "fixed_invariant_subsets", "fixed_bounded_tuples",
           "fixed_gmap_space", "fixed_partition_orbits")
for _name in ORACLES:
    SPAN_METRICS[f"oracles.{_name}"] = [f"oracles.{_name}"]

SELF_METRICS = ([f"{m}.self_s" for m in MODULES] + [f"{m}.self_s" for m in SPAN_METRICS]
                + ["series.bivariate.self_s"])

CALL_METRICS = {
    "partitions.compose_perms.calls": "partitions.compose_perms",
    "partitions.validate_gset.calls": "partitions.validate_gset",
    "partitions.minimal_excluded_step.calls": "partitions.minimal_excluded_step",
    "identities.gsymm_polynomial.calls": "identities.gsymm_polynomial",
    "multipoly.mul.calls": "multipoly.MultiPoly.__mul__",
    "multipoly.add.calls": "multipoly.MultiPoly.__add__",
    "multipoly.evaluate.calls": "multipoly.MultiPoly.evaluate",
    "multipoly.substitute.calls": "multipoly.MultiPoly.substitute",
    "series.mul.calls": "series.PowerSeries.__mul__",
    "series.inverse.calls": "series.PowerSeries.inverse",
    "series.pow.calls": "series.PowerSeries.__pow__",
    "dynamics.zeta_series.calls": "dynamics.zeta_series",
    "graded.bareiss_determinant.calls": "graded.bareiss_determinant",
}

# count metrics that are not call counts
OTHER_COUNTS = ("cli.output_bytes", "multipoly.mul.terms_out",
                "identities.integer_lattice_check.points", "oracles.candidates")


def oracle_candidates(name, bound_args):
    """Candidate points an oracle enumerates, computed from its inputs in
    the same way as the oracle's size guard."""
    a = bound_args.arguments
    f = a["f"]
    n = f.size
    if name == "fixed_bounded_multisets":
        k, bound = a["k"], a.get("bound")
        if k <= 0 or n == 0 or (bound is not None and bound <= 0):
            return 0
        return comb(n + k - 1, k)
    if name == "fixed_invariant_subsets":
        k = a["k"]
        return sum(comb(n, j) for j in range(1, min(k, n) + 1)) if k >= 1 else 0
    if name == "fixed_bounded_tuples":
        k, bound = a["k"], a["bound"]
        if k <= 0 or (bound is not None and bound <= 0):
            return 0
        return sum(1 for x in range(n) if f.mapping[x] == x) ** k
    if name == "fixed_gmap_space":
        gset = a.get("gset")
        k = len(gset[0]) if gset else a["group"].degree
        return n ** k
    if name == "fixed_partition_orbits":
        coefficient = a.get("coefficient")
        ys = coefficient.size - 1 if coefficient is not None else 1
        return n ** a["family"].ground * max(1, ys)
    raise KeyError(name)


class Tracer:
    """Counts and spans of traced doldzeta calls, in memory."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.op = -1
        self.extra = dict.fromkeys(OTHER_COUNTS, 0)

    # -- operations --------------------------------------------------------

    def begin(self, op_id):
        self.op = op_id

    def end(self):
        self.op = -1

    # -- wrapping ----------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        calls = self.calls
        tracer = self
        if name in LEAVES:
            def counted(*args, **kwargs):
                if tracer.op >= 0:
                    calls[nid] += 1
                return fn(*args, **kwargs)
            wrapper = counted
        else:
            names, parents, ops = self.span_name, self.span_parent, self.span_op
            starts, ends, stack = self.span_start, self.span_end, self.stack
            post = self._post_hook(name, fn)

            def spanned(*args, **kwargs):
                if tracer.op < 0:
                    return fn(*args, **kwargs)
                calls[nid] += 1
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                ops.append(tracer.op)
                ends.append(0.0)
                stack.append(idx)
                starts.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    stack.pop()
                if post is not None:
                    post(args, kwargs, result)
                return result
            wrapper = spanned
        return functools.update_wrapper(wrapper, fn)

    def _post_hook(self, name, fn):
        extra = self.extra
        if name == "multipoly.MultiPoly.__mul__":
            def post(args, kwargs, result):
                extra["multipoly.mul.terms_out"] += len(result.terms)
            return post
        short = name.split(".", 1)[1]
        if name.startswith("oracles.") and short in ORACLES:
            signature = inspect.signature(fn)

            def post(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra["oracles.candidates"] += oracle_candidates(short, bound)
            return post
        return None

    def install(self, package="doldzeta"):
        """Wrap every traced callable and rebind it in every namespace."""
        modules = {m: sys.modules[f"{package}.{m}"] for m in MODULES}
        replaced = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    if not issubclass(obj, BaseException):
                        self._wrap_class(short, obj)
                elif (
                    callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__
                    and not attr.startswith("_")
                    and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
                ):
                    replaced[id(obj)] = self._wrap(obj, f"{short}.{obj.__qualname__}")
        namespaces = [sys.modules[package]] + list(modules.values())
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(namespace, attr, wrapper)

    def _wrap_class(self, short, cls):
        done = {}
        for attr, raw in list(vars(cls).items()):
            traced = (
                attr in OPERATORS
                or not attr.startswith("_")
                or (attr == "__init__" and cls.__name__ in CONSTRUCTED)
            )
            if not traced or isinstance(raw, property):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            if id(fn) not in done:
                done[id(fn)] = self._wrap(fn, f"{short}.{fn.__qualname__}")
            wrapper = done[id(fn)]
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(cls, attr, wrapper)

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per-name calls, spans and self time, and the per-layer metrics,
        computed from the recorded spans."""
        count = len(self.span_name)
        covered = [0.0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(count):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        self_by_name = [0.0] * len(self.names)
        total_by_name = [0.0] * len(self.names)
        lattice_points = 0
        lattice_ids = {i for i, n in enumerate(self.names)
                       if n == "identities.integer_lattice_check"}
        evaluate_ids = {i for i, n in enumerate(self.names)
                        if n == "multipoly.MultiPoly.evaluate"}
        for i in range(count):
            nid = self.span_name[i]
            duration = ends[i] - starts[i]
            self_by_name[nid] += duration - covered[i]
            p = parents[i]
            parent_nid = self.span_name[p] if p >= 0 else -1
            if parent_nid != nid:
                total_by_name[nid] += duration
            if nid in evaluate_ids and parent_nid in lattice_ids:
                lattice_points += 1
        per_name = {}
        for nid, name in enumerate(self.names):
            if self.calls[nid]:
                entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
                entry["calls"] += self.calls[nid]
                entry["self_s"] += self_by_name[nid]
        metrics = {}
        for module in MODULES:
            metrics[f"{module}.self_s"] = sum(
                v["self_s"] for n, v in per_name.items() if n.startswith(module + "."))
        for metric, names in SPAN_METRICS.items():
            metrics[f"{metric}.self_s"] = sum(per_name.get(n, {}).get("self_s", 0.0)
                                              for n in names)
        metrics["series.bivariate.self_s"] = sum(
            v["self_s"] for n, v in per_name.items() if n.startswith("series.BivariateSeries."))
        for metric, name in CALL_METRICS.items():
            metrics[metric] = per_name.get(name, {}).get("calls", 0)
        metrics.update(self.extra)
        metrics["identities.integer_lattice_check.points"] = lattice_points
        oracle_time = sum(total_by_name[i] for i, n in enumerate(self.names)
                          if n in {f"oracles.{o}" for o in ORACLES})
        metrics["oracles.candidates_per_s"] = (
            metrics["oracles.candidates"] / oracle_time if oracle_time > 0 else 0.0)
        return {"metrics": metrics, "per_name": per_name, "spans": count}
