"""Span tracing of arrtwist from outside the package.

``Tracer.install`` wraps the public functions and methods of each module
(``rings``, ``linalg``, ``chain``, ``koszul``, ``fox``, ``tower``, ``milnor``,
``arrangement``, ``cli``) and rebinds every module-level name that refers to
a wrapped function, since modules import each other's functions by name
(``from .linalg import rank``).  ``uninstall`` restores the originals.

Every wrapped call outside ``rings`` becomes a span (name, start, end, parent,
job) kept in memory until the run ends.  A layer's self time is a span's
duration minus the time covered by its child spans.  Scalar arithmetic runs
millions of times per run, so ``rings`` calls are not stored one by one:
each is counted, and only the outermost scalar call is timed, its duration
folded into the enclosing span as covered child time.

Bookkeeping done by hooks (matrix fingerprints, coefficient growth) is timed
and excluded from every layer.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("rings", "linalg", "chain", "koszul", "fox", "tower", "milnor", "arrangement", "cli")

# Dunder methods that carry real work; other dunders are left alone.
WORK_DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__truediv__", "__rtruediv__", "__eq__",
}
# Hot accessors and predicates, by method name or Class.method: wrapping them
# would only add overhead; their time stays with the caller.
SKIP = {
    "is_zero", "is_unit", "coerce", "euclid_size", "support", "span",
    "slot_block", "levels", "top_level", "d", "generators", "action", "name",
    "Ring.__eq__", "LaurentPoly.__eq__", "CyclotomicElement.__eq__",
    "PrimeFieldElement.__eq__", "Matrix.__init__", "Character.__init__",
}
SKIP_CLASSES = {
    "FreeWord", "GroupRingElement", "Flat", "BettiData", "Homology", "SmithForm",
    "RangeHomology", "CompleteHomology", "PresentationSummary", "TowerCharacter",
}
# Scalar operations whose call counts are reported by name.
RING_OPS = {
    "LaurentPoly.__mul__": "laurent_mul", "LaurentPoly.__rmul__": "laurent_mul",
    "LaurentPoly.divmod": "laurent_divmod", "Ring.exact_div": "exact_div",
    "CyclotomicElement.__mul__": "cyclo_mul", "CyclotomicElement.__rmul__": "cyclo_mul",
    "CyclotomicElement.inverse": "cyclo_inverse",
}
GROWTH_OPS = {"laurent_mul", "exact_div", "cyclo_mul"}
RING_KIND = {"LaurentRing": "laurent", "CyclotomicField": "cyclo", "RationalField": "qq"}


def _nnz(m):
    return sum(1 for row in m.rows for x in row if x)


def _fingerprint(m):
    return hash((m.ring.name, m.nrows, m.ncols, tuple(tuple(row) for row in m.rows)))


class JobStats:
    """Per-job facts recorded by hooks."""

    def __init__(self):
        self.rank_keys, self.rank_calls = set(), 0
        self.smith_keys, self.smith_calls = set(), 0
        self.boundaries = []  # (rows, cols, nonzeros) per boundary of each complex


class Tracer:
    def __init__(self):
        self.job = -1
        self.stack = []  # open spans: [start, covered child time, span index, extra]
        self.names = []
        self.name_ids = {}
        # span records, one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)  # by span name or ring-op label
        self.layer_calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.inclusive = defaultdict(float)  # outermost calls only, by name
        self.self_by_name = defaultdict(float)
        self.active = defaultdict(int)
        self.rank_by_kind = defaultdict(float)
        self.cells = defaultdict(int)
        self.nnz = defaultdict(int)
        self.peak_span = 0
        self.peak_coeff_bits = 0
        self.jobs = defaultdict(JobStats)
        self._ring_busy = False
        self._patches = []

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, fn, name, layer, pre=None, post=None):
        tr = self
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            stack = tr.stack
            extra = None
            if pre is not None:
                h0 = perf_counter()
                extra = pre(args)
                tr._hook_time(perf_counter() - h0)
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][2] if stack else -1)
            tr.span_job.append(tr.job)
            tr.active[name] += 1
            frame = [perf_counter(), 0.0, idx, extra]
            tr.span_start.append(frame[0])
            tr.span_end.append(0.0)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tr.active[name] -= 1
                dur = end - frame[0]
                tr.span_end[idx] = end
                tr.calls[name] += 1
                tr.layer_calls[layer] += 1
                tr.layer_self[layer] += dur - frame[1]
                tr.self_by_name[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not tr.active[name]:
                    tr.inclusive[name] += dur
                    if extra is not None:
                        tr.rank_by_kind[(name, extra)] += dur
                if post is not None:
                    h0 = perf_counter()
                    post(args)
                    tr._hook_time(perf_counter() - h0)

        return wrapper

    def _ring_wrapper(self, fn, label):
        tr = self
        growth = label in GROWTH_OPS

        def wrapper(*args, **kwargs):
            tr.calls[label] += 1
            if tr._ring_busy:
                return fn(*args, **kwargs)
            tr._ring_busy = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tr._ring_busy = False
                tr.layer_calls["rings"] += 1
                tr.layer_self["rings"] += dur
                if tr.stack:
                    tr.stack[-1][1] += dur
            if growth:
                h0 = perf_counter()
                tr._growth(out)
                tr._hook_time(perf_counter() - h0)
            return out

        return wrapper

    def _hook_time(self, dt):
        """Bookkeeping time: covered for the enclosing span, in no layer."""
        if self.stack:
            self.stack[-1][1] += dt

    def _growth(self, x):
        coeffs = getattr(x, "coeffs", None)
        if coeffs is None:
            return
        if isinstance(coeffs, dict):
            if coeffs:
                self.peak_span = max(self.peak_span, max(coeffs) - min(coeffs))
            values = coeffs.values()
        else:
            values = coeffs
        for c in values:
            if not isinstance(c, Fraction):
                continue  # cyclotomic or prime-field coefficients
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.peak_coeff_bits:
                self.peak_coeff_bits = bits

    # -- hooks ----------------------------------------------------------------

    def _pre_elimination(self, kind):
        def pre(args):
            m = args[0]
            stats = self.jobs[self.job]
            key = _fingerprint(m)
            if kind == "rank":
                stats.rank_calls += 1
                stats.rank_keys.add(key)
            else:
                stats.smith_calls += 1
                stats.smith_keys.add(key)
            self.cells[kind] += m.nrows * m.ncols
            self.nnz[kind] += _nnz(m)
            return RING_KIND.get(type(m.ring).__name__, "other") if kind == "rank" else None

        return pre

    def _post_complex(self, args):
        cx = args[0]
        self.jobs[self.job].boundaries.extend(
            (d.nrows, d.ncols, _nnz(d)) for d in getattr(cx, "boundaries", ())
        )

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, qualname, layer):
        if layer == "rings":
            return self._ring_wrapper(fn, RING_OPS.get(qualname, qualname))
        pre = post = None
        if qualname in ("rank", "smith_normal_form"):
            pre = self._pre_elimination("rank" if qualname == "rank" else "smith")
        elif qualname == "FreeChainComplex.__init__":
            post = self._post_complex
        return self._span_wrapper(fn, f"{layer}.{qualname}", layer, pre, post)

    def install(self):
        """Wrap every public function and method of arrtwist's layers."""
        modules = [m for k, m in sys.modules.items() if k == "arrtwist" or k.startswith("arrtwist.")]
        for layer in LAYERS:
            mod = sys.modules[f"arrtwist.{layer}"]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, type):
                    if attr not in SKIP_CLASSES:
                        self._install_class(val, layer)
                elif callable(val):
                    wrapped = self._wrap(val, attr, layer)
                    for m in modules:  # every binding site of the function
                        for name, obj in list(vars(m).items()):
                            if obj is val:
                                self._patch(m, name, wrapped)

    def _install_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in WORK_DUNDERS
            qualname = f"{cls.__name__}.{attr}"
            if not public or attr in SKIP or qualname in SKIP:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(raw.__func__, qualname, layer))
            elif callable(raw) and not isinstance(raw, type):
                new = self._wrap(raw, qualname, layer)
            else:
                continue  # properties and plain attributes
            self._patch(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def spans(self):
        """Recorded spans as (name, start, end, parent index, job) tuples."""
        return [
            (self.names[n], s, e, p, j)
            for n, s, e, p, j in zip(self.span_name, self.span_start, self.span_end,
                                     self.span_parent, self.span_job)
        ]

    def layer_metrics(self, passes):
        """Per-pass layer metrics; times and counts are divided by ``passes``."""
        per = 1.0 / passes
        inc = self.inclusive

        def total(*names):
            return sum(inc[n] for n in names) * per

        def count(*names):
            return sum(self.calls[n] for n in names) * per

        def ratio(keys, calls):
            # every pass repeats a job's calls, and its distinct contents
            distinct = sum(len(getattr(s, keys)) for s in self.jobs.values())
            n = sum(getattr(s, calls) for s in self.jobs.values()) * per
            return distinct / n if n else 1.0

        out = {f"{layer}.self_s": self.layer_self[layer] * per for layer in LAYERS}
        out["fox.assembly.s"] = out.pop("fox.self_s")
        for op in ("laurent_mul", "laurent_divmod", "exact_div", "cyclo_mul", "cyclo_inverse"):
            out[f"rings.{op}.calls"] = count(op)
        out["rings.peak_span"] = self.peak_span
        out["rings.peak_coeff_bits"] = self.peak_coeff_bits
        out["linalg.rank.s"] = total("linalg.rank")
        for kind in ("laurent", "cyclo", "qq"):
            out[f"linalg.rank.{kind}_s"] = self.rank_by_kind[("linalg.rank", kind)] * per
        out["linalg.rank.calls"] = count("linalg.rank")
        out["linalg.rank.cells"] = self.cells["rank"] * per
        out["linalg.rank.nnz"] = self.nnz["rank"] * per
        out["linalg.rank.unique_ratio"] = ratio("rank_keys", "rank_calls")
        out["linalg.smith.s"] = total("linalg.smith_normal_form")
        out["linalg.smith.calls"] = count("linalg.smith_normal_form")
        out["linalg.smith.cells"] = self.cells["smith"] * per
        out["linalg.smith.unique_ratio"] = ratio("smith_keys", "smith_calls")
        out["linalg.matmul.s"] = total("linalg.Matrix.__mul__", "linalg.Matrix.__rmul__")
        out["linalg.matmul.calls"] = count("linalg.Matrix.__mul__", "linalg.Matrix.__rmul__")
        out["linalg.inverse.s"] = total("linalg.Matrix.inverse")
        out["linalg.inverse.calls"] = count("linalg.Matrix.inverse")
        out["chain.gate.s"] = total("chain.FreeChainComplex.__init__")
        out["chain.homology.calls"] = count("chain.FreeChainComplex.homology")
        out["koszul.build.s"] = total("koszul.build_koszul")
        out["tower.check.s"] = total("tower.check_tower")
        out["tower.assembly.s"] = self.self_by_name["tower.build_tower_complex"] * per
        out["arrangement.lattice.s"] = total("arrangement.Arrangement.central_flats")
        out["arrangement.dense.s"] = total("arrangement.Arrangement.dense_edges")
        return out
