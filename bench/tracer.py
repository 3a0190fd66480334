"""Spans around the public entry points of each finitepart module.

Only the traced run installs these wrappers; the untraced runs execute the
unmodified program.  A wrapper replaces the name each caller binds (for
example ``finitepart.stieltjes.finite_part_integral`` and
``finitepart.cli.quad_adaptive``, which are the same function bound in two
modules) and the methods of the entire-function descriptors.  Spans hold a
name, start, end and parent; they stay in memory until the run ends.  A
span's self time is its duration minus that of its direct children.
"""

import importlib
import json
import time
from array import array

# (module, attribute, span name).  Every module that binds a name gets its
# own entry, because ``from .x import f`` copies the binding.
FUNCTIONS = [
    ("finitepart.stieltjes", "finite_part_integral", "finite_part"),
    ("finitepart.asymptotic", "finite_part_integral", "finite_part"),
    ("finitepart.cli", "finite_part_integral", "finite_part"),
    ("finitepart.finite_part", "quad_adaptive", "oracles.quad"),
    ("finitepart.oracles", "quad_adaptive", "oracles.quad"),
    ("finitepart.cli", "quad_adaptive", "oracles.quad"),
    ("finitepart.cli", "fpi_epsilon_oracle", "oracles.epsilon"),
    ("finitepart.stieltjes", "evaluate_transform", "stieltjes"),
    ("finitepart.cli", "evaluate_transform", "stieltjes"),
    ("finitepart.stieltjes", "eval_quadratic", "stieltjes"),
    ("finitepart.cli", "eval_quadratic", "stieltjes"),
    ("finitepart.stieltjes", "effective_diffusivity", "stieltjes"),
    ("finitepart.cli", "effective_diffusivity", "stieltjes"),
    ("finitepart.stieltjes", "singular_term_integer", "stieltjes.singular"),
    ("finitepart.stieltjes", "singular_term_branch", "stieltjes.singular"),
    ("finitepart.specfun", "gauss2f1_integer", "specfun.gauss_int"),
    ("finitepart.cli", "gauss2f1_integer", "specfun.gauss_int"),
    ("finitepart.specfun", "gauss2f1_branch", "specfun.gauss_branch"),
    ("finitepart.cli", "gauss2f1_branch", "specfun.gauss_branch"),
    ("finitepart.specfun", "kummer_u", "specfun.kummer"),
    ("finitepart.cli", "kummer_u", "specfun.kummer"),
    ("finitepart.asymptotic", "classify", "asymptotic.classify"),
    ("finitepart.cli", "classify", "asymptotic.classify"),
    ("finitepart.cli", "main", "cli.main"),
    ("finitepart.cli", "run", "cli.run"),
    ("finitepart.cli", "render", "cli.render"),
    ("finitepart.cli", "build_parser", "cli.parse"),
]
ENTIRE_METHODS = {"coeff": "entire.coeff", "eval": "entire.eval",
                  "eval_complex": "entire.eval",
                  "derivative_at": "entire.eval"}
SPAN_NAMES = sorted({n for _, _, n in FUNCTIONS} | set(ENTIRE_METHODS.values()))


def descriptor_key(f):
    """Content of an entire-function descriptor, independent of identity."""
    items = []
    for k, v in sorted(vars(f).items()):
        if k.startswith("_") or callable(v):
            continue
        items.append((k, descriptor_key(v) if hasattr(v, "coeff") else v))
    return (type(f).__name__, tuple(items))


class Tracer:
    """Span store plus the work counters read off the wrapped calls."""

    def __init__(self):
        self.ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = {"fpi_methods": {}, "series_terms": 0,
                       "naive_terms": 0, "quad_neval": 0, "bytes_out": 0,
                       "fpi_distinct": 0}
        self._seen = set()
        self._saved = []

    # -- recording ---------------------------------------------------

    def wrap(self, fn, span, on_result=None):
        nid = self.ids[span]
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(res, args)
            return res

        return traced

    def _on_fpi(self, res, args):
        c = self.counts
        m = c["fpi_methods"]
        m[res.method.value] = m.get(res.method.value, 0) + 1
        c["series_terms"] += res.terms_used
        key = (descriptor_key(args[0]),) + tuple(args[1:4])
        if key not in self._seen:
            self._seen.add(key)
            c["fpi_distinct"] += 1

    def _on_transform(self, res, args):
        if hasattr(res, "k_used"):
            self.counts["naive_terms"] += res.k_used + 1

    def _on_quad(self, res, args):
        self.counts["quad_neval"] += res.evaluations

    def _on_render(self, res, args):
        self.counts["bytes_out"] += len(res.encode())

    def new_round(self):
        """Distinct finite-part queries are counted per round."""
        self._seen.clear()

    # -- installing --------------------------------------------------

    def install(self):
        hooks = {"finite_part": self._on_fpi, "stieltjes": self._on_transform,
                 "oracles.quad": self._on_quad, "cli.render": self._on_render}
        for modname, attr, span in FUNCTIONS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            if span == "cli.parse":
                wrapped = self._wrap_parser(orig)
            else:
                wrapped = self.wrap(orig, span, hooks.get(span))
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, wrapped)
        entire = importlib.import_module("finitepart.entire")
        for obj in list(vars(entire).values()):
            if isinstance(obj, type) and issubclass(obj, entire.TaylorFunction):
                for meth, span in ENTIRE_METHODS.items():
                    if meth in vars(obj):
                        orig = vars(obj)[meth]
                        self._saved.append((obj, meth, orig))
                        setattr(obj, meth, self.wrap(orig, span))

    def _wrap_parser(self, build_parser):
        traced_build = self.wrap(build_parser, "cli.parse")

        def build():
            parser = traced_build()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse")
            return parser

        return build

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- reading -----------------------------------------------------

    def self_times(self):
        """{span name: (count, summed self time in seconds)}."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {s: [0, 0] for s in SPAN_NAMES}
        for i in range(n):
            rec = out[SPAN_NAMES[self.name[i]]]
            rec[0] += 1
            rec[1] += self.end[i] - self.start[i] - child[i]
        return {k: (c, ns * 1e-9) for k, (c, ns) in out.items()}

    def write(self, path):
        """Spans as four native-order arrays after a one-line JSON header:
        name index (int32), parent (int32, -1 at the root), start and end
        (int64 ns).  The header lists the span names and the count."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": SPAN_NAMES,
                                 "spans": len(self.name)}).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(tracer, rounds, ops_per_round):
    """Per-layer metrics per round, from the spans and counters."""
    st = tracer.self_times()
    c = tracer.counts

    def cnt(span):
        return st[span][0] / rounds

    def sec(span):
        return st[span][1] / rounds

    fpi_calls = cnt("finite_part")
    meth = c["fpi_methods"]
    m = {
        "entire.coeff_calls": (cnt("entire.coeff"), "count"),
        "entire.coeff_s": (sec("entire.coeff"), "s"),
        "entire.eval_calls": (cnt("entire.eval"), "count"),
        "entire.eval_s": (sec("entire.eval"), "s"),
        "finite_part.calls": (fpi_calls, "count"),
        "finite_part.calls_per_op": (fpi_calls / ops_per_round, "count"),
        "finite_part.distinct_ratio": (
            (c["fpi_distinct"] / rounds) / fpi_calls if fpi_calls else 0.0,
            "ratio"),
        "finite_part.series_finite_calls": (
            meth.get("SeriesFinite", 0) / rounds, "count"),
        "finite_part.closed_form_calls": (
            meth.get("ClosedForm", 0) / rounds, "count"),
        "finite_part.split_infinite_calls": (
            meth.get("SplitInfinite", 0) / rounds, "count"),
        "finite_part.series_terms": (c["series_terms"] / rounds, "count"),
        "finite_part.self_s": (sec("finite_part"), "s"),
        "stieltjes.calls": (cnt("stieltjes"), "count"),
        "stieltjes.naive_terms": (c["naive_terms"] / rounds, "count"),
        "stieltjes.naive_terms_per_op": (
            c["naive_terms"] / rounds / ops_per_round, "count"),
        "stieltjes.self_s": (sec("stieltjes"), "s"),
        "stieltjes.singular_s": (sec("stieltjes.singular"), "s"),
        "specfun.calls": (cnt("specfun.gauss_int") + cnt("specfun.gauss_branch")
                          + cnt("specfun.kummer"), "count"),
        "specfun.gauss_int_s": (sec("specfun.gauss_int"), "s"),
        "specfun.gauss_branch_s": (sec("specfun.gauss_branch"), "s"),
        "specfun.kummer_s": (sec("specfun.kummer"), "s"),
        "asymptotic.calls": (cnt("asymptotic.classify"), "count"),
        "asymptotic.classify_s": (sec("asymptotic.classify"), "s"),
        "oracles.quad_calls": (cnt("oracles.quad"), "count"),
        "oracles.quad_neval": (c["quad_neval"] / rounds, "count"),
        "oracles.quad_s": (sec("oracles.quad"), "s"),
        "oracles.epsilon_calls": (cnt("oracles.epsilon"), "count"),
        "oracles.epsilon_s": (sec("oracles.epsilon"), "s"),
        "cli.calls": (cnt("cli.main"), "count"),
        "cli.parse_s": (sec("cli.parse"), "s"),
        "cli.run_self_s": (sec("cli.run"), "s"),
        "cli.render_s": (sec("cli.render"), "s"),
        "cli.bytes_out": (c["bytes_out"] / rounds, "B"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
