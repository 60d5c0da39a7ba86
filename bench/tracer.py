"""Per-layer tracing of crepant, installed from outside the package.

`Tracer.install` replaces each function named in FUNCTIONS in every
`crepant` module that holds a binding to it (names are imported by value, so
`isocheck.qc_eval` and `cli.qc_eval` are bindings of `ringtables.qc_eval`
apart from the defining one), and the arithmetic methods named in METHODS on
their classes, `__radd__`/`__rmul__` aliases included.  Every wrapper times
its call on one shared stack of open frames, so each frame knows how much of
its duration its child frames cover:

* a function call records a span (operation, name, start, end, parent span,
  self time), held in memory until the run writes it out;
* `Cyclotomic` and `BaseScalar` arithmetic runs hundreds of thousands of
  times per operation, so it is aggregated into call counts and self time
  instead of one span per call.

Self time is a frame's duration minus the durations of its direct child
frames; on one thread child frames never overlap, so that is the part of the
interval the children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "crepant"

# (module, function, metric).  Several functions may share a metric.
FUNCTIONS = (
    ("cartan", "cartan_build", "cartan.cartan_build"),
    ("linalg", "invert_matrix", "linalg"),
    ("linalg", "solve_exact", "linalg"),
    ("linalg", "determinant", "linalg"),
    ("corrections", "delta_eval", "corrections.delta_eval"),
    ("corrections", "r_function", "corrections.r_function"),
    ("ringtables", "cr_table", "ringtables.cr_table"),
    ("ringtables", "cup_table", "ringtables.cup_table"),
    ("ringtables", "qc_table", "ringtables.qc_table"),
    ("ringtables", "qc_eval", "ringtables.qc_eval"),
    ("ringtables", "table_to_json", "ringtables.emit"),
    ("ringtables", "table_to_text", "ringtables.emit"),
    ("ringtables", "table_to_latex", "ringtables.emit"),
    ("ringtables", "table_from_json", "ringtables.table_from_json"),
    ("mckay", "bgp_map", "mckay.maps"),
    ("mckay", "chtd_map", "mckay.maps"),
    ("mckay", "an_mckay", "mckay.an_mckay"),
    ("resolve", "resolve_an", "resolve.resolve_an"),
    ("isocheck", "transport_check", "isocheck.transport_check"),
    ("isocheck", "solve_a1", "isocheck.solve"),
    ("isocheck", "solve_a2", "isocheck.solve"),
    ("isocheck", "conjecture_scan", "isocheck.conjecture_scan"),
)

# (module, class, methods, metric) of the aggregated arithmetic.
METHODS = (
    ("exactnum", "Cyclotomic", ("__mul__", "__rmul__"), "exactnum.mul"),
    ("exactnum", "Cyclotomic", ("__add__", "__radd__"), "exactnum.add"),
    ("exactnum", "Cyclotomic", ("inverse",), "exactnum.inverse"),
    ("exactnum", "Cyclotomic", ("lift",), "exactnum.lift"),
    ("coeffring", "BaseScalar",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
      "__rmul__", "scale"), "coeffring.ops"),
)
CYCLOTOMIC_POLYNOMIAL = "cyclotomic_polynomial"

# Metrics reported with calls and self time, and with self time only.
TIMED = ("exactnum.mul.field", "exactnum.mul.rational", "exactnum.inverse",
         "exactnum.lift", "exactnum.add", "coeffring.ops",
         "corrections.delta_eval", "corrections.r_function",
         "ringtables.qc_eval", "isocheck.transport_check", "linalg")
SELF_ONLY = ("exactnum.cyclotomic_polynomial", "cartan.cartan_build",
             "ringtables.qc_table", "ringtables.cup_table",
             "ringtables.cr_table", "ringtables.emit",
             "ringtables.table_from_json", "mckay.maps", "mckay.an_mckay",
             "resolve.resolve_an", "isocheck.solve",
             "isocheck.conjecture_scan", "cli.command")

# Wrappers that must record calls on each workload: every one whose code
# runs there.  A traced run in which one of them (if installed) records
# nothing fails, since its binding is evidently not the one callers use.
_IN_PROCESS = ("Cyclotomic.__mul__", "Cyclotomic.__add__",
               "BaseScalar.__add__", "BaseScalar.__neg__",
               "BaseScalar.__sub__", "BaseScalar.scale",
               "exactnum.cyclotomic_polynomial", "cartan.cartan_build",
               "linalg.invert_matrix", "corrections.r_function",
               "ringtables.cr_table", "ringtables.cup_table",
               "ringtables.qc_table")
EXPECTED_WRAPPERS = {
    "scan": _IN_PROCESS + (
        "Cyclotomic.inverse", "Cyclotomic.lift", "corrections.delta_eval",
        "ringtables.qc_eval", "mckay.bgp_map", "isocheck.transport_check",
        "isocheck.conjecture_scan"),
    "tables": _IN_PROCESS + (
        "ringtables.table_to_json", "ringtables.table_to_text",
        "ringtables.table_to_latex", "ringtables.table_from_json"),
    "cli": _IN_PROCESS + (
        "Cyclotomic.__radd__", "Cyclotomic.__rmul__", "Cyclotomic.inverse",
        "Cyclotomic.lift", "corrections.delta_eval",
        "linalg.solve_exact", "ringtables.qc_eval",
        "ringtables.table_to_json", "ringtables.table_to_text",
        "ringtables.table_to_latex", "mckay.bgp_map", "mckay.chtd_map",
        "mckay.an_mckay", "resolve.resolve_an",
        "isocheck.transport_check", "isocheck.solve_a1",
        "isocheck.solve_a2"),
}


def metric_names():
    """(name, unit) of every per-layer metric."""
    names = []
    for m in TIMED:
        names += [(f"{m}.calls", "count"), (f"{m}.self_s", "s")]
    names += [(f"{m}.self_s", "s") for m in SELF_ONLY]
    return names + [("exactnum.cyclotomic_polynomial.misses", "count"),
                    ("exactnum.max_conductor", "1"),
                    ("corrections.delta_eval.distinct_ratio", "1"),
                    ("corrections.poles", "count")]


class Tracer:
    """Span recorder and aggregator for one process.

    Wrappers only call through while `enabled` is false, so the harness can
    check answers between traced calls without counting that work.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.op = 0
        self.spans = []            # [op, name, start, end, parent, self_s]
        self.counts = Counter()    # (wrapper label, metric) -> calls
        self.times = Counter()     # (wrapper label, metric) -> self seconds
        self.installed = []        # wrapper labels
        self.max_conductor = 0
        self.poles = 0
        self.delta_keys = set()
        self._frames = []          # [start, child seconds] of open calls
        self._open_spans = []      # indices into spans of open span calls
        self._undo = []            # (owner, attribute, original value)

    # -- spans ------------------------------------------------------------

    def enter(self, label, metric):
        """Open a span; returns the token `exit` needs."""
        start = self.clock()
        parent = self._open_spans[-1] if self._open_spans else -1
        index = len(self.spans)
        self.spans.append([self.op, label, start, None, parent, 0.0])
        self._open_spans.append(index)
        self._frames.append([start, 0.0])
        return (label, metric), index

    def exit(self, token):
        key, index = token
        end = self.clock()
        start, child = self._frames.pop()
        self._open_spans.pop()
        duration = end - start
        if self._frames:
            self._frames[-1][1] += duration
        self.counts[key] += 1
        self.times[key] += duration - child
        span = self.spans[index]
        span[3] = end
        span[5] = duration - child

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions and methods.

        Functions missing from the package (renamed or deleted by a later
        change) are skipped, and their metrics read 0.
        """
        modules = {name[len(PACKAGE) + 1:]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and mod is not None}
        modules[""] = sys.modules[PACKAGE]
        wrappers = {}
        for modname, fname, metric in FUNCTIONS:
            fn = getattr(modules.get(modname), fname, None)
            if fn is not None:
                label = f"{modname}.{fname}"
                wrap = (self._delta_eval if fname == "delta_eval"
                        else self._span)
                wrappers[id(fn)] = (fn, wrap(fn, label, metric))
                self.installed.append(label)
        poly = getattr(modules.get("exactnum"), CYCLOTOMIC_POLYNOMIAL, None)
        if poly is not None:
            wrappers[id(poly)] = (poly, self._cyclotomic_polynomial(poly))
            self.installed.append("exactnum." + CYCLOTOMIC_POLYNOMIAL)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(mod, attr, hit[1])
        for modname, clsname, methods, metric in METHODS:
            cls = getattr(modules.get(modname), clsname, None)
            for attr in methods:
                fn = vars(cls).get(attr) if cls is not None else None
                if fn is not None:
                    label = f"{clsname}.{attr}"
                    self._replace(cls, attr, self._aggregate(
                        fn, _classifier(label, metric),
                        track_conductor=modname == "exactnum"))
                    self.installed.append(label)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, label, metric):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = self.enter(label, metric)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(token)
        return wrapper

    def _delta_eval(self, fn, label, metric):
        traced = self._span(fn, label, metric)

        @functools.wraps(fn)
        def wrapper(idx, q):
            if not self.enabled:
                return fn(idx, q)
            self.delta_keys.add((tuple(idx),
                                 tuple(_value_key(x) for x in q)))
            try:
                return traced(idx, q)
            except ArithmeticError as exc:
                if type(exc).__name__ == "PoleError":
                    self.poles += 1
                raise
        return wrapper

    def _aggregate(self, fn, classify, track_conductor=True):
        """Count and time calls under the key classify(*args) returns; a
        None key passes the call through untimed."""
        clock, frames = self.clock, self._frames
        counts, times = self.counts, self.times

        @functools.wraps(fn)
        def wrapper(*args):
            key = classify(*args) if self.enabled else None
            if key is None:
                return fn(*args)
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args)
            finally:
                duration = clock() - frame[0]
                frames.pop()
                if frames:
                    frames[-1][1] += duration
                counts[key] += 1
                times[key] += duration - frame[1]
            if track_conductor:
                conductor = getattr(result, "conductor", 0)
                if conductor > self.max_conductor:
                    self.max_conductor = conductor
            return result
        return wrapper

    def _cyclotomic_polynomial(self, cached):
        """Memoize a timed copy of cyclotomic_polynomial's body, so only
        cache misses are counted and timed and the hits (one per field
        element built) stay as cheap as in the program."""
        label = "exactnum." + CYCLOTOMIC_POLYNOMIAL
        classify = _classifier(label, label)
        body = getattr(cached, "__wrapped__", None)
        if body is None or not hasattr(cached, "cache_info"):
            return self._aggregate(cached, classify, track_conductor=False)
        return functools.lru_cache(maxsize=None)(
            self._aggregate(body, classify, track_conductor=False))

    # -- results ----------------------------------------------------------

    def summary(self):
        """Counts and self times, in a form that merges across processes."""
        calls, self_s, wrapper_calls = Counter(), Counter(), Counter()
        for (label, metric), n in self.counts.items():
            calls[metric] += n
            wrapper_calls[label] += n
        for (label, metric), seconds in self.times.items():
            self_s[metric] += seconds
        return {"calls": calls, "self_s": self_s,
                "wrapper_calls": wrapper_calls,
                "max_conductor": self.max_conductor, "poles": self.poles,
                "delta_distinct": len(self.delta_keys)}


def _classifier(label, metric):
    """The key a call of an aggregated method counts under, from its
    arguments; None leaves the call uncounted."""
    if metric == "exactnum.mul":  # split by the operands' conductors
        field = (label, metric + ".field")
        rational = (label, metric + ".rational")
        return lambda a, b: (field if a.conductor > 1
                             or getattr(b, "conductor", 1) > 1 else rational)
    key = (label, metric)
    if metric == "exactnum.lift":  # only lifts that change the conductor
        return lambda a, conductor: None if conductor == a.conductor else key
    return lambda *args: key


def _value_key(value):
    coeffs = getattr(value, "coeffs", None)
    if coeffs is None:
        return value
    return (value.conductor, tuple(coeffs))


def merge(summaries):
    """Combine the summaries of several processes into one."""
    out = {"calls": Counter(), "self_s": Counter(), "wrapper_calls": Counter(),
           "max_conductor": 0, "poles": 0, "delta_distinct": 0}
    for s in summaries:
        for key in ("calls", "self_s", "wrapper_calls"):
            out[key].update(s[key])
        out["max_conductor"] = max(out["max_conductor"], s["max_conductor"])
        out["poles"] += s["poles"]
        out["delta_distinct"] += s["delta_distinct"]
    return out


def layer_metrics(summary):
    """The metrics of `metric_names`, from a (merged) summary."""
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for m in TIMED:
        out[f"{m}.calls"] = calls.get(m, 0)
        out[f"{m}.self_s"] = self_s.get(m, 0.0)
    for m in SELF_ONLY:
        out[f"{m}.self_s"] = self_s.get(m, 0.0)
    delta_calls = calls.get("corrections.delta_eval", 0)
    out["exactnum.cyclotomic_polynomial.misses"] = calls.get(
        "exactnum.cyclotomic_polynomial", 0)
    out["exactnum.max_conductor"] = summary["max_conductor"]
    out["corrections.delta_eval.distinct_ratio"] = (
        summary["delta_distinct"] / delta_calls if delta_calls else 0.0)
    out["corrections.poles"] = summary["poles"]
    return out


def module_shares(summary, wall_s):
    """(module, self seconds, share of wall_s) rows, largest first, plus
    the time no wrapped call covers."""
    per_module = Counter()
    for metric, seconds in summary["self_s"].items():
        per_module[metric.split(".")[0]] += seconds
    rows = list(per_module.most_common())
    rows.append(("(no wrapped call)", wall_s - sum(per_module.values())))
    return [(mod, s, s / wall_s if wall_s else 0.0) for mod, s in rows]
