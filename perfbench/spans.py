"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces every public function of every ``twoscale``
module (the names in each module's ``__all__``) with a wrapper that records a
span, and rebinds the same wrapper wherever another module imported the
function by name (``asymptotics.solve_twist``, ``oracle.solve_twist``, the
package namespace, ...), so those calls are seen too.  ``CharExponent.deriv``
is counted, not timed.  Private helpers such as ``twist._twist_at_psi`` are
not wrapped: their time is self time of the public function that called them.

A span records its name, layer (the module the function is defined in),
start, end, parent span and query id.  Spans started on a worker thread with
no open span of their own take the span open on the main thread as parent
(``reproduce_tables`` fans rows out over a thread pool).  Self time is a
span's duration minus the part of it covered by the union of its children's
intervals.
"""

from __future__ import annotations

import gzip
import inspect
import json
import threading
import time
from collections import defaultdict

LAYERS = ("levy", "twist", "models", "asymptotics", "oracle", "edgeworth", "overdispersion", "cli")

# Span record fields.
NAME, LAYER, START, END, PARENT, QID, RAISED, DERIVS, EXTRA = range(9)


class Tracer:
    def __init__(self, ts) -> None:
        import importlib

        self.ts = ts
        self.modules = [ts] + [importlib.import_module(f"twoscale.{m}") for m in LAYERS]
        self.error = ts.TwoscaleError
        self.spans: list = []
        self.qid = -1
        self.derivs = 0
        self._main_ident = threading.get_ident()
        self._main: list = []
        self._local = threading.local()
        self._undo: list = []

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for mod in self.modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(fn, layer)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        ce = self.ts.CharExponent
        orig = ce.deriv
        self._undo.append((ce, "deriv", orig))
        ce.deriv = self._count_deriv(orig)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count_deriv(self, orig):
        tracer = self

        def deriv(exponent, t, order=0):
            tracer.derivs += 1
            stack = tracer._stack()
            if stack:
                stack[-1][DERIVS] += 1
            return orig(exponent, t, order)

        deriv.__doc__ = orig.__doc__
        return deriv

    def _wrap(self, fn, layer: str):
        tracer = self
        name = fn.__name__
        spans = self.spans
        samples_of = None
        if name == "is_tail":
            sig = inspect.signature(fn)

            def samples_of(args, kwargs):
                return sig.bind(*args, **kwargs).arguments["samples"]

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main[-1] if tracer._main else None
            rec = [name, layer, 0.0, 0.0, parent, tracer.qid, False, 0, None]
            spans.append(rec)
            stack.append(rec)
            cpu0 = time.process_time() if samples_of else 0.0
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except tracer.error:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if name == "solve_twist":
                rec[EXTRA] = out.iterations
            elif name == "diagnostic":
                rec[EXTRA] = len(out.rows)
            elif samples_of is not None:
                rec[EXTRA] = (samples_of(args, kwargs), time.process_time() - cpu0)
            elif name == "main" and out == 2:
                # The CLI turns a TwoscaleError into exit code 2.
                rec[RAISED] = True
            return out

        traced.__wrapped__ = fn
        traced.__name__ = name
        traced.__doc__ = fn.__doc__
        return traced

    # -- output ---------------------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, name, layer, start, end, parent id, query id."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                parent = ids.get(id(rec[PARENT])) if rec[PARENT] is not None else None
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "layer": rec[LAYER], "start": rec[START],
                    "end": rec[END], "parent": parent, "query": rec[QID], "raised": rec[RAISED],
                    "derivs": rec[DERIVS],
                }) + "\n")


def self_times(spans: list) -> dict:
    """id(span) -> self time in seconds."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[id(rec[PARENT])].append((rec[START], rec[END]))
    out = {}
    for rec in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(id(rec), ())):
            lo, hi = max(lo, rec[START]), min(hi, rec[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[id(rec)] = (rec[END] - rec[START]) - covered
    return out


def inclusive_derivs(spans: list) -> dict:
    """id(span) -> deriv calls made while it or any descendant was innermost."""
    total = {id(rec): rec[DERIVS] for rec in spans}
    # Children are appended after their parents, so a reverse sweep folds
    # every subtree into its root.
    for rec in reversed(spans):
        if rec[PARENT] is not None:
            total[id(rec[PARENT])] += total[id(rec)]
    return total


def layer_metrics(spans: list, queries: int, derivs: int) -> dict:
    """Per-layer metrics over the spans of ``queries`` traced queries."""
    selft = self_times(spans)
    incl = inclusive_derivs(spans)
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec[NAME]].append(rec)

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def self_sum(pred):
        return sum(selft[id(rec)] for rec in spans if pred(rec))

    def per_call_ms(name):
        recs = by_name[name]
        return sum(selft[id(r)] for r in recs) / len(recs) * 1e3 if recs else 0.0

    solves = by_name["solve_twist"]
    done = [r for r in solves if r[EXTRA] is not None]
    is_calls = [r for r in by_name["is_tail"] if r[EXTRA] is not None]
    is_wall = sum(r[END] - r[START] for r in is_calls)
    diags = [r for r in by_name["diagnostic"] if r[EXTRA] is not None]
    tables = by_name["reproduce_tables"]
    pi_names = {n for n in by_name if n.startswith("pi_")}
    q = max(queries, 1)
    m = {
        "levy.deriv_calls_per_query": derivs / q,
        "levy.deriv_calls_per_solve": sum(incl[id(r)] for r in solves) / len(solves) if solves else 0.0,
        "levy.lmgf_calls_per_query": count("lmgf") / q,
        "twist.solve_calls_per_query": len(solves) / q,
        "twist.expansion_calls_per_query": count("fast_expansion", "slow_expansion") / q,
        "twist.newton_iters_per_solve": sum(r[EXTRA] for r in done) / len(done) if done else 0.0,
        "twist.self_us_per_query": self_sum(lambda r: r[LAYER] == "twist") / q * 1e6,
        "models.series_self_us_per_query":
            self_sum(lambda r: r[NAME] in ("fast_series_coeffs", "slow_series_coeffs")) / q * 1e6,
        "models.exact_law_calls_per_query": count("exact_law") / q,
        "asymptotics.self_us_per_query": self_sum(lambda r: r[LAYER] == "asymptotics") / q * 1e6,
        "oracle.negbin_self_ms_per_call": per_call_ms("negbin_tail"),
        "oracle.compound_self_ms_per_call": per_call_ms("compound_poisson_gamma_tail"),
        "oracle.is_self_ms_per_call": per_call_ms("is_tail"),
        "oracle.is_samples_per_s": sum(r[EXTRA][0] for r in is_calls) / is_wall if is_wall else 0.0,
        "oracle.is_cpu_over_wall": sum(r[EXTRA][1] for r in is_calls) / is_wall if is_wall else 0.0,
        "edgeworth.diagnostic_self_ms_per_call": per_call_ms("diagnostic"),
        "edgeworth.points_per_call": sum(r[EXTRA] for r in diags) / len(diags) if diags else 0.0,
        "overdispersion.pi_self_us_per_query": self_sum(lambda r: r[NAME] in pi_names) / q * 1e6,
        "overdispersion.tables_ms_per_call":
            sum(r[END] - r[START] for r in tables) / len(tables) * 1e3 if tables else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.raised_per_query"] = sum(1 for r in spans if r[LAYER] == layer and r[RAISED]) / q
    return m
