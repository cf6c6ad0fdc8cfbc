"""Span tracing of compident's layers, installed from outside the package.

``Tracer.install()`` replaces each traced public function with a wrapper
in every ``compident`` module namespace that binds it (``cli`` imports
``coefficient_map`` directly, ``identify`` imports ``lhs_coefficients``,
and so on), and replaces the ``Poly.text`` method.  ``uninstall()`` puts
the originals back.  Private helpers are never wrapped.

A span is ``(name, start, end, parent, request)``: the parent is the
index of the enclosing span (-1 for a request's root span) and request is
the id of the CLI call it belongs to.  Spans stay in memory and are
written out by ``write()`` at the end of a run.  Every time metric is
self time: a span's duration minus the durations of its direct child
spans, so the per-layer times of a request add up to its wall time.

Counters are exact: call counts and quantities read off the returned
values (forests counted, map terms, rank trials, certificates fired), so
two traced runs of the same calls give the same counters.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict


def _forests(result) -> int:
    return sum(sum(p.terms.values()) for p in result)


def _map_terms(cm) -> int:
    return sum(len(p.terms) for p in cm.entries)


def _equation_coeffs(eq) -> int:
    return len(eq.lhs) + sum(len(ds) for _sign, ds in eq.rhs.values())


def _models(result) -> int:
    return len(result) if isinstance(result, dict) else 1


def _fired(result) -> int:
    return int(result is not None)


# (module, function, derived counter, how to read it off the result).
# A derived counter is only read off the outermost span that feeds it, so
# builders that call each other are not counted twice.
TRACED = (
    ("model", "load_model", None, None),
    ("model", "is_strongly_connected", None, None),
    ("model", "distance", None, None),
    ("model", "inductively_strong_order", None, None),
    ("graphs", "leak_augmented", None, None),
    ("graphs", "strip_outgoing", None, None),
    ("graphs", "compartmental_matrix", None, None),
    ("families", "bidirectional_tree_model", "models_built", _models),
    ("families", "random_strongly_connected_model", "models_built", _models),
    ("families", "reference_models", "models_built", _models),
    ("forests", "forest_sums_by_size", "forests_counted", _forests),
    ("forests", "lhs_coefficients", None, None),
    ("forests", "rhs_coefficients", None, None),
    ("identify", "coefficient_map", "map_terms", _map_terms),
    ("identify", "generic_rank", "rank_trials", lambda r: len(r.trials)),
    ("identify", "count_criterion", "certificates_fired", _fired),
    ("identify", "classify_tree", "certificates_fired", lambda r: 1),
    ("identify", "isc_sufficiency", "certificates_fired", _fired),
    ("determinant", "io_equation", "equation_coeffs", _equation_coeffs),
    ("determinant", "check_minor_identities", None, None),
    ("cli", "render_equation", None, None),
    ("transforms", "verify_rank_relation", None, None),
)
TEXT_SPAN = "poly.Poly.text"
REQUEST_SPAN = "request"


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.requests: list = []
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.coeffs_text_calls = 0
        self.coeffs_equation_coeffs = 0
        self._stack: list = []
        self._depth: Counter = Counter()
        self._request = None
        self._request_kind = None
        self._patches: list = []

    # -- recording -----------------------------------------------------
    def _enter(self):
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame, start: float, end: float):
        stack = self._stack
        stack.pop()
        dur = end - start
        parent = stack[-1] if stack else None
        self.spans[frame[0]] = (name, start, end,
                                parent[0] if parent else -1, self._request)
        self.self_s[name] += dur - frame[1]
        self.calls[name] += 1
        if parent is not None:
            parent[1] += dur

    def _wrap(self, name: str, counter, read, fn):
        tracer = self
        depth = tracer._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = depth[counter] == 0
            depth[counter] += 1
            frame = tracer._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[counter] -= 1
                tracer._exit(name, frame, start, end)
            if counter is not None and outermost:
                value = read(result)
                tracer.counts[counter] += value
                if (counter == "determinant.equation_coeffs"
                        and tracer._request_kind == "coeffs"):
                    tracer.coeffs_equation_coeffs += value
            if name == TEXT_SPAN and tracer._request_kind == "coeffs":
                tracer.coeffs_text_calls += 1
            return result

        return traced

    def request(self, request_id: int, kind: str, argv, fn):
        """Run ``fn()`` as one request: a root span with its own id."""
        self._request, self._request_kind = request_id, kind
        self.requests.append((request_id, kind, list(argv)))
        frame = self._enter()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._exit(REQUEST_SPAN, frame, start, time.perf_counter())
            self._request = self._request_kind = None

    # -- installation --------------------------------------------------
    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "compident" or name.startswith("compident.")}
        for module, func, counter, read in TRACED:
            original = getattr(modules[f"compident.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}",
                                 counter and f"{module}.{counter}", read,
                                 original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        poly_cls = modules["compident.poly"].Poly
        original = poly_cls.text
        self._patches.append((poly_cls, "text", original))
        poly_cls.text = self._wrap(TEXT_SPAN, None, None, original)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results -------------------------------------------------------
    def _self(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def _calls(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def metrics(self) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        requests = max(1, len(self.requests))
        predicates = ("model.is_strongly_connected", "model.distance",
                      "model.inductively_strong_order")
        builds = ("graphs.leak_augmented", "graphs.strip_outgoing",
                  "graphs.compartmental_matrix")
        families = ("families.bidirectional_tree_model",
                    "families.random_strongly_connected_model",
                    "families.reference_models")
        certificates = ("identify.count_criterion", "identify.classify_tree",
                        "identify.isc_sufficiency")
        rank_calls = self._calls("identify.generic_rank")
        cert_calls = self._calls(*certificates)
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "model.load_model_s": (self._self("model.load_model"), "s"),
            "model.predicates_s": (self._self(*predicates), "s"),
            "model.predicate_calls": (self._calls(*predicates), "count"),
            "graphs.build_s": (self._self(*builds), "s"),
            "graphs.build_calls": (self._calls(*builds), "count"),
            "families.models_built": (c["families.models_built"], "count"),
            "families.build_s": (self._self(*families), "s"),
            "forests.forest_sums_self_s":
                (self._self("forests.forest_sums_by_size"), "s"),
            "forests.forest_sums_calls":
                (self._calls("forests.forest_sums_by_size"), "count"),
            "forests.forests_counted": (c["forests.forests_counted"], "count"),
            "identify.coefficient_map_self_s":
                (self._self("identify.coefficient_map"), "s"),
            "identify.coefficient_map_calls":
                (self._calls("identify.coefficient_map"), "count"),
            "identify.map_builds_per_request":
                (self._calls("identify.coefficient_map") / requests, "ratio"),
            "identify.map_terms": (c["identify.map_terms"], "count"),
            "identify.generic_rank_s":
                (self._self("identify.generic_rank"), "s"),
            "identify.rank_calls_per_request": (rank_calls / requests, "ratio"),
            "identify.trials_per_rank":
                (ratio(c["identify.rank_trials"], rank_calls), "ratio"),
            "identify.certificates_s": (self._self(*certificates), "s"),
            "identify.certificate_hit_ratio":
                (ratio(c["identify.certificates_fired"], cert_calls), "ratio"),
            "determinant.io_equation_s":
                (self._self("determinant.io_equation"), "s"),
            "determinant.io_equation_calls":
                (self._calls("determinant.io_equation"), "count"),
            "determinant.identity_checks_s":
                (self._self("determinant.check_minor_identities"), "s"),
            "poly.text_s": (self._self(TEXT_SPAN), "s"),
            "poly.text_calls": (self._calls(TEXT_SPAN), "count"),
            "poly.text_calls_per_coeff":
                (ratio(self.coeffs_text_calls, self.coeffs_equation_coeffs),
                 "ratio"),
            "cli.render_equation_s": (self._self("cli.render_equation"), "s"),
            "cli.render_equation_calls":
                (self._calls("cli.render_equation"), "count"),
            "transforms.verify_rank_relation_s":
                (self._self("transforms.verify_rank_relation"), "s"),
        }

    def write(self, path: str) -> None:
        """Write requests and spans as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"span_fields": ["name", "start", "end", "parent",
                                       "request"],
                       "requests": self.requests, "spans": self.spans}, fh,
                      separators=(",", ":"))
