"""Spans recorded around calls into dickeqfi, installed from outside the package.

Each wrapper replaces a module attribute that dickeqfi's own callers look
up at call time (for example ``dickeqfi.exchange.exchange_integral``,
which ``_sweep_point`` calls), so the package runs unmodified while every
call through that name leaves a span.  Spans live in memory and are
written out once when the traced process ends.
"""
from __future__ import annotations

import functools
import importlib
import time


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        """Return ``fn`` recording a span per call.

        ``name`` is a string or a callable of the call arguments;
        ``attrs`` maps (args, kwargs, result) to extra span fields.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name(args, kwargs) if callable(name) else name,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    Children are the spans naming it as parent; overlapping children are
    counted once and clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


def _config_ladder(args, kwargs):
    return (args[0] if args else kwargs["config"]).ladder_a


def _exchange_name(args, kwargs):
    # Nonzero level frequencies make the exponent accumulators complex
    # (Kerr ladders); Dicke and harmonic ladders keep them real.
    kind = "kerr" if any(_config_ladder(args, kwargs).frequencies) else "dicke"
    return f"exchange.integral.{kind}"


def _exchange_attrs(args, kwargs, result):
    return {"m": _config_ladder(args, kwargs).levels}


def _oracle_name(args, kwargs):
    return "oracle.delayed" if kwargs.get("delay", 0.0) > 0.0 else "oracle.float"


def _populations_attrs(args, kwargs, result):
    return {"converged": bool(result.converged)}


# (module, attribute, span name, extra fields): every name a caller in
# dickeqfi or in the benchmark's library driver resolves at call time.
WRAPPED = (
    ("dickeqfi.exchange", "build_dicke", "ladder.build", None),
    ("dickeqfi.exchange", "build_harmonic", "ladder.build", None),
    ("dickeqfi.exchange", "build_anharmonic", "ladder.build", None),
    ("dickeqfi.cli", "build_dicke", "ladder.build", None),
    ("dickeqfi.ladder", "build_dicke", "ladder.build", None),
    ("dickeqfi.exchange", "exchange_integral", _exchange_name, _exchange_attrs),
    ("dickeqfi.cli", "exchange_integral", _exchange_name, _exchange_attrs),
    ("dickeqfi.cli", "qfi_vs_n_sweep", "exchange.sweep", None),
    ("dickeqfi.cli", "oracle_integral", _oracle_name, None),
    ("dickeqfi.oracle", "oracle_integral", _oracle_name, None),
    ("dickeqfi.oracle", "oracle_integral_exact", "oracle.exact", None),
    ("dickeqfi.cli", "parity_curve", "metrology", None),
    ("dickeqfi.cli", "qfi_twin", "metrology", None),
    ("dickeqfi.cli", "dicke_collection_probability", "dickesim.collection", None),
    ("dickeqfi.cli", "dicke_populations", "dickesim.populations", _populations_attrs),
    ("dickeqfi.cli", "collection_probability_product", "dickesim.product", None),
    ("dickeqfi.dickesim", "collection_probability_product", "dickesim.product", None),
    ("dickeqfi.cli", "full_budget", "budget.full", None),
)


def install_all(tracer: Tracer):
    for module_name, attr, name, attrs in WRAPPED:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, attrs))
