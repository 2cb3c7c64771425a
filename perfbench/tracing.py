"""Per-layer tracing from outside the program.

The tracer replaces, for the length of a ``with`` block, every module
attribute of the package that holds one of the traced public functions
(``pipeline.factor_z``, ``seifert.factor_z``, ``zfactor.divides``, ...)
with a wrapper that records a span: name, call site, start, end, parent
span and operation id.  Callers look these names up at call time, so the
wrappers see every call between layers without a change to the program.
A few spans also keep a count taken from the arguments or the return
value (a hit flag, a size).  Spans stay in memory; per-layer metrics are
computed from them after the run.  Every original attribute is restored
when the block exits, also on an exception.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

PACKAGE = "knotsig"

# layer module -> public functions traced in it, each one behind a metric
TRACED = {
    "pipeline": ("analyze", "analyze_tau"),
    "polys": ("alexander_check", "delta_to_p", "resultant", "divides", "is_squarefree_q"),
    "zfactor": ("factor_z",),
    "modp": ("factor_mod_p", "symmetric_common_factor"),
    "intfactor": ("integer_factor",),
    "realroots": ("rho_delta", "rho_p", "sturm_count", "isolate_roots", "sign_at_root"),
    "obstruction": ("obstruction_group", "pi_set"),
    "milnor": ("enumerate_sign_tuples",),
    "seifert": ("form_to_pair", "alexander_of_form", "milnor_signatures", "signature_exact",
                "charpoly"),
}

# Each per-layer metric: name -> (unit, kind).  Kinds: "ms" inclusive
# milliseconds per operation, "self_ms" exclusive milliseconds per
# operation, "calls" calls per operation, "hit_ratio" hits over calls,
# "max" largest recorded size, "errors" non-budget exceptions per
# operation.  A run has a fixed number of operations for a seed, so the
# counts repeat exactly.
LAYER_METRICS = {
    "pipeline.analyze.ms": ("ms/op", "ms"),
    "pipeline.analyze.self_ms": ("ms/op", "self_ms"),
    "pipeline.analyze_tau.ms": ("ms/op", "ms"),
    "polys.alexander_check.ms": ("ms/op", "ms"),
    "polys.delta_to_p.ms": ("ms/op", "ms"),
    "polys.is_squarefree_q.calls": ("1/op", "calls"),
    "polys.divides.calls": ("1/op", "calls"),
    "polys.divides.hit_ratio": ("ratio", "hit_ratio"),
    "polys.resultant.ms": ("ms/op", "ms"),
    "zfactor.factor_z.calls": ("1/op", "calls"),
    "zfactor.factor_z.ms": ("ms/op", "ms"),
    "zfactor.factor_z.self_ms": ("ms/op", "self_ms"),
    "zfactor.factor_z.errors": ("1/op", "errors"),
    "zfactor.modular_factors.max": ("count", "max"),
    "modp.factor_mod_p.calls": ("1/op", "calls"),
    "modp.factor_mod_p.ms": ("ms/op", "ms"),
    "modp.symmetric_common_factor.hit_ratio": ("ratio", "hit_ratio"),
    "intfactor.integer_factor.ms": ("ms/op", "ms"),
    "intfactor.integer_factor.input_bits.max": ("bits", "max"),
    "realroots.rho_delta.ms": ("ms/op", "ms"),
    "realroots.rho_p.ms": ("ms/op", "ms"),
    "realroots.sturm_count.calls": ("1/op", "calls"),
    "realroots.sturm_count.ms": ("ms/op", "ms"),
    "realroots.isolate_roots.ms": ("ms/op", "ms"),
    "realroots.sign_at_root.calls": ("1/op", "calls"),
    "realroots.sign_at_root.ms": ("ms/op", "ms"),
    "obstruction.obstruction_group.ms": ("ms/op", "ms"),
    "obstruction.pi_set.calls": ("1/op", "calls"),
    "obstruction.pi_set.hit_ratio": ("ratio", "hit_ratio"),
    "milnor.enumerate_sign_tuples.ms": ("ms/op", "ms"),
    "seifert.form_to_pair.ms": ("ms/op", "ms"),
    "seifert.alexander_of_form.ms": ("ms/op", "ms"),
    "seifert.milnor_signatures.ms": ("ms/op", "ms"),
    "seifert.milnor_signatures.self_ms": ("ms/op", "self_ms"),
    "seifert.signature_exact.ms": ("ms/op", "ms"),
    "seifert.charpoly.ms": ("ms/op", "ms"),
}

# Exceptions that are not the program's errors: a named budget running
# out, and the benchmark's own per-request limit.
NOT_ERRORS = ("BudgetExceededError", "DeadlineExceeded")

# Sized metrics: metric -> (traced function, call site or None for any).
# zfactor.modular_factors counts the factors of each factor_mod_p result
# that zfactor receives (first and auxiliary primes alike), against the
# recombination cap of 16.
SIZED = {
    "zfactor.modular_factors.max": ("modp.factor_mod_p", "zfactor"),
    "intfactor.integer_factor.input_bits.max": ("intfactor.integer_factor", None),
}


def _hit_divides(args, result):
    return bool(result)


def _hit_pi_set(args, result):
    return bool(result.primes)


def _hit_symmetric_common_factor(args, result):
    return bool(result[0])


def _size_factor_mod_p(args, result):
    return len(result.factors)


def _size_integer_factor(args, result):
    return abs(args[0]).bit_length()


HIT = {
    "polys.divides": _hit_divides,
    "obstruction.pi_set": _hit_pi_set,
    "modp.symmetric_common_factor": _hit_symmetric_common_factor,
}
SIZE = {
    "modp.factor_mod_p": _size_factor_mod_p,
    "intfactor.integer_factor": _size_integer_factor,
}


@dataclass
class Span:
    name: str          # "<layer>.<function>", or "op" for an operation's root
    site: str          # module whose attribute the caller looked up
    op: int            # operation id
    parent: int        # index of the enclosing span, -1 at the root
    start: float = 0.0
    end: float = 0.0
    hit: bool | None = None
    size: int | None = None
    error: str | None = None
    child_s: float = 0.0   # summed duration of direct children


class Tracer:
    """Install with ``with Tracer() as tracer:``; wrap each operation in
    ``tracer.operation(op_id)``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        originals = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for fn in names:
                originals[id(getattr(mod, fn))] = (f"{layer}.{fn}", getattr(mod, fn))
        try:
            for mod in modules:
                site = mod.__name__.rpartition(".")[2]
                for attr, value in list(vars(mod).items()):
                    hit = originals.get(id(value))
                    if hit is None or hit[1] is not value:
                        continue
                    setattr(mod, attr, self._wrap(hit[0], site, value))
                    self._patched.append((mod, attr, value))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    @property
    def patched(self) -> list[tuple[str, str]]:
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, site: str) -> Span:
        span = Span(name, site, self._op, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start

    def _wrap(self, name: str, site: str, fn):
        hit_of, size_of = HIT.get(name), SIZE.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, site)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if hit_of is not None:
                span.hit = hit_of(args, result)
            if size_of is not None:
                span.size = size_of(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def operation(self, op_id: int):
        return _Operation(self, op_id)


class _Operation:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer, self.op_id = tracer, op_id

    def __enter__(self):
        self.tracer._op = self.op_id
        self.span = self.tracer._open("op", "")

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        self.tracer._op = -1


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Every metric of LAYER_METRICS, over the ``n_ops`` traced
    operations."""
    if n_ops < 1:
        raise ValueError("need at least one traced operation")
    inclusive: dict[str, float] = {}
    exclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    hits: dict[str, int] = {}
    errors: dict[str, int] = {}
    sizes: dict[tuple[str, str], int] = {}
    for span in spans:
        dur = span.end - span.start
        exclusive[span.name] = exclusive.get(span.name, 0.0) + dur - span.child_s
        if not _has_ancestor(spans, span, span.name):
            inclusive[span.name] = inclusive.get(span.name, 0.0) + dur
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.hit:
            hits[span.name] = hits.get(span.name, 0) + 1
        if span.error and span.error not in NOT_ERRORS:
            errors[span.name] = errors.get(span.name, 0) + 1
        if span.size is not None:
            for key in ((span.name, span.site), (span.name, None)):
                sizes[key] = max(sizes.get(key, 0), span.size)
    out: dict[str, float] = {}
    for metric, (_, kind) in LAYER_METRICS.items():
        fn = metric.rsplit(".", 1)[0]
        if kind == "ms":
            out[metric] = 1e3 * inclusive.get(fn, 0.0) / n_ops
        elif kind == "self_ms":
            out[metric] = 1e3 * exclusive.get(fn, 0.0) / n_ops
        elif kind == "calls":
            out[metric] = calls.get(fn, 0) / n_ops
        elif kind == "errors":
            out[metric] = errors.get(fn, 0) / n_ops
        elif kind == "hit_ratio":
            out[metric] = hits.get(fn, 0) / calls[fn] if calls.get(fn) else 0.0
        elif kind == "max":
            source, site = SIZED[metric]
            out[metric] = sizes.get((source, site), 0)
    return out


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def hit_bases(spans: list[Span]) -> dict[str, int]:
    """Number of calls behind each hit ratio, for the report."""
    out: dict[str, int] = {}
    for metric, (_, kind) in LAYER_METRICS.items():
        if kind == "hit_ratio":
            fn = metric.rsplit(".", 1)[0]
            out[metric] = sum(1 for s in spans if s.name == fn)
    return out
