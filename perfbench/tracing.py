"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces the public functions named in ``LAYERS`` with
timing wrappers: the module attribute, every module-level alias of the same
object anywhere in the package (``tate.padic_from_integer``,
``duality.check_prime``, ...) and methods on classes.  Names that no longer
exist are skipped, so layers can be removed without editing the benchmark.
Per-step helpers such as ``xgcd`` are not wrapped; their work is counted
arithmetically from the arguments of the function that drives them.

Each call records a span (name, start, end, parent span, op id) in compact
arrays kept in memory and written out by ``write_spans`` at the end.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "tatedual"
LAYERS = {
    "cli": ("run", "build_parser", "CommandResult.to_json"),
    "padic": ("PAdicInt.__post_init__", "PAdicInt.__add__", "PAdicInt.__neg__",
              "PAdicInt.__mul__", "PAdicInt.inverse", "PAdicInt.truncate",
              "padic_from_integer", "canonical_sequence",
              "CanonicalSequence.__post_init__", "arithmetic"),
    "kernels": ("add", "neg", "mul", "inv", "bilinear_scan"),
    "tate": ("tate_coefficients", "a4", "a6", "truncation_index"),
    "gamma": ("gamma_generators", "hull_with_coefficients", "cyclic_hull", "gamma_group",
              "contains_one_report", "density_witness", "prufer_image",
              "prufer_relations_check", "supernatural_limit", "parse_prufer"),
    "supernatural": ("k0_of", "supernatural_from_sizes", "qn_contains", "stably_isomorphic",
                     "uhf_from_tate", "parse_supernatural", "parse_descriptor"),
    "duality": ("pair", "perfectness_check"),
    "numutil": ("check_prime", "factorize", "gcd_with_coefficients", "prime_to_part"),
}

# Functions whose calls/total_ms/self_ms/errors are reported as metrics: the
# ones the documented layer -> end-to-end mapping names, plus each layer's
# entry points.
REPORTED = (
    "cli.run", "cli.build_parser", "cli.CommandResult.to_json",
    "padic.PAdicInt.__post_init__", "padic.PAdicInt.__mul__", "padic.PAdicInt.inverse",
    "padic.padic_from_integer", "padic.canonical_sequence",
    "kernels.mul", "kernels.inv", "kernels.bilinear_scan",
    "tate.a4", "tate.a6",
    "gamma.hull_with_coefficients", "gamma.cyclic_hull", "gamma.supernatural_limit",
    "gamma.prufer_relations_check",
    "supernatural.stably_isomorphic", "supernatural.k0_of",
    "duality.perfectness_check", "duality.pair",
    "numutil.check_prime", "numutil.factorize", "numutil.gcd_with_coefficients",
)
STATS = ("calls", "total_ms", "self_ms", "errors")
COUNTERS = (
    ("tate.terms_summed", "count"),
    ("numutil.gcd_coeff_updates", "count"),
    ("gamma.hulls_built", "count"),
    ("gamma.certificate_use_ratio", "ratio"),
    ("duality.scan_cells", "count"),
    ("padic.residues_built", "count"),
    ("padic.digits_validated", "count"),
    ("numutil.check_prime.cache_hit_ratio", "ratio"),
)
SPAN_CAP = 200_000  # spans kept for the trace file; statistics use every call


def metric_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for fn in REPORTED:
        out += [(f"{fn}.calls", "count"), (f"{fn}.total_ms", "ms"),
                (f"{fn}.self_ms", "ms"), (f"{fn}.errors", "count")]
    out += list(COUNTERS)
    out += [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    out += [("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
    return out


def _resolve(module, dotted):
    owner, _, attr = dotted.rpartition(".")
    target = getattr(module, owner, None) if owner else module
    if target is None or attr not in vars(target):
        return None, attr, None
    return target, attr, vars(target)[attr]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts = {name: 0 for name, _ in COUNTERS}
        self.certified_hulls = 0
        self.check_prime_hits = 0
        self.op_id = -1
        self.span_count = 0
        self.prime_cache = ()
        self._stack: list[list] = []
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_op = array("i")
        self._span_start = array("q")
        self._span_end = array("q")
        self._patches: list[tuple[object, str, object]] = []

    # installation -------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every function in LAYERS that exists; return the names skipped."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        numutil = sys.modules.get(f"{PACKAGE}.numutil")
        self.prime_cache = getattr(numutil, "_VERIFIED_PRIMES", ())
        skipped = []
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                skipped += [f"{layer}.{n}" for n in names]
                continue
            for dotted in names:
                owner, attr, original = _resolve(module, dotted)
                if not callable(original):
                    skipped.append(f"{layer}.{dotted}")
                    continue
                wrapper = self._wrap(f"{layer}.{dotted}", original)
                self._patch(owner, attr, wrapper)
                if owner is module:  # rebind aliases of a module-level function
                    for other in modules:
                        for alias, value in list(vars(other).items()):
                            if value is original and other is not module:
                                self._patch(other, alias, wrapper)
        return skipped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.errors.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [fid, 0, tracer.span_count]  # function, child ns, span id
            tracer.span_count += 1
            pre = before(tracer, args) if before else None
            stack.append(frame)
            raised = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.calls[fid] += 1
                tracer.total_ns[fid] += duration
                tracer.self_ns[fid] += duration - frame[1]
                if raised:
                    tracer.errors[fid] += 1
                if parent is not None:
                    parent[1] += duration
                if frame[2] < SPAN_CAP:
                    tracer._span_id.append(frame[2])
                    tracer._span_name.append(fid)
                    tracer._span_parent.append(parent[2] if parent else -1)
                    tracer._span_op.append(tracer.op_id)
                    tracer._span_start.append(start)
                    tracer._span_end.append(end)
            if after:
                after(tracer, args, kwargs, result, pre, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def parent_name(self, parent) -> str | None:
        return self.names[parent[0]] if parent else None

    # results ------------------------------------------------------------------

    def table(self) -> dict[str, dict]:
        return {
            name: {"calls": self.calls[i], "total_ms": self.total_ns[i] / 1e6,
                   "self_ms": self.self_ns[i] / 1e6, "errors": self.errors[i]}
            for i, name in enumerate(self.names)
        }

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        table = self.table()
        zero = {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "errors": 0}
        out: dict[str, float] = {}
        for fn in REPORTED:
            row = table.get(fn, zero)
            for stat in STATS:
                out[f"{fn}.{stat}"] = row[stat]
        counts = dict(self.counts)
        hull_calls = table.get("gamma.hull_with_coefficients", zero)["calls"]
        counts["gamma.certificate_use_ratio"] = (
            self.certified_hulls / hull_calls if hull_calls else 0.0)
        checks = table.get("numutil.check_prime", zero)["calls"]
        counts["numutil.check_prime.cache_hit_ratio"] = (
            self.check_prime_hits / checks if checks else 0.0)
        out.update(counts)
        root_ms = table.get("cli.run", zero)["total_ms"]
        for layer in LAYERS:
            layer_ms = sum(row["self_ms"] for name, row in table.items()
                           if name.split(".", 1)[0] == layer)
            out[f"{layer}.self_share"] = layer_ms / root_ms if root_ms else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.spans"] = self.span_count
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped TSV; return how many were written."""
        rows = zip(self._span_id, self._span_name, self._span_start, self._span_end,
                   self._span_parent, self._span_op)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for span, fid, start, end, parent, op in rows:
                fh.write(f"{span}\t{self.names[fid]}\t{start}\t{end}\t{parent}\t{op}\n")
        return len(self._span_id)


# --- work counters, computed from arguments and results -------------------------


def _add(name, amount):
    def after(tracer, args, kwargs, result, pre, parent):
        tracer.counts[name] += amount(args, kwargs, result)
    return None, after


def _terms(args, kwargs, result):
    # the per-n series sums n = 1..T with T = ceil(N/v) - 1 unless overridden
    q = args[0]
    terms = kwargs.get("terms", args[1] if len(args) > 1 else None)
    if terms is None:
        value, v = q.value, 0
        while value % q.p == 0:
            value //= q.p
            v += 1
        terms = -(-q.precision // v) - 1
    return terms


def _coefficient_updates(args, kwargs, result):
    n = len(args[0])  # step i rescales the i coefficients gathered so far
    return n * (n - 1) // 2


def _hull_after(tracer, args, kwargs, result, pre, parent):
    if tracer.parent_name(parent) != "gamma.cyclic_hull":
        tracer.counts["gamma.hulls_built"] += 1
        tracer.certified_hulls += 1


def _cyclic_hull_after(tracer, args, kwargs, result, pre, parent):
    tracer.counts["gamma.hulls_built"] += 1


def _check_prime_before(tracer, args):
    return args[0] in tracer.prime_cache


def _check_prime_after(tracer, args, kwargs, result, pre, parent):
    tracer.check_prime_hits += pre


def _post_init_after(tracer, args, kwargs, result, pre, parent):
    tracer.counts["padic.residues_built"] += 1
    tracer.counts["padic.digits_validated"] += args[0].precision


_HOOKS = {
    "tate.a4": _add("tate.terms_summed", _terms),
    "tate.a6": _add("tate.terms_summed", _terms),
    "numutil.gcd_with_coefficients": _add("numutil.gcd_coeff_updates", _coefficient_updates),
    "gamma.hull_with_coefficients": (None, _hull_after),
    "gamma.cyclic_hull": (None, _cyclic_hull_after),
    "duality.perfectness_check": _add("duality.scan_cells",
                                      lambda args, kwargs, result: result.modulus ** 2),
    "numutil.check_prime": (_check_prime_before, _check_prime_after),
    "padic.PAdicInt.__post_init__": (None, _post_init_after),
}
