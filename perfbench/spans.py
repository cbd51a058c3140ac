"""In-memory spans around the public functions of each cylshell layer.

The wrappers live here, in the benchmark, and are installed on the name the
caller actually looks up: ``korn_constant`` calls ``korn.min_rayleigh``
through the module globals of ``cylshell.korn``, ``fixedbc.classical_ratio``
calls ``fixedbc.functional_family``, ``ansatz`` calls ``ansatz.gradient``, and
so on.  A span is ``[name, start, end, parent, pass_id, attrs]``; ``parent``
is the index of the enclosing span.  Nothing is written until the process
ends.
"""

import functools
import inspect
import json
import math
import time
import tracemalloc


class Recorder:
    """Spans of one process, kept in memory."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.spans = []
        self.wrapper_s = 0.0  # time spent in the wrappers, outside the wrapped calls
        self._stack = []

    def wrap(self, module, attr, name, attrs=None, alloc=False):
        """Replace ``module.attr`` by a spanned version.

        ``attrs(bound_arguments, result)`` adds counts to the span;
        ``alloc`` records the tracemalloc peak of the call in bytes.
        """
        fn = getattr(module, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            entered = time.perf_counter()
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.pass_id, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5]["error"] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                if alloc:
                    span[5]["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5].update(attrs(bound.arguments, result))
            self.wrapper_s += time.perf_counter() - entered - (span[2] - span[1])
            return result

        setattr(module, attr, spanned)

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "attrs"],
                       "spans": self.spans}, f)
            f.write("\n")


def capture_scans(sink):
    """Keep every ``ScanResult`` the CLI computes, traced or not.

    ``cylshell korn`` and ``cylshell components`` drop the ``on_boundary``
    flag of their scans; the benchmark needs it to fail such a case.
    """
    from cylshell import korn

    def keep(fn):
        @functools.wraps(fn)
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result
        return kept

    for attr in ("korn_constant", "component_bound"):
        setattr(korn, attr, keep(getattr(korn, attr)))


def install(rec):
    """Span every layer boundary the workloads cross."""
    from cylshell import ansatz, cli, fields, fixedbc, koiter, korn, rect

    def scan(args, res):
        return {"evals": res.evaluations, "on_boundary": int(res.on_boundary)}

    def nodes(args, grid):
        return {"nodes": grid.r_nodes.size * grid.th_nodes.size * grid.z_nodes.size}

    def trials(args, res):
        return {"trials": args["trials"]}

    rec.wrap(korn, "assemble_mode_forms", "korn.assemble")
    rec.wrap(korn, "min_rayleigh", "korn.solve")
    rec.wrap(korn, "max_rayleigh", "korn.solve")
    rec.wrap(korn, "korn_constant", "korn.scan", scan)
    rec.wrap(korn, "component_bound", "korn.scan", scan)
    rec.wrap(koiter, "minimize_load", "koiter.minimize_load", alloc=True)
    rec.wrap(fixedbc, "classical_ratio", "fixedbc.classical_ratio", alloc=True)
    for module in (fields, fixedbc):
        rec.wrap(module, "functional_family", "fields.functional_family")
    for module in (fields, ansatz):
        rec.wrap(module, "gradient", "fields.gradient")
    for module in (fields, fixedbc, ansatz):
        rec.wrap(module, "volume_grid", "fields.volume_grid", nodes)
    rec.wrap(ansatz, "verify_limits", "ansatz.sweep")
    rec.wrap(ansatz, "compressiveness_scaling", "ansatz.sweep")
    for attr in ("basic_inequality_trials", "periodic_inequality_trials",
                 "harmonic_lemma_check"):
        rec.wrap(rect, attr, "rect.trials", trials)
    rec.wrap(rect, "harmonic_projection", "rect.harmonic_projection")
    rec.wrap(cli, "main", "cli.main")


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(spans, first, wall_s):
    """Per-layer metrics of one traced pass, whose spans are ``spans[first:]``.

    Self time is a span's duration minus the durations of its direct child
    spans; spans of one thread nest, so the children never overlap.
    """
    total, child, calls, errors = {}, {}, {}, {}
    attr_sum, attr_max = {}, {}
    solve_ms = []
    for name, start, end, parent, _, attrs in spans[first:]:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        errors[name] = errors.get(name, 0) + attrs.get("error", 0)
        if parent is not None:
            pname = spans[parent][0]
            child[pname] = child.get(pname, 0.0) + dur
        for key, value in attrs.items():
            attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
            attr_max[(name, key)] = max(attr_max.get((name, key), 0), value)
        if name == "korn.solve":
            solve_ms.append(1e3 * dur)
    solve_ms.sort()

    def self_s(name):
        return total.get(name, 0.0) - child.get(name, 0.0)

    scans = calls.get("korn.scan", 0)
    evals = attr_sum.get(("korn.scan", "evals"), 0)
    mb = 1.0 / 2**20
    korn_s = total.get("korn.solve", 0.0) + total.get("korn.assemble", 0.0) \
        + self_s("korn.scan")
    return {
        "korn.assemble.calls": (calls.get("korn.assemble", 0), "count"),
        "korn.assemble.s": (total.get("korn.assemble", 0.0), "s"),
        "korn.solve.calls": (calls.get("korn.solve", 0), "count"),
        "korn.solve.s": (total.get("korn.solve", 0.0), "s"),
        "korn.solve.p50_ms": (_percentile(solve_ms, 50), "ms"),
        "korn.solve.p99_ms": (_percentile(solve_ms, 99), "ms"),
        "korn.solve.errors": (errors.get("korn.solve", 0), "count"),
        "korn.scan.calls": (scans, "count"),
        "korn.scan.s": (total.get("korn.scan", 0.0), "s"),
        "korn.scan.self_s": (self_s("korn.scan"), "s"),
        "korn.scan.evals": (evals, "count"),
        "korn.scan.evals_per_scan": (evals / scans if scans else 0.0, "evals/scan"),
        "korn.scan.on_boundary": (attr_sum.get(("korn.scan", "on_boundary"), 0), "count"),
        "korn.wall_share": (korn_s / wall_s, "ratio"),
        "koiter.minimize_load.calls": (calls.get("koiter.minimize_load", 0), "count"),
        "koiter.minimize_load.s": (total.get("koiter.minimize_load", 0.0), "s"),
        "koiter.minimize_load.peak_alloc_mb": (
            mb * attr_max.get(("koiter.minimize_load", "peak_alloc"), 0), "MB"),
        "fixedbc.classical_ratio.s": (total.get("fixedbc.classical_ratio", 0.0), "s"),
        "fixedbc.classical_ratio.peak_alloc_mb": (
            mb * attr_max.get(("fixedbc.classical_ratio", "peak_alloc"), 0), "MB"),
        "fields.functional_family.calls": (calls.get("fields.functional_family", 0), "count"),
        "fields.functional_family.s": (total.get("fields.functional_family", 0.0), "s"),
        "fields.gradient.calls": (calls.get("fields.gradient", 0), "count"),
        "fields.gradient.s": (total.get("fields.gradient", 0.0), "s"),
        "fields.quad_points": (attr_sum.get(("fields.volume_grid", "nodes"), 0), "count"),
        "ansatz.sweep.calls": (calls.get("ansatz.sweep", 0), "count"),
        "ansatz.sweep.s": (total.get("ansatz.sweep", 0.0), "s"),
        "rect.trials.count": (attr_sum.get(("rect.trials", "trials"), 0), "count"),
        "rect.trials.s": (total.get("rect.trials", 0.0), "s"),
        "rect.harmonic_projection.calls": (calls.get("rect.harmonic_projection", 0), "count"),
        "rect.harmonic_projection.s": (total.get("rect.harmonic_projection", 0.0), "s"),
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
