"""Run one qcoha command in this interpreter with spans around its layers.

    python perfbench/tracer.py spans|counts SUMMARY.json -- ARGV...

behaves like ``python -m qcoha ARGV...`` (same stdin, stdout and exit code)
and also writes a JSON summary of the layers it passed through.  ``spans``
wraps the public entry points of each module of ``qcoha`` and records one
span (name, parent, start, end) per call; ``counts`` wraps only
``QLaurent.__add__`` and ``__mul__``, with counters and no clock, because
timing millions of coefficient operations would swamp every other span.

Modules bind one another's functions with ``from .x import y``, so every
wrapper replaces the original object wherever a ``qcoha`` module (or the
suite registry) holds it.  Nothing in ``src/qcoha`` is changed on disk.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    """In-memory spans; a span's self time is its duration minus its children's."""

    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.stack = []
        self.counts = {}  # name -> summed count (terms, orientations, calls)

    def span(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, perf_counter())
                stack.pop()
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self):
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {}
        for (name, parent, start, end), inner in zip(self.spans, child):
            layer = layers.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
            layer["calls"] += 1
            layer["self_ms"] += (end - start - inner) * 1e3
            layer["total_ms"] += (end - start) * 1e3
        for name, value in self.counts.items():
            layers.setdefault(name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})["count"] = value
        return layers


def _replace(original, wrapper):
    """Point every reference a qcoha module holds to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "qcoha" or name.startswith("qcoha."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    suites = sys.modules["qcoha.suites"].SUITES
    for key, value in suites.items():
        if value is original:
            suites[key] = wrapper


def _terms(args, result):
    return len(result)


def _orientations(args, result):
    return 1 << (len(args[0]) * len(args[1]))


def install_spans(tracer):
    import qcoha.kernel as kernel
    import qcoha.partition_algebra as pa
    import qcoha.serialization as ser
    import qcoha.shuffle_algebra as sh
    import qcoha.bipartite as bip
    import qcoha.suites as suites
    from qcoha.mpoly import MPoly

    targets = [
        (kernel, "structure_constants", "kernel.table_build", _terms),
        (kernel, "pairwise_kernel", "kernel.pairwise_kernel", None),
        (kernel, "verify_coefficient_identity", "kernel.identity", None),
        (pa, "product", "partition_algebra.product", _terms),
        (pa, "product_elements", "partition_algebra.product_elements", _terms),
        (sh, "shuffle_product", "shuffle_algebra.shuffle_product", None),
        (bip, "product_via_graphs", "bipartite.product_via_graphs", _orientations),
        (ser, "element_to_json", "serialization.element_to_json", None),
    ]
    # element-level renderers only: render_qlaurent_* runs once per
    # coefficient beneath them
    for attr in dir(ser):
        if attr.startswith("render_") and not attr.startswith("render_qlaurent"):
            kind = "text" if attr.endswith("_text") else "latex"
            targets.append((ser, attr, "serialization.render_" + kind, None))
    for suite, fn in list(suites.SUITES.items()):
        targets.append((suites, fn.__name__, "suites." + suite, lambda args, r: r.checked))
    for module, attr, name, count in targets:
        original = getattr(module, attr, None)
        if original is not None:
            _replace(original, tracer.span(name, original, count))
    MPoly.__mul__ = tracer.span("mpoly.mul", MPoly.__mul__)


def install_counts(tracer):
    from qcoha.qlaurent import QLaurent

    QLaurent.__add__ = tracer.counter("qlaurent.add", QLaurent.__add__)
    mul = tracer.counter("qlaurent.mul", QLaurent.__mul__)
    QLaurent.__mul__ = mul
    QLaurent.__rmul__ = mul


def _basis_cache():
    fn = getattr(sys.modules["qcoha.partition_algebra"], "_basis_product", None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    hits, misses, _, size = info()
    return {"hits": hits, "misses": misses, "size": size}


def main():
    if len(sys.argv) < 4 or sys.argv[1] not in ("spans", "counts") or sys.argv[3] != "--":
        sys.exit("usage: tracer.py spans|counts SUMMARY.json -- ARGV...")
    mode, summary_path, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    start = perf_counter()
    import qcoha.cli

    import_ms = (perf_counter() - start) * 1e3
    tracer = Tracer()
    (install_spans if mode == "spans" else install_counts)(tracer)
    cli_main = tracer.span("cli", qcoha.cli.main) if mode == "spans" else qcoha.cli.main
    status = cli_main(argv)
    sys.stdout.flush()
    summary = {"import_ms": import_ms, "layers": tracer.summary(), "basis_cache": _basis_cache()}
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    sys.exit(status)


if __name__ == "__main__":
    main()
