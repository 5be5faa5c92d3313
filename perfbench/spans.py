"""Run one ppfilt command with a span around every public function of its layers.

Usage: python3 perfbench/spans.py SPANS.json <ppfilt arguments...>

Each public function of the layer modules is replaced, at every name a
ppfilt module binds it to, by a wrapper that records a span (name, parent
span, start, end).  The callers look these names up at call time, so the
program runs unchanged apart from the wrappers.  Spans stay in memory until
the command returns; then they are written to SPANS.json together with the
command's exit code and the thread count read back from each bundled
OpenBLAS copy.  tracemalloc runs only inside inference.fisher_hat.

layer_metrics() turns the spans of one command into per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

LAYERS = (
    "events", "design", "sparse", "kernels", "splines",
    "objective", "optimize", "inference", "model", "simulate",
)


class Tracer:
    """In-memory span recorder; spans[i] = [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.extras: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            if name == "inference.fisher_hat":
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if name == "inference.fisher_hat":
                    self.extras[idx] = {"alloc_peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if observe is not None:
                self.extras[idx] = observe(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions everywhere ppfilt binds them."""
        layers = {layer: importlib.import_module(f"ppfilt.{layer}") for layer in LAYERS}
        modules = [m for n, m in list(sys.modules.items()) if n == "ppfilt" or n.startswith("ppfilt.")]
        for layer, module in layers.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for bound, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, bound, wrapped)


def _design_bytes(ctx) -> dict:
    d = ctx.design
    return {"design_bytes": int(d.row_ptr.nbytes + d.col_idx.nbytes + d.values.nbytes)}


def _optim_result(result) -> dict:
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


_OBSERVERS = {
    "model.build_context": _design_bytes,
    "optimize.minimize": _optim_result,
}


# -- aggregation --------------------------------------------------------------

# Per-layer metrics, each computed from the spans of one command.
SELF_TIME_SETS = {
    "events.grid_s": ("events.make_time_grid",),
    "design.build_h_s": ("design.build_h",),
    "design.build_z_s": ("design.build_z", "design.build_z_direct"),
    "sparse.assemble_s": ("sparse.from_triplets", "sparse.vstack"),
    "sparse.product_s": ("sparse.spmv", "sparse.spmv_t"),
    "inference.fisher_s": ("inference.fisher_hat",),
}
SELF_TIME_LAYERS = {
    "kernels.factor_s": "kernels.",
    "splines.factor_s": "splines.",
    "optimize.self_s": "optimize.",
}
VALUE_GRAD = "objective.penalized_value_and_grad"
MIB = float(1 << 20)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer figures of one traced command (see the benchmark README).

    A span's self time is its duration minus the durations of its direct
    children, so each second is counted once, in the innermost wrapped
    function that was running.
    """
    spans = doc["spans"]
    extras = {int(k): v for k, v in doc["extras"].items()}
    n = len(spans)
    names = [s[0] for s in spans]
    parents = [s[1] for s in spans]
    durations = [s[3] - s[2] for s in spans]
    self_time = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            self_time[parent] -= durations[i]

    def under(i: int, ancestor: str) -> bool:
        p = parents[i]
        while p >= 0:
            if names[p] == ancestor:
                return True
            p = parents[p]
        return False

    out: dict[str, float] = {}
    for metric, fns in SELF_TIME_SETS.items():
        out[metric] = sum(self_time[i] for i in range(n) if names[i] in fns)
    for metric, prefix in SELF_TIME_LAYERS.items():
        out[metric] = sum(self_time[i] for i in range(n) if names[i].startswith(prefix))

    evals = [i for i in range(n) if names[i] == VALUE_GRAD]
    products = sum(
        1 for i in range(n)
        if names[i] in ("sparse.spmv", "sparse.spmv_t") and under(i, VALUE_GRAD)
    )
    iterations = sum(e.get("iterations", 0) for e in extras.values())
    optimizer_evals = sum(1 for i in evals if under(i, "optimize.minimize"))
    out["sparse.design_mb"] = max((e.get("design_bytes", 0) for e in extras.values()), default=0) / MIB
    out["sparse.products_per_eval"] = products / len(evals) if evals else 0.0
    out["objective.value_grad_calls"] = float(len(evals))
    out["objective.value_grad_ms"] = 1e3 * sum(durations[i] for i in evals) / len(evals) if evals else 0.0
    out["optimize.evals_per_iteration"] = optimizer_evals / iterations if iterations else 0.0
    out["inference.fisher_alloc_mb"] = max(
        (e.get("alloc_peak_bytes", 0) for e in extras.values()), default=0
    ) / MIB
    contexts = [i for i in range(n) if names[i] == "model.build_context"]
    out["model.build_context_calls"] = float(len(contexts))
    out["model.build_context_s"] = sum(durations[i] for i in contexts)
    out["simulate.trials_s"] = sum(durations[i] for i in range(n) if names[i] == "simulate.simulate_trials")
    return out


def main(argv: list[str]) -> int:
    import envinfo

    if len(argv) < 2:
        print("usage: spans.py SPANS.json <ppfilt arguments...>", file=sys.stderr)
        return 1
    spans_path, args = argv[0], argv[1:]
    import ppfilt.cli

    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = ppfilt.cli.main(args)
    finally:  # written also when the command raises, so its spans are kept
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "exit": code,
                    "blas_threads": envinfo.openblas_threads(),
                    "spans": tracer.spans,
                    "extras": tracer.extras,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
