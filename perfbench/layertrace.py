"""Per-layer attribution by wrapping the public callables of caseline.

A layer is one module of ``src/caseline``.  ``Tracer.install`` wraps
every public function defined in a layer module and every public
method of the classes defined there, and rebinds each wrapped function
under every name that any loaded ``caseline`` module holds for it.
That matters because the modules bind names with ``from .x import y``:
``caseline.model.retrieve_precedents`` is a separate binding from
``caseline.retrieval.retrieve_precedents``, and a call goes through the
caller's binding.  Methods are patched on their class.

Each wrapper records calls, total time and self time (total minus the
time of wrapped calls made inside it).  A few wrappers also derive
counters from their arguments or results (pool rows scored, optimizer
elements, store bytes, epochs, ablation cells); the time spent deriving
them is excluded from every open span, so the counters do not inflate
the layer times.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "corpus", "synthetic", "features", "encoder", "optim",
          "store", "retrieval", "model", "metrics", "ablation")

STAGES = ("gen-drift", "ingest", "train-encoder", "embed", "index",
          "train", "predict", "evaluate", "ablate")

# Bytes one AdamW element update moves: reads param, grad, m, v and
# writes param, m, v, all float64.
ADAMW_BYTES_PER_ELEMENT = 7 * 8

# Every wrapper carries its span key under this attribute.
MARK = "__perfbench_key__"


def _span_key(layer: str, name: str) -> str:
    if layer == "cli" and name.startswith("cmd_"):
        return "cli." + name[4:].replace("_", "-")
    return f"{layer}.{name}"


class Tracer:
    """In-memory call statistics for the wrapped caseline callables."""

    def __init__(self):
        # "<stage> <key>" -> [calls, total seconds, self seconds]; the
        # stage is the CLI stage the call ran under, "-" outside one.
        self.spans: dict[str, list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.active = True
        self.stage = "-"
        self._child_time: list[float] = []
        self._excluded = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._seen_queries: set[tuple] = set()
        self._stores: dict[int, object] = {}
        self._hooks = {
            "optim.AdamW.step": self._count_adamw,
            "retrieval.retrieve_precedents": self._count_retrieval,
            "store.EmbeddingStore.save": self._count_store_bytes,
            "store.EmbeddingStore.load": self._count_store_bytes,
            "model.train_with_history": self._count_epochs,
            "ablation.run_ablation": self._count_cells,
        }

    # -------------------------------------------------------- statistics

    def reset(self) -> None:
        """Forget the statistics; installed wrappers stay."""
        self.spans.clear()
        self.counters.clear()
        self._seen_queries.clear()
        self._stores.clear()

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Copy of the additive statistics, keyed by table name."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters)}

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded, and their time is left out
        of every open span."""
        active, self.active = self.active, False
        start = time.perf_counter()
        try:
            yield
        finally:
            self.active = active
            self._excluded += time.perf_counter() - start

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every layer's public callables at their call sites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"caseline.{layer}")
                   for layer in LAYERS]
        bindings = [m for name, m in sorted(sys.modules.items())
                    if m is not None and (name == "caseline"
                                          or name.startswith("caseline."))]
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(
                        obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, _span_key(layer, name))
                    for mod in bindings:
                        for alias, value in list(vars(mod).items()):
                            if value is obj:
                                self._patch(mod, alias, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_methods(self, cls: type, prefix: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{prefix}.{name}"
            if isinstance(raw, classmethod):
                self._patch(cls, name,
                            classmethod(self._wrap(raw.__func__, key)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, name,
                            staticmethod(self._wrap(raw.__func__, key)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(raw, key))

    def _wrap(self, func, key: str):
        hook = self._hooks.get(key)
        signature = inspect.signature(func) if hook else None
        stage = key[4:] if key[4:] in STAGES and key.startswith("cli.") \
            else None
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            outer_stage = tracer.stage
            if stage is not None:
                tracer.stage = stage
            child = tracer._child_time
            child.append(0.0)
            excluded0 = tracer._excluded
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start - (tracer._excluded - excluded0)
                inner = child.pop()
                row = tracer.spans[f"{tracer.stage} {key}"]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - inner
                if child:
                    child[-1] += elapsed
                tracer.stage = outer_stage
            if hook is not None:
                hook_start = clock()
                hook(signature.bind(*args, **kwargs).arguments, result)
                tracer._excluded += clock() - hook_start
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        setattr(wrapper, MARK, key)
        return wrapper

    # ------------------------------------------------------------ counters

    def _count_adamw(self, args: dict, _result) -> None:
        opt, grads = args["self"], args["grads"]
        self.counters["optim.elements"] += sum(
            int(p.size) for p in opt.params.values())
        w1 = grads.get("w1") if isinstance(grads, dict) else None
        if getattr(w1, "ndim", 0) == 2:
            self.counters["optim.w1_rows_updated"] += w1.shape[0]
            self.counters["optim.w1_rows_nonzero"] += int(
                (w1 != 0.0).any(axis=1).sum())

    def _count_retrieval(self, args: dict, _result) -> None:
        rank = int(args["query_rank"])
        store, cfg = args["store"], args["cfg"]
        limit = args.get("candidate_limit")
        pool_end = rank if limit is None else min(rank, limit)
        self.counters["retrieval.pool_rows"] += pool_end
        # Stores are kept alive for the run so that their ids name
        # distinct embedding states.
        self._stores[id(store)] = store
        query = (id(store), rank, limit, cfg.k, cfg.alpha)
        if query in self._seen_queries:
            self.counters["retrieval.repeats"] += 1
        self._seen_queries.add(query)

    def _count_store_bytes(self, args: dict, _result) -> None:
        self.counters["store.bytes"] += os.path.getsize(args["path"])

    def _count_epochs(self, _args: dict, result) -> None:
        _, history = result
        self.counters["model.epochs"] += len(history["train_loss"])

    def _count_cells(self, _args: dict, result) -> None:
        self.counters["ablation.cells"] += len(result.rows)


def combine(setup: dict, iterations: dict, n_iterations: int) -> dict:
    """Statistics of one set-up plus one average timed iteration."""
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    for table, scale in ((setup, 1.0), (iterations, 1.0 / n_iterations)):
        for key, row in table["spans"].items():
            spans[key] = [a + b * scale for a, b in zip(spans[key], row)]
    counters = defaultdict(float, setup["counters"])
    for key, value in iterations["counters"].items():
        counters[key] += value / n_iterations
    return {"spans": dict(spans), "counters": counters}


def layer_metrics(stats: dict, overhead_share: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from combined
    statistics.  A callable that never ran reads 0."""
    calls, total, self_t = (defaultdict(float), defaultdict(float),
                            defaultdict(float))
    for span, (n, seconds, self_seconds) in stats["spans"].items():
        key = span.split(" ", 1)[1]
        calls[key] += n
        total[key] += seconds
        self_t[key] += self_seconds
    counters = stats["counters"]
    out: dict[str, float] = {}
    for stage in STAGES:
        out[f"cli.{stage}.s"] = total[f"cli.{stage}"]
    for metric, key, table in (
            ("corpus.load_corpus.s", "corpus.load_corpus", total),
            ("corpus.load_corpus.calls", "corpus.load_corpus", calls),
            ("synthetic.generate_drift_corpus.s",
             "synthetic.generate_drift_corpus", total),
            ("features.featurize.s", "features.featurize", total),
            ("features.featurize.calls", "features.featurize", calls),
            ("encoder.train_encoder.self_s", "encoder.train_encoder",
             self_t),
            ("encoder.info_nce_loss.s", "encoder.info_nce_loss", total),
            ("encoder.info_nce_loss.calls", "encoder.info_nce_loss",
             calls),
            ("encoder.encode.s", "encoder.encode", total),
            ("encoder.encode.calls", "encoder.encode", calls),
            ("optim.step.s", "optim.AdamW.step", total),
            ("optim.step.calls", "optim.AdamW.step", calls),
            ("store.save.s", "store.EmbeddingStore.save", total),
            ("store.load.s", "store.EmbeddingStore.load", total),
            ("retrieval.retrieve_precedents.s",
             "retrieval.retrieve_precedents", total),
            ("retrieval.retrieve_precedents.calls",
             "retrieval.retrieve_precedents", calls),
            ("model.train_with_history.self_s",
             "model.train_with_history", self_t),
            ("model.fuse_evidence.s", "model.fuse_evidence", total),
            ("model.forward.s", "model.forward", total),
            ("model.predict_with_evidence.self_s",
             "model.predict_with_evidence", self_t),
            ("model.evaluate_split.self_s", "model.evaluate_split",
             self_t),
            ("metrics.compute_report.s", "metrics.compute_report", total),
            ("ablation.run_ablation.self_s", "ablation.run_ablation",
             self_t)):
        out[metric] = table[key]
    out["optim.step.elements"] = counters["optim.elements"]
    out["optim.step.bytes"] = (counters["optim.elements"]
                               * ADAMW_BYTES_PER_ELEMENT)
    out["optim.w1_rows_touched_share"] = _share(
        counters["optim.w1_rows_nonzero"], counters["optim.w1_rows_updated"])
    out["store.bytes"] = counters["store.bytes"]
    retrieval_calls = calls["retrieval.retrieve_precedents"]
    out["retrieval.pool_rows"] = counters["retrieval.pool_rows"]
    out["retrieval.rows_per_s"] = _share(
        counters["retrieval.pool_rows"],
        total["retrieval.retrieve_precedents"])
    out["retrieval.repeat_share"] = _share(counters["retrieval.repeats"],
                                           retrieval_calls)
    out["model.epochs"] = _share(counters["model.epochs"],
                                 calls["model.train_with_history"])
    out["ablation.cells"] = counters["ablation.cells"]
    out["trace.overhead_share"] = overhead_share
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
