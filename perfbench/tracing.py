"""Outside-in tracing of the package's layers.

`Tracer.install` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, unit id, work count), in every package
module namespace that holds the function, and traced methods on their class.
`Tracer.uninstall` puts the originals back.  Spans stay in memory until
`write` dumps them; `layer_metrics` folds them into the per-layer metrics.

Only layer boundaries are traced.  Helpers called once per element
(`SeededRng.randint`) or inside another traced call (`forward`,
`hypothesized_labels`) are left alone, so their time is self time of the
traced caller and the wrappers stay cheap.
"""

from __future__ import annotations

import functools
import json
import sys
import time


# (module, function or "Class.method", span name, work count from the call's arguments)
TRACED = [
    ("numerics", "SeededRng.shuffle", "numerics.shuffle", lambda self, items: len(items)),
    ("numerics", "SeededRng.choice_no_replace", "numerics.choice_no_replace",
     lambda self, n, k: k),
    ("data", "gen_synthetic", "data.gen_synthetic", None),
    ("data", "split", "data.split", None),
    ("data", "inject_label_noise", "data.inject_label_noise", None),
    ("data", "inject_class_imbalance", "data.inject_class_imbalance", None),
    ("data", "standardize", "data.standardize", None),
    ("models", "sgd_epoch", "models.sgd_epoch", lambda params, ds, subset, *a, **k: len(subset)),
    ("models", "grad_full", "models.grad_full", lambda params, x, *a, **k: len(x)),
    ("models", "last_layer_per_sample_grads", "models.last_layer_per_sample_grads",
     lambda params, x, *a, **k: len(x)),
    ("models", "loss_value", "models.loss_value", lambda params, x, *a, **k: len(x)),
    ("models", "accuracy", "models.accuracy", lambda params, ds: ds.n),
    ("core", "greedy_dss", "core.greedy_dss",
     lambda train, val, params, cfg, candidates=None, **k:
         train.n if candidates is None else len(candidates)),
    ("core", "make_gain_state", "core.make_gain_state", None),
    ("core", "GainState.refresh", "core.refresh", lambda self, val: len(self.cand_features)),
    ("core", "GainState.add", "core.fold", lambda self, positions: len(positions)),
    ("core", "glister_online_train", "core.online_loop", None),
    ("submodular", "facility_location", "submodular.facility_location",
     lambda features, *a, **k: len(features)),
    ("submodular", "cross_facility_location", "submodular.facility_location",
     lambda ground_features, *a, **k: len(ground_features)),
    ("submodular", "lazy_greedy", "submodular.lazy_greedy", lambda f, k, *a, **kw: k),
    ("baselines", "craig_subset", "baselines.craig_subset", None),
    ("baselines", "knn_submod_subset", "baselines.knn_submod_subset", None),
    ("active", "run_active", "active.run_active", None),
    ("active", "fass_acquire", "active.fass_acquire", None),
    ("experiments", "run_cell", "experiments.run_cell", None),
    ("experiments", "build_datasets", "experiments.build_datasets", None),
    ("experiments", "trace_to_csv", "experiments.trace_to_csv", None),
]

# spans whose loss/accuracy calls are per-epoch evaluation, not selection work
TRAINING_LOOPS = {"core.online_loop", "experiments.run_cell", "active.run_active"}
EVAL_SPANS = {"models.loss_value", "models.accuracy"}

# every per-layer metric: name -> unit
LAYER_UNITS = {
    "numerics.shuffle.calls": "count",
    "numerics.shuffle.items": "count",
    "numerics.shuffle.self_s": "s",
    "numerics.shuffle.us_per_item": "us",
    "numerics.choice_no_replace.calls": "count",
    "numerics.choice_no_replace.items": "count",
    "numerics.choice_no_replace.self_s": "s",
    "data.calls": "count",
    "data.total_s": "s",
    "models.sgd_epoch.calls": "count",
    "models.sgd_epoch.samples": "count",
    "models.sgd_epoch.self_s": "s",
    "models.sgd_epoch.us_per_sample": "us",
    "models.grad_full.calls": "count",
    "models.grad_full.rows": "count",
    "models.grad_full.self_s": "s",
    "models.last_layer_per_sample_grads.calls": "count",
    "models.last_layer_per_sample_grads.rows": "count",
    "models.last_layer_per_sample_grads.self_s": "s",
    "models.eval.calls": "count",
    "models.eval.rows": "count",
    "models.eval.self_s": "s",
    "core.greedy_dss.calls": "count",
    "core.greedy_dss.candidates": "count",
    "core.greedy_dss.total_s": "s",
    "core.greedy_dss.self_s": "s",
    "core.make_gain_state.calls": "count",
    "core.make_gain_state.total_s": "s",
    "core.refresh.calls": "count",
    "core.refresh.total_s": "s",
    "core.refresh.rows_per_pick": "ratio",
    "core.fold.calls": "count",
    "core.fold.rows": "count",
    "core.fold.self_s": "s",
    "core.online_loop.self_s": "s",
    "submodular.facility_location.calls": "count",
    "submodular.facility_location.ground": "count",
    "submodular.facility_location.self_s": "s",
    "submodular.lazy_greedy.calls": "count",
    "submodular.lazy_greedy.k": "count",
    "submodular.lazy_greedy.self_s": "s",
    "baselines.craig_subset.calls": "count",
    "baselines.craig_subset.total_s": "s",
    "baselines.craig_subset.self_s": "s",
    "baselines.knn_submod_subset.calls": "count",
    "baselines.knn_submod_subset.total_s": "s",
    "active.run_active.self_s": "s",
    "active.fass_acquire.calls": "count",
    "active.fass_acquire.total_s": "s",
    "experiments.run_cell.self_s": "s",
    "experiments.build_datasets.total_s": "s",
    "experiments.trace_to_csv.calls": "count",
    "experiments.trace_to_csv.self_s": "s",
}


class Tracer:
    """Span recorder for one unit; single-threaded, spans nest strictly."""

    def __init__(self, unit_id: str):
        self.unit_id = unit_id
        self.spans: list[list] = []  # [name, start, end, parent index, count]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    count(*args, **kwargs) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every traced function in every loaded package module that
        holds it (e.g. `glister.core.sgd_epoch` and `glister.active.sgd_epoch`)."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "glister" or name.startswith("glister."))]
        for module_name, attr, span_name, count in TRACED:
            module = sys.modules[f"glister.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(span_name, cls.__dict__[meth], count))
                continue
            original = getattr(module, attr)
            traced = self._wrap(span_name, original, count)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Dump the spans as JSON lines: name, start, end, parent, unit, count."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "unit": self.unit_id,
                                     "count": count}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics; a span's self time is its duration minus the
        durations of its direct child spans."""
        dur, self_s = self._times()
        agg: dict[str, dict[str, float]] = {}

        def add(key: str, i: int) -> None:
            a = agg.setdefault(key, {"calls": 0, "count": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["count"] += self.spans[i][4]
            a["total_s"] += dur[i]
            a["self_s"] += self_s[i]

        for i, (name, _, _, parent, _) in enumerate(self.spans):
            add(name, i)
            if name.startswith("data.") and (parent < 0 or not self.spans[parent][0].startswith("data.")):
                add("data", i)
            if name in EVAL_SPANS and parent >= 0 and self.spans[parent][0] in TRAINING_LOOPS:
                add("models.eval", i)

        def get(key: str, stat: str) -> float:
            return agg.get(key, {}).get(stat, 0)

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        out = {}
        for metric in LAYER_UNITS:
            key, stat = metric.rsplit(".", 1)
            if stat in ("calls", "total_s", "self_s"):
                out[metric] = get(key, stat)
            elif stat in ("items", "samples", "rows", "candidates", "ground", "k"):
                out[metric] = get(key, "count")
        out["numerics.shuffle.us_per_item"] = per(
            get("numerics.shuffle", "self_s"), get("numerics.shuffle", "count"), 1e6)
        out["models.sgd_epoch.us_per_sample"] = per(
            get("models.sgd_epoch", "self_s"), get("models.sgd_epoch", "count"), 1e6)
        out["core.refresh.rows_per_pick"] = per(
            get("core.refresh", "count"), get("core.fold", "count"))
        return out

    def _times(self) -> tuple[list[float], list[float]]:
        """Duration and self time of every span."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        self_s = list(dur)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                self_s[span[3]] -= dur[i]
        return dur, self_s

    def top_self(self) -> list[tuple[str, float]]:
        """Span names ordered by summed self time, largest first."""
        totals: dict[str, float] = {}
        for span, s in zip(self.spans, self._times()[1]):
            totals[span[0]] = totals.get(span[0], 0.0) + s
        return sorted(totals.items(), key=lambda kv: -kv[1])
