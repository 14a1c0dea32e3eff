"""Span tracing of the package from outside, for the traced run only.

`Tracer.install` replaces public functions of the package modules with
wrappers that record one span per call: name, start, end, parent span and
trial id. `Tracer.restore` puts the originals back. Spans stay in memory
until `save` writes them; every per-layer metric is then derived from
the saved file by `layer_metrics`.

A span name is `<layer>.<function>`, or just `<layer>` for a layer's
entry point (`cs_est`, `mo_est`); the layer is the package module that
owns the work.

Patch targets follow how the package binds its names:
- names imported with `from .x import y` are patched where they are
  called (`irsmimo.harness.cs_est`, `irsmimo.mo_est.cg_minimize`);
- `FixedRankManifold` and `CircleManifold` hold `retract` and `project`
  as staticmethods bound at class creation, so the class attributes are
  patched;
- `irsmimo/__init__.py` rebinds `irsmimo.cs_est` and `irsmimo.mo_est` to
  functions, so modules are looked up with `importlib.import_module`.
"""

import importlib
import inspect
import json
import time
from collections import defaultdict

# (module, class or None, attribute, span name)
PATCHES = [
    ("irsmimo.harness", None, "run_trial", "harness.run_trial"),
    ("irsmimo.harness", None, "sample_paths", "channel.sample_paths"),
    ("irsmimo.harness", None, "synth_channels", "channel.synth_channels"),
    ("irsmimo.harness", None, "make_pilots", "channel.make_pilots"),
    ("irsmimo.harness", None, "simulate_uplink", "channel.simulate_uplink"),
    ("irsmimo.harness", None, "build_dictionaries",
     "channel.build_dictionaries"),
    ("irsmimo.harness", None, "effective_channel",
     "channel.effective_channel"),
    ("irsmimo.wmmse", None, "effective_channel", "channel.effective_channel"),
    ("irsmimo.harness", None, "cs_est", "cs_est"),
    ("irsmimo.cs_est", None, "stage1_ue_aods", "cs_est.stage1"),
    ("irsmimo.cs_est", None, "stage2_bs_aoas", "cs_est.stage2"),
    ("irsmimo.cs_est", None, "stage3_gains", "cs_est.stage3"),
    ("irsmimo.cs_est", None, "omp_mmv", "cs_est.omp_mmv"),
    ("irsmimo.harness", None, "mo_est", "mo_est"),
    ("irsmimo.mo_est", None, "egrad_g", "mo_est.egrad_g"),
    ("irsmimo.mo_est", None, "egrad_h", "mo_est.egrad_h"),
    ("irsmimo.mo_est", None, "cg_minimize", "mo_est.cg_minimize"),
    ("irsmimo.manifold", "FixedRankManifold", "retract", "manifold.retract"),
    ("irsmimo.manifold", "FixedRankManifold", "project",
     "manifold.project_tangent"),
    ("irsmimo.manifold", None, "project_tangent", "manifold.project_tangent"),
    ("irsmimo.manifold", None, "transport", "manifold.transport"),
    ("irsmimo.manifold", "CircleManifold", "retract",
     "manifold.circle_retract"),
    ("irsmimo.manifold", "CircleManifold", "project",
     "manifold.circle_project"),
    ("irsmimo.manifold", None, "circle_project", "manifold.circle_project"),
    ("irsmimo.harness", None, "alt_wmmse", "wmmse.alt_wmmse"),
    ("irsmimo.wmmse", None, "cg_minimize", "wmmse.cg_minimize"),
    ("irsmimo.wmmse", None, "g1_objective", "wmmse.g1_objective"),
    ("irsmimo.wmmse", None, "egrad_v", "wmmse.egrad_v"),
    ("irsmimo.wmmse", None, "update_w_omega", "wmmse.update_w_omega"),
    ("irsmimo.wmmse", None, "update_f", "wmmse.update_f"),
    ("irsmimo.harness", None, "khatri_rao", "numerics.khatri_rao"),
    ("irsmimo.channel", None, "khatri_rao", "numerics.khatri_rao"),
]


def _cg_attrs(args, out):
    return {"accepted": len(out.trace) - 1}


def _sense_bytes(args, out):
    # Computed, not measured: rows x cols x 16 bytes of complex128.
    n_bs, t = args["pilots"].r.shape
    cols = (args["dicts"].a_i.shape[1] * args["a_ue_bar"].shape[1]
            * args["a_bs_bar"].shape[1])
    return {"sense_bytes": n_bs * t * cols * 16}


# Span name -> (bound arguments, return value) -> attributes of the span.
ATTRS = {
    "cs_est": lambda args, out: {"flops": out.flops["total"]},
    "cs_est.stage3": _sense_bytes,
    "mo_est": lambda args, out: {
        "iters": out.iterations, "stalled": bool(out.stalled),
        "cap": out.iterations == args["cfg"].max_outer},
    "mo_est.cg_minimize": _cg_attrs,
    "wmmse.alt_wmmse": lambda args, out: {
        "iters": out.iterations, "cap": out.iterations == args["max_outer"]},
    "wmmse.cg_minimize": _cg_attrs,
}

LAYERS = ("harness", "channel", "cs_est", "mo_est", "manifold", "wmmse",
          "numerics")


class Tracer:
    """Records spans of wrapped package calls. Set `trial` to the current
    trial id before each trial; spans are `[name, start, end, parent,
    trial, attrs]` with `parent` an index into `spans` or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial: int = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.trial, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = attrs(bound.arguments, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in PATCHES; restore() undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module, cls, attr, name in PATCHES:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                    original = vars(owner)[attr]
                    wrapped = staticmethod(self._wrap(name, original.__func__))
                else:
                    original = getattr(owner, attr)
                    wrapped = self._wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original attribute back, last patched first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path, trials: list) -> None:
        """Write `{"trials": [...], "spans": [...]}` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trials": trials, "spans": self.spans}, fh,
                      separators=(",", ":"))


def patched_originals() -> list[tuple[str, object]]:
    """(target, current raw attribute) for every patch target, to compare
    before and after tracing."""
    out = []
    for module, cls, attr, _ in PATCHES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        out.append((f"{module}:{cls or ''}.{attr}", vars(owner)[attr]))
    return out


def load(path) -> tuple[list, list]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["trials"], data["spans"]


def check_nesting(spans: list) -> list[str]:
    """Problems with the span tree: every span must lie inside its parent,
    share its trial id, and descend from a `harness.run_trial` span."""
    problems = []
    for i, (name, start, end, parent, trial, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent < 0:
            if name != "harness.run_trial":
                problems.append(f"span {i} {name} is outside any trial")
            continue
        p_name, p_start, p_end, _, p_trial, _ = spans[parent]
        if parent >= i or p_trial != trial:
            problems.append(f"span {i} {name} has a foreign parent")
        elif not p_start <= start <= end <= p_end:
            problems.append(f"span {i} {name} leaves its parent {p_name}")
    return problems


def layer_metrics(spans: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics `{name: (value, unit)}` derived from spans.

    `<span>.calls` and `<span>.busy_s` per wrapped function;
    `<layer>.busy_s` counts spans with no ancestor in the same layer, so
    re-entry is not counted twice; `<layer>.self_s` subtracts the time
    covered by child spans; `<layer>.share` is busy time over
    `harness.run_trial` busy time.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    calls = dict.fromkeys((name for *_, name in PATCHES), 0)
    busy = dict.fromkeys(calls, 0.0)
    layer_busy = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    attrs = defaultdict(list)
    for i, (name, start, end, parent, _, attr) in enumerate(spans):
        layer = name.split(".")[0]
        dur = end - start
        calls[name] += 1
        busy[name] += dur
        layer_self[layer] += dur - child_s[i]
        while parent >= 0 and spans[parent][0].split(".")[0] != layer:
            parent = spans[parent][3]
        if parent < 0:
            layer_busy[layer] += dur
        if attr is not None:
            attrs[name].append(attr)

    out = {}
    for name in calls:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.busy_s"] = (busy[name], "s")
    trial_s = busy["harness.run_trial"]
    # `cs_est` and `mo_est` name both an entry function and its layer; the
    # entry is the layer's only top-level span, so the two busy_s agree.
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
        if layer != "harness":
            out[f"{layer}.busy_s"] = (layer_busy[layer], "s")
            out[f"{layer}.share"] = (_ratio(layer_busy[layer], trial_s),
                                     "ratio")
    out["wmmse.closed_forms.busy_s"] = (
        busy["wmmse.update_w_omega"] + busy["wmmse.update_f"], "s")

    def mean(name, key):
        vals = [a[key] for a in attrs[name]]
        return sum(vals) / len(vals) if vals else 0.0

    out["cs_est.flops"] = (sum(a["flops"] for a in attrs["cs_est"]), "flop")
    out["cs_est.stage3.sense_bytes"] = (
        max((a["sense_bytes"] for a in attrs["cs_est.stage3"]), default=0),
        "bytes")
    out["mo_est.outer_iters"] = (mean("mo_est", "iters"), "iters/call")
    out["mo_est.cap_hit_share"] = (mean("mo_est", "cap"), "ratio")
    out["mo_est.stalled_share"] = (mean("mo_est", "stalled"), "ratio")
    out["wmmse.outer_iters"] = (mean("wmmse.alt_wmmse", "iters"),
                                "iters/call")
    out["wmmse.cap_hit_share"] = (mean("wmmse.alt_wmmse", "cap"), "ratio")
    out["manifold.fr.accept_ratio"] = (_ratio(
        sum(a["accepted"] for a in attrs["mo_est.cg_minimize"]),
        calls["manifold.retract"]), "ratio")
    out["manifold.circle.accept_ratio"] = (_ratio(
        sum(a["accepted"] for a in attrs["wmmse.cg_minimize"]),
        calls["manifold.circle_retract"]), "ratio")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
