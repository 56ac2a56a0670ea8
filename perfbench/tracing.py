"""Spans around calls into the program's public functions.

The tracer replaces each listed function at every name a `proxdeblur`
module binds it to, so calls between modules are seen as well as calls from
the benchmark.  A span is (id, name, start, end, parent id, thread id,
round, tag); the parent is the innermost open span of the same thread.
Spans stay in memory until the run ends.
"""

import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# metric name -> (module, function names); dct2 and idct2 form one layer
TRACED = {
    "linop.gradient": ("linop", ("gradient",)),
    "linop.blur_apply": ("linop", ("blur_apply",)),
    "linop.blur_adjoint": ("linop", ("blur_adjoint",)),
    "linop.dct": ("linop", ("dct2", "idct2")),
    "linop.spectral_decompose": ("linop", ("spectral_decompose",)),
    "linop.lambda_max_AtA": ("linop", ("lambda_max_AtA",)),
    "weighting.spectral": ("weighting", ("apply_weighted_gradient_spectral",)),
    "weighting.nstep": ("weighting", ("apply_weighted_gradient_nstep",)),
    "weighting.build_filter": ("weighting", ("build_filter",)),
    "wavelet.prox_l1_wavelet": ("wavelet", ("prox_l1_wavelet",)),
    "wavelet.l1_norm_wavelet": ("wavelet", ("l1_norm_wavelet",)),
    "solvers.run_solver": ("solvers", ("run_solver",)),
    "solvers.efista_step": ("solvers", ("efista_step",)),
    "experiments.synthetic_image": ("experiments", ("synthetic_image",)),
    "experiments.default_threshold_scale": ("experiments", ("default_threshold_scale",)),
    "pgmio.read_pgm": ("pgmio", ("read_pgm",)),
    "pgmio.write_pgm": ("pgmio", ("write_pgm",)),
    "cli.main": ("cli", ("main",)),
}

# setup functions whose repeated inputs the useful ratio counts
DEDUP = ("linop.spectral_decompose", "linop.lambda_max_AtA")
STEP = "solvers.efista_step"
VARIANTS = ("ista", "fista", "efista")


def _input_key(args, kwargs):
    """Hashable summary of a call's inputs: kernel taps, shapes and scalars."""
    key = []
    for a in list(args) + [kwargs[k] for k in sorted(kwargs)]:
        taps = getattr(a, "taps", None)
        if taps is not None:
            key.append(np.asarray(taps).tobytes())
        elif isinstance(a, np.ndarray):
            key.append((a.shape, a.tobytes()))
        else:
            key.append(repr(a))
    return tuple(key)


def _variant(args, kwargs):
    for a in list(args) + list(kwargs.values()):
        v = getattr(a, "variant", None)
        if v is not None:
            return getattr(v, "value", str(v))
    return "unknown"


class Tracer:
    """Installs span-recording wrappers into the loaded `proxdeblur` modules."""

    def __init__(self):
        self.spans = []
        self.round = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def install(self):
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "proxdeblur" or name.startswith("proxdeblur."))}
        wrappers = {}
        for metric, (mod, funcs) in TRACED.items():
            home = mods.get(f"proxdeblur.{mod}")
            for fname in funcs:
                fn = getattr(home, fname, None)
                if callable(fn):
                    wrappers[id(fn)] = self._wrap(metric, fn)
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._undo.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def _wrap(self, metric, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        tagger = _input_key if metric in DEDUP else _variant if metric == STEP else None

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tag = tagger(args, kwargs) if tagger else None
                spans.append((sid, metric, start, end, parent, threading.get_ident(),
                              self.round, tag))

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path):
        """Write the spans as JSON lines (the tag is kept only for step variants)."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, metric, start, end, parent, thread, rnd, tag in self.spans:
                f.write(json.dumps({
                    "id": sid, "name": metric, "start": start, "end": end,
                    "parent": parent, "thread": thread, "round": rnd,
                    "variant": tag if metric == STEP else None}) + "\n")

    def summary(self, rounds):
        """Per-round calls and self seconds per layer, step medians, useful ratios.

        Self time is a span's duration minus the spans it opened on its own
        thread, summed over threads.
        """
        child = defaultdict(float)
        for sid, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        steps = defaultdict(list)
        keys = defaultdict(lambda: defaultdict(list))
        for sid, metric, start, end, _, _, rnd, tag in self.spans:
            calls[metric] += 1
            self_s[metric] += end - start - child[sid]
            if metric == STEP:
                steps[tag].append(end - start)
            elif metric in DEDUP:
                keys[metric][rnd].append(tag)
        out = {}
        for metric in TRACED:
            out[f"{metric}.calls"] = calls[metric] / rounds
            out[f"{metric}.self_s"] = self_s[metric] / rounds
        for v in VARIANTS:
            out[f"solvers.step_ms.{v}"] = 1e3 * statistics.median(steps[v]) if steps[v] else 0.0
        for metric in DEDUP:
            ratios = [len(set(tags)) / len(tags) for tags in keys[metric].values()]
            out[f"{metric}.useful_ratio"] = statistics.median(ratios) if ratios else 1.0
        return out
