"""Span tracing from outside the program.

The tracer replaces, for the duration of a `with` block, the module
attributes through which the program's layers call one another (for
example `plasmalink.em.loss_and_gradients`, the name `em` imported from
`net`) with wrappers that record a span: name, start, end, parent span and
run id. Spans stay in memory and are written out once the run ends. Self
time is a span's duration minus the time its direct children cover; the
program runs in one thread, so children never overlap.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from time import perf_counter


def _rows(args, kwargs):
    """Batch rows of `f(model, y, ...)`: the length of the second argument."""
    y = args[1] if len(args) > 1 else kwargs["y"]
    return len(y)


# (module, attribute, span name, rows counter or None). Each attribute is the
# name a caller looks up at call time, so every call is seen exactly once.
PATCHES = (
    ("bench", "build_channel", "bench.build_channel", None),
    ("bench", "build_frame", "link.build_frame", None),
    ("bench", "transmit", "link.transmit", None),
    ("bench", "fit", "em.fit", None),
    ("bench", "extract_fading_curve", "em.extract_fading_curve", None),
    ("bench", "genie_ml", "baselines.genie_ml", None),
    ("bench", "pilot_interp_ml", "baselines.pilot_interp_ml", None),
    ("bench", "supervised_dnn", "baselines.supervised_dnn", None),
    ("em", "pretrain", "em.pretrain", None),
    ("em", "e_step", "em.e_step", None),
    ("em", "m_step", "em.m_step", None),
    ("em", "elbo", "em.elbo", None),
    ("em", "loss_and_gradients", "net.loss_and_gradients", _rows),
    ("em", "project_all", "net.project_all", _rows),
    ("net", "project_all", "net.project_all", _rows),
    ("em", "weighted_loss", "net.weighted_loss", _rows),
    ("em", "init_adam", "net.init_adam", None),
    ("em", "collect_params", "net.collect_params", None),
    ("em", "adam_step", "net.adam_step", None),
    ("em", "with_params", "net.with_params", None),
)

# span fields
NAME, START, END, PARENT, RUN, ROWS = range(6)


class Tracer:
    """In-memory span recorder; `run_id` tags the spans of one study call."""

    def __init__(self):
        self.spans = []
        self.fit_results = []  # (run id, FitResult) of every em.fit span
        self.run_id = 0
        self._stack = []

    def _open(self, name, rows):
        stack = self._stack
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1, self.run_id, rows])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name, 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, rows=None):
        def traced(*args, **kwargs):
            idx = self._open(name, rows(args, kwargs) if rows else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "em.fit":
                self.fit_results.append((self.run_id, result))
            return result
        return traced

    @contextmanager
    def installed(self, modules):
        """Patch every PATCHES entry in `modules` (short name -> module)."""
        saved = []
        try:
            for mod, attr, name, rows in PATCHES:
                module = modules[mod]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, rows))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def breakdown(self, run_id):
        """name -> {calls, rows, total_s, self_s} over one run's spans."""
        child = {}
        for s in self.spans:
            if s[RUN] == run_id and s[PARENT] >= 0:
                child[s[PARENT]] = (child.get(s[PARENT], 0.0)
                                    + s[END] - s[START])
        out = {}
        for idx, s in enumerate(self.spans):
            if s[RUN] != run_id:
                continue
            dur = s[END] - s[START]
            row = out.setdefault(s[NAME], {"calls": 0, "rows": 0,
                                           "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["rows"] += s[ROWS]
            row["total_s"] += dur
            row["self_s"] += dur - child.get(idx, 0.0)
        return out

    def dump(self, path) -> None:
        """Write every span as CSV: index, name, start, end, parent, run."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent",
                             "run", "rows"])
            for idx, s in enumerate(self.spans):
                writer.writerow([idx, s[NAME], f"{s[START]:.9f}",
                                 f"{s[END]:.9f}", s[PARENT], s[RUN], s[ROWS]])


def useful_iter_ratio(fit_results) -> float:
    """Share of EM iterations whose ELBO gain exceeds 1e-6 relative.

    The gain of EM iteration i is its post-E-step bound minus that of
    iteration i-1 (the pretraining record for i = 1), so it covers the
    previous M-step and this E-step.
    """
    useful = total = 0
    for _, result in fit_results:
        prev = result.trace[0].elbo_after_e
        for rec in result.trace[1:]:
            total += 1
            if rec.elbo_after_e - prev > 1e-6 * abs(prev):
                useful += 1
            prev = rec.elbo_after_e
    return useful / total if total else 0.0
