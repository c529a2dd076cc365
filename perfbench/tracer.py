"""In-memory tracer that instruments crossview from outside.

Public functions are wrapped at the names their consuming module imported
(for example ``crossview.cli.generate_scene`` or
``crossview.verification.label_scores``), so no file of the package is
edited. Two kinds of wrapper exist:

* ``SPAN`` records one span per call (name, start, end, parent span) for
  stages and scored pairs;
* ``COUNT`` keeps only calls, summed time and self time, for hot kernels
  that run tens of thousands of times.

Every wrapper pushes a frame on one stack, so each call's self time (its
duration minus the time of wrapped calls beneath it) is known without
post-processing. Spans are kept in memory and written by ``dump``.
"""

from __future__ import annotations

import importlib
import json
import time

SPAN = "span"
COUNT = "count"

# (module whose attribute is replaced, attribute, metric name, kind).
# The metric name's first component is the crossview module (layer) that
# defines the function, whatever module calls it.
INSTRUMENTS = (
    ("crossview.cli", "run_evaluation", "cli.run_evaluation", SPAN),
    ("crossview.cli", "write_report", "cli.write_report", SPAN),
    ("crossview.cli", "emit_plots", "cli.emit_plots", SPAN),
    ("crossview.cli", "load_scenario", "simulator.load_scenario", SPAN),
    ("crossview.cli", "generate_scene", "simulator.generate_scene", SPAN),
    ("crossview.simulator", "generate_scene", "simulator.generate_scene", SPAN),
    ("crossview.simulator", "ego_deltas_from_truth", "simulator.ego_deltas_from_truth", COUNT),
    ("crossview.simulator", "body_frame", "skeleton.body_frame", COUNT),
    ("crossview.simulator", "se3_compose", "geometry.se3_compose", COUNT),
    ("crossview.cli", "fit_codebook", "action_codebook.fit_codebook", SPAN),
    ("crossview.cli", "save_codebook", "action_codebook.save_codebook", SPAN),
    ("crossview.cli", "load_codebook", "action_codebook.load_codebook", SPAN),
    ("crossview.action_codebook", "load_codebook", "action_codebook.load_codebook", SPAN),
    ("crossview.cli", "localize", "verification.localize", SPAN),
    ("crossview.verification", "localize", "verification.localize", SPAN),
    ("crossview.verification", "verify_pair", "verification.verify_pair", SPAN),
    ("crossview.verification", "label_scores", "action_codebook.label_scores", COUNT),
    ("crossview.verification", "integrate_pose_deltas", "skeleton.integrate_pose_deltas", COUNT),
    ("crossview.verification", "body_frame", "skeleton.body_frame", COUNT),
    ("crossview.verification", "integrate_ego_motion", "motion.integrate_ego_motion", COUNT),
    ("crossview.verification", "trajectory_l1_loss", "motion.trajectory_l1_loss", COUNT),
    ("crossview.motion", "error_quaternion", "geometry.error_quaternion", COUNT),
    ("crossview.motion", "se3_compose", "geometry.se3_compose", COUNT),
    ("crossview.bayes_filter", "init_filter", "bayes_filter.init_filter", SPAN),
    ("crossview.bayes_filter", "predict", "bayes_filter.predict", SPAN),
    ("crossview.bayes_filter", "update", "bayes_filter.update", SPAN),
    ("crossview.bayes_filter", "map_identity", "bayes_filter.map_identity", SPAN),
)

# Spans of the five pipeline stages (generate, fit or load, score, filter,
# write); each is counted once, at its outermost occurrence, when checking
# that the stages cover the wall time.
STAGES = frozenset(
    {
        "simulator.load_scenario",
        "simulator.generate_scene",
        "action_codebook.fit_codebook",
        "action_codebook.load_codebook",
        "verification.localize",
        "bayes_filter.init_filter",
        "bayes_filter.predict",
        "bayes_filter.update",
        "bayes_filter.map_identity",
        "cli.write_report",
        "cli.emit_plots",
        "action_codebook.save_codebook",
    }
)


class Tracer:
    """Wraps the instrumented functions and records spans and counters.

    ``observers`` maps a metric name to ``callback(args, result)``, run after
    each successful call, for counts that need the call's values.
    """

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.spans = []  # [span_id, parent_id, name, start, end]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self._stack = []  # [span_id of the nearest span, child_s]
        self._patched = []

    def install(self):
        for module_name, attr, name, kind in INSTRUMENTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, kind))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _finish(self, name, start, end):
        frame = self._stack.pop()
        elapsed = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, fn, name, kind):
        stack = self._stack
        clock = time.perf_counter
        observer = self.observers.get(name)
        if kind == COUNT:

            def counted(*args, **kwargs):
                stack.append([stack[-1][0] if stack else None, 0.0])
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._finish(name, start, clock())

            return counted

        def spanned(*args, **kwargs):
            span_id = len(self.spans)
            record = [span_id, stack[-1][0] if stack else None, name, 0.0, 0.0]
            self.spans.append(record)
            stack.append([span_id, 0.0])
            start = record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[4] = clock()
                self._finish(name, start, end)
            if observer is not None:
                observer(args, result)
            return result

        return spanned

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (for a root such as cli.main)."""
        return self._wrap(fn, name, SPAN)(*args, **kwargs)

    def durations(self, name):
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def stage_seconds(self, start, end):
        """Summed duration of outermost stage spans inside [start, end]."""
        by_id = {s[0]: s for s in self.spans}

        def inside_stage(span):
            parent = span[1]
            while parent is not None:
                if by_id[parent][2] in STAGES:
                    return True
                parent = by_id[parent][1]
            return False

        return sum(
            s[4] - s[3]
            for s in self.spans
            if s[2] in STAGES and s[3] >= start and s[4] <= end and not inside_stage(s)
        )

    def layer_self_seconds(self):
        layers = {}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def dump(self, path, meta):
        payload = {
            "meta": meta,
            "stats": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in sorted(self.stats.items())},
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]} for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
