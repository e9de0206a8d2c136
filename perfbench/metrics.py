"""End-to-end and per-layer metrics computed from a recorder's spans.

Timing rule for the end-to-end metrics.  Rounds repeat the same calls, so
the start and end of every recorded span fall in the same order in every
round.  Those events cut a round into short segments (one training
iteration is cut at its ``solve`` and ``backward``); each segment's time is
its fastest repeat across the rounds, and a call's time is the sum of the
segments it spans.  Other tenants of the machine only ever add time: on the
shared two-vCPU hosts this benchmark was built on they slow the same code
by up to 1.8x for stretches of 0.5-4 s, which moved per-call medians by 25%
and per-call minima of half-second calls by 17% between runs, while
millisecond segments keep a fast repeat in almost every run.  ``setup_s``
is the median of the run's set-ups, which are spread over the run.
"""

from __future__ import annotations

import math
import resource
from collections import Counter

import numpy as np

TRAIN_NAMES = ("training.train_s4s", "training.train_s4s_alt")
FAMILY_KINDS = ("lms", "pc", "ss")

# Per-layer spans reported as "<name>.calls" and "<name>.self_s".
LAYER_TIMERS = (
    "scores.epsilon", "scores.epsilon_vjp", "scores.time_partial",
    "schedules.time_from_lambda",
    "grids.heuristic_grid", "grids.materialize", "grids.grid_gradient_vjp",
    "coeffs.init_preset",
    "solvers.solve", "solvers.wrapper_factors",
    "backprop.backward",
    "training.adam_step", "training.project_ball", "training.evaluate",
    "teachers.teacher_solve",
    "experiments.run_cell",
)
SCORE_NAMES = ("scores.epsilon", "scores.epsilon_vjp", "scores.time_partial")


def _segments(rec, runs):
    """{run: (first span index, end index)} for the given rounds."""
    bounds = sorted(rec.run_start.items())
    out = {}
    for pos, (run, start) in enumerate(bounds):
        if run in runs:
            end = bounds[pos + 1][1] if pos + 1 < len(bounds) else len(rec.spans)
            out[run] = (start, end)
    return out


class Timeline:
    """Fastest-repeat times of the segments between span events, over rounds.

    ``duration(i)`` estimates span ``i`` of the first round; ``wall`` the
    whole round.  With ``names``, only spans of those names cut the rounds,
    so rounds traced finely can be timed at the grain of coarser ones (finer
    segments have faster fastest repeats).  Raises ValueError if the rounds
    did not make the same calls.
    """

    def __init__(self, rec, runs, names=None):
        self.rec = rec
        spans = rec.spans
        order, fastest = None, None
        for start, end in _segments(rec, runs).values():
            cut = [i for i in range(start, end) if names is None or spans[i][0] in names]
            events = sorted([(spans[i][1], i - start, 0) for i in cut]
                            + [(spans[i][2], i - start, 1) for i in cut])
            shape = [(spans[start + i][0], i, kind) for _, i, kind in events]
            times = np.array([t for t, _, _ in events])
            if order is None:
                order, fastest, self.first, self.end = shape, np.diff(times), start, end
            elif shape != order:
                raise ValueError("rounds made different calls")
            else:
                fastest = np.minimum(fastest, np.diff(times))
        self.at = np.concatenate([[0.0], np.cumsum(fastest)])
        self.position = {(i, kind): p for p, (_, i, kind) in enumerate(order)}
        self.wall = float(self.at[-1])

    def duration(self, index):
        i = index - self.first
        return float(self.at[self.position[i, 1]] - self.at[self.position[i, 0]])

    def spans(self, name):
        """(index, span) of the first round's spans with this name."""
        spans = self.rec.spans
        return [(i, spans[i]) for i in range(self.first, self.end) if spans[i][0] == name]


def end_to_end(rec, runs, results, setup_times):
    line = Timeline(rec, runs)
    trains = [(line.duration(i), s[5]["iters"]) for name in TRAIN_NAMES
              for i, s in line.spans(name)]
    teachers = [(line.duration(i), s[5]["records"])
                for i, s in line.spans("teachers.generate_dataset")]
    fastest = {}         # a batch solved in several passes keeps its fastest time
    for i, s in line.spans("sample"):
        key = s[5]["key"]
        fastest[key] = min(fastest.get(key, math.inf), line.duration(i) * 1e3)
    samples = list(fastest.values())
    errors = results[0].errors
    return {
        "setup_s": (float(np.median(setup_times)), "s"),
        "wall_s": (line.wall, "s"),
        "train_iters_per_s": (sum(n for _, n in trains) / sum(d for d, _ in trains), "iter/s"),
        "teacher_records_per_s": (sum(n for _, n in teachers) / sum(d for d, _ in teachers),
                                  "rec/s"),
        "solve_ms_p50": (float(np.percentile(samples, 50)), "ms"),
        "solve_ms_p90": (float(np.percentile(samples, 90)), "ms"),
        "eval_error_gmean": (math.exp(float(np.mean(np.log(errors)))), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(samples)


def per_layer(rec, runs, results, overhead_frac):
    """Per-round totals over the traced rounds."""
    spans = rec.spans
    n = len(runs)
    calls, self_s, rows, extra = Counter(), Counter(), Counter(), Counter()
    solve_ms, solve_nfe = Counter(), Counter()
    backward_s, paired_solve_s = Counter(), Counter()
    score_in_backward = backward_nfe = 0
    teacher_eps_rows = 0
    for start, end in _segments(rec, runs).values():
        child = Counter()
        for i in range(start + 1, end):
            s = spans[i]
            child[s[3]] += s[2] - s[1]
        # which enclosing spans each span sits in, by index (parents come first)
        within = {start: frozenset()}
        for i in range(start + 1, end):
            name, t0, t1, parent, _, note = spans[i]
            pname = spans[parent][0]
            within[i] = within[parent] | {pname} if pname in (
                "backprop.backward", "teachers.teacher_solve", "experiments.run_cell") \
                else within[parent]
            dur = t1 - t0
            calls[name] += 1
            self_s[name] += dur - child[i]
            note = note or {}
            rows[name] += note.get("rows", 0)
            extra[name + ".bytes"] += note.get("bytes", 0)
            if name in SCORE_NAMES and "backprop.backward" in within[i]:
                score_in_backward += 1
            if name == "scores.epsilon" and "teachers.teacher_solve" in within[i]:
                teacher_eps_rows += note.get("rows", 0)
            if name == "solvers.solve":
                if note.get("error") == "DivergenceError":
                    extra["divergences"] += 1
                elif "kind" in note:
                    solve_ms[note["kind"]] += dur * 1e3
                    solve_nfe[note["kind"]] += note["nfe"]
            elif name == "backprop.backward" and "kind" in note:
                backward_nfe += note["nfe"]
                if note["solve"] >= 0:
                    solve = spans[note["solve"]]
                    backward_s[note["kind"]] += dur
                    paired_solve_s[note["kind"]] += solve[2] - solve[1]
            elif name in TRAIN_NAMES and note.get("status", "ok") != "ok":
                extra["diverged_runs"] += 1
            elif name == "experiments.run_cell":
                if note.get("status") == "failed":
                    extra["cells_failed"] += 1
            elif name == "teachers.load_dataset" and "experiments.run_cell" in within[i]:
                extra["cache_hits"] += 1
            elif name == "teachers.generate_dataset" and "experiments.run_cell" in within[i]:
                extra["cache_misses"] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in LAYER_TIMERS:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.self_s"] = (self_s[name] / n, "s")
    out["scores.epsilon.rows"] = (rows["scores.epsilon"] / n, "count")
    out["scores.calls_per_backward_eval"] = (ratio(score_in_backward, backward_nfe), "1")
    for kind in FAMILY_KINDS:
        out[f"solvers.ms_per_nfe.{kind}"] = (ratio(solve_ms[kind], solve_nfe[kind]), "ms")
    out["solvers.divergences"] = (extra["divergences"] / n, "count")
    for kind in FAMILY_KINDS:
        out[f"backprop.backward_over_solve.{kind}"] = (
            ratio(backward_s[kind], paired_solve_s[kind]), "1")
    out["training.diverged_runs"] = (extra["diverged_runs"] / n, "count")
    out["training.worse_than_init"] = (sum(r.worse_than_init for r in results) / len(results), "count")
    out["teachers.teacher_solve.rows"] = (rows["teachers.teacher_solve"] / n, "count")
    out["teachers.rhs_evals_per_record"] = (
        ratio(teacher_eps_rows, rows["teachers.teacher_solve"]), "1")
    for name in ("teachers.save_dataset", "teachers.load_dataset"):
        out[f"{name}.bytes"] = (extra[name + ".bytes"] / n, "bytes")
        out[f"{name}.self_s"] = (self_s[name] / n, "s")
    out["experiments.dataset_cache.hits"] = (extra["cache_hits"] / n, "count")
    out["experiments.dataset_cache.misses"] = (extra["cache_misses"] / n, "count")
    out["experiments.cells_failed"] = (extra["cells_failed"] / n, "count")
    out["trace.overhead_frac"] = (overhead_frac, "1")
    return out
