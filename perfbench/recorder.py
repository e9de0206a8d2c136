"""In-memory span recorder that wraps fewstep functions where they are looked up.

A span is ``[name, start, end, parent, run, note]``: ``parent`` is the index
of the enclosing span (-1 at the top), ``run`` the round the span belongs
to, and ``note`` a small dict some spans carry (batch rows, solver family,
training iterations, file bytes).  Wrapping replaces a function in every
fewstep namespace that holds it, so ``fewstep.training.solve`` and
``fewstep.teachers.solve`` both reach the same wrapper, named after the
module that defines the function (``solvers.solve``).

Nothing here runs at import time; a :class:`Recorder` patches only when
asked and :meth:`Recorder.restore` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import sys
import time

_perf = time.perf_counter

# Methods traced under the metric names the benchmark reports.
METHODS = {
    "scores.epsilon": ("scores", "GaussianMixtureScore", "epsilon"),
    "scores.epsilon_vjp": ("scores", "GaussianMixtureScore", "epsilon_vjp"),
    "scores.time_partial": ("scores", "GaussianMixtureScore", "epsilon_time_partial"),
    "schedules.time_from_lambda": ("schedules", "NoiseSchedule", "time_from_lambda"),
    "training.adam_step": ("training", "Adam", "step"),
}


def _rows(x):
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _train_note(rec, idx, args, result):
    # args: dataset, coeffs, grid or params, schedule, model, config
    return {"iters": len(result.history), "status": result.status,
            "result": result, "schedule": args[3], "model": args[4]}


def _solve_note(rec, idx, args, result):
    rec.solve_of_trace[id(result)] = idx
    return {"kind": args[0].kind, "nfe": result.nfe_used}


def _backward_note(rec, idx, args, result):
    trace = args[0]
    return {"kind": args[1].kind, "nfe": trace.nfe_used,
            "solve": rec.solve_of_trace.get(id(trace), -1)}


# Per-span notes, computed on return from (recorder, span index, positional
# args, result).
NOTES = {
    "scores.epsilon": lambda rec, i, a, r: {"rows": _rows(a[2])},
    "scores.epsilon_vjp": lambda rec, i, a, r: {"rows": _rows(a[2])},
    "scores.time_partial": lambda rec, i, a, r: {"rows": _rows(a[2])},
    "solvers.solve": _solve_note,
    "backprop.backward": _backward_note,
    "training.train_s4s": _train_note,
    "training.train_s4s_alt": _train_note,
    "teachers.generate_dataset": lambda rec, i, a, r: {"records": len(r.records)},
    "teachers.teacher_solve": lambda rec, i, a, r: {"rows": _rows(a[3])},
    "teachers.save_dataset": lambda rec, i, a, r: {"bytes": os.path.getsize(a[1])},
    "teachers.load_dataset": lambda rec, i, a, r: {"bytes": os.path.getsize(a[0])},
    "experiments.run_cell": lambda rec, i, a, r: {"status": r["status"]},
}


class Recorder:
    """Spans of one benchmark process, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans: list = []
        self.run = -1
        self.run_start: dict = {}
        self.solve_of_trace: dict = {}
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def next_run(self):
        """Start a new round: later spans carry its run id."""
        self.run += 1
        self.run_start[self.run] = len(self.spans)
        self.solve_of_trace.clear()
        return self.run

    def spans_of_run(self, run, name):
        end = self.run_start.get(run + 1, len(self.spans))
        return [s for s in self.spans[self.run_start[run]:end] if s[0] == name]

    def _open(self, name):
        stack = self._stack
        idx = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
        stack.append(idx)
        self.spans.append(span)
        span[1] = _perf()
        return idx, span

    def _close(self, span):
        span[2] = _perf()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code (a round, one timed sample call)."""
        _, span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, span = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                rec._close(span)
            if note is not None:
                span[5] = note(rec, idx, args, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------
    def patch(self, select):
        """Wrap every public fewstep function (and traced method) whose span
        name ``select`` accepts, in every fewstep namespace that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fewstep" or n.startswith("fewstep."))]
        wrapped = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and select(f"{short}.{attr}")):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])
        for name, (mod, cls_name, attr) in METHODS.items():
            if select(name):
                cls = getattr(sys.modules[f"fewstep.{mod}"], cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------
    def write(self, path):
        """Write every span as one JSON line (gzip), notes reduced to numbers."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, run, note) in enumerate(self.spans):
                row = {"i": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run}
                if note:
                    row.update({k: v for k, v in note.items()
                                if isinstance(v, (int, float, str))})
                fh.write(json.dumps(row) + "\n")
