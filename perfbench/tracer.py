"""Spans and counters recorded from outside the esnode package.

`instrument` replaces the public functions of each esnode module with
wrappers that record a span (name, start, end, parent) or bump a counter,
and puts every original back when the block ends, even on error. The
package itself is not edited: later changes that move spans inside the
program can be checked against these numbers.
"""
from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional

import scipy.linalg

from esnode import constraints, pipeline, regression, trial


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span list with a parent stack and named counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def span(self, name: str, fn, probe=None):
        """Wrap fn so each call records a span; probe(args, result) -> attrs."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            sp = Span(name, time.perf_counter(), float("nan"), parent, {})
            self._stack.append(len(self.spans))
            self.spans.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                sp.attrs.update(probe(args, result))
            return result
        return wrapper

    def counter(self, name: str, fn, amount=None):
        """Wrap fn so each call adds amount(result), default 1, to counts[name]."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1 if amount is None else amount(result)
            return result
        return wrapper

    def children(self, idx: int) -> List[Span]:
        return [s for s in self.spans if s.parent == idx]

    def covered(self, idx: int) -> float:
        """Length of span idx's interval that its child spans cover."""
        outer = self.spans[idx]
        total, reach = 0.0, outer.start
        for child in sorted(self.children(idx), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, outer.end)
            if hi > lo:
                total += hi - lo
                reach = hi
        return total

    def self_times(self) -> Dict[str, float]:
        """Sum over spans of each name of duration minus child coverage."""
        out: Dict[str, float] = Counter()
        for idx, sp in enumerate(self.spans):
            out[sp.name] += sp.duration - self.covered(idx)
        return dict(out)

    def indices(self, name: str, parent: Optional[int] = None) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name
                and (parent is None or s.parent == parent)]


def _jacobian_shape(args, result) -> dict:
    rows, cols = result.j.shape
    return {"rows": rows, "cols": cols}


def _counting_system(tracer: Tracer, get_system):
    """get_system whose returned system counts rhs and jac evaluations."""
    @functools.wraps(get_system)
    def wrapper(name):
        system = get_system(name)
        return dataclasses.replace(
            system,
            rhs=tracer.counter("problems.rhs_calls", system.rhs),
            jac=tracer.counter("problems.jac_calls", system.jac))
    return wrapper


def _patch_table(tracer: Tracer) -> list:
    """(module, attribute, wrapper factory) for every wrapped function.

    pipeline imported build, drive and get_system by name, so those are
    replaced in pipeline's namespace; the rest are looked up through their
    module at call time. scipy.linalg.solve is the factorization both
    regression solves call.
    """
    s, c = tracer.span, tracer.counter
    return [
        (trial, "refine_downsample",
         lambda f: s("trial.refine_downsample", f)),
        (trial, "euler",
         lambda f: c("trial.euler_steps", f, lambda r: r.n_points - 1)),
        (trial, "rk4", lambda f: s(
            "trial.rk4", f, lambda a, r: {"steps": r.n_points - 1})),
        (pipeline, "get_system", lambda f: _counting_system(tracer, f)),
        (pipeline, "build", lambda f: s(
            "reservoir.build", f, lambda a, r: {"nnz": r.omega.nnz})),
        (pipeline, "drive", lambda f: s(
            "reservoir.drive", f, lambda a, r: {"steps": r.n_steps})),
        (constraints, "stage1_residuals",
         lambda f: s("constraints.residual", f)),
        (constraints, "stage2_residuals",
         lambda f: s("constraints.residual", f)),
        (constraints, "stage1_jacobian",
         lambda f: s("constraints.jacobian", f, _jacobian_shape)),
        (constraints, "stage2_jacobian",
         lambda f: s("constraints.jacobian", f, _jacobian_shape)),
        (regression, "ridge_initial_guess",
         lambda f: s("regression.ridge", f)),
        (regression, "solve_stage", lambda f: s(
            "regression.solve_stage", f,
            lambda a, r: {"accepted": sum(rec.rel_step > 0 for rec in r[1])})),
        (regression, "gn_step", lambda f: s("regression.gn_step", f)),
        (scipy.linalg, "solve", lambda f: s("regression.factor", f)),
        (pipeline, "train", lambda f: s("pipeline.train", f)),
        (pipeline, "reference_trajectory",
         lambda f: s("pipeline.reference", f)),
        (pipeline, "evaluate", lambda f: s("pipeline.evaluate", f)),
        (pipeline, "write_artifacts",
         lambda f: s("pipeline.write_artifacts", f)),
        (pipeline, "generate", lambda f: s("pipeline.generate", f)),
    ]


def wrapped_names() -> List[tuple]:
    """(module, attribute) pairs that `instrument` replaces."""
    return [(mod, attr) for mod, attr, _ in _patch_table(Tracer())]


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for mod, attr, make in _patch_table(tracer):
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, make(original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
