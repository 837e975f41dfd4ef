"""Per-layer spans around kdm's own functions, installed at run time.

The tracer replaces module-level names of the ``kdm`` package with wrappers
that record a span (name, start, end, parent) for each call, plus counts
computed from the arguments and results at the same boundary.  Nothing in
``src/kdm`` is edited: the wrappers are set with ``setattr`` and removed again
after each traced job.  A hook whose name no longer exists (for example after
code moves to another module) is reported as absent rather than failing.

Self time of a span is its duration minus the time its child spans cover;
because kdm runs on one thread, children never overlap and the covered time
is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

JOB = "job"


@dataclass(frozen=True)
class Hook:
    """One traced name.

    ``module`` and ``attr`` locate the function.  Unless ``only_here`` is set,
    every ``kdm`` module that binds the same function object gets the wrapper
    too, so a call is traced whichever module it goes through.  Calls are
    counted as ``<layer>.calls``; with ``span=False`` they are counted under
    the layer's own name and get no span, so their time stays in the
    caller's self time.  ``after`` receives (tracer, args, kwargs, result)
    and adds counts.
    """

    layer: str
    module: str
    attr: str
    only_here: bool = False
    span: bool = True
    after: Optional[Callable] = None


def _after_cholesky(tr, args, kwargs, res):
    n, m = args[0].size, res.rank
    # the Schur update at step i is an (n x i) matrix-vector product: 2*n*i flops
    tr.count("lowrank.schur_flops", n * m * (m - 1))
    tr.count("lowrank.cap_hits", int(res.hit_rank_cap))


def _after_kernel_eval(tr, args, kwargs, res):
    tr.count("estimator.kernel_eval.entries", res.size)


def _after_save(tr, args, kwargs, res):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.count("estimator.save_model.bytes", os.path.getsize(path))


def _after_test(tr, args, kwargs, res):
    tr.count("hypothesis.ell_sum", res.ell)


def _after_weights(tr, args, kwargs, res):
    weights = res[0] if isinstance(res, tuple) else res
    g = weights.shape[0]
    tr.count("conditional.pairs", g)
    # the degenerate fallback is exactly uniform; a real fit never is
    tr.count("conditional.degenerate", int(bool((weights == 1.0 / g).all())))


def _after_rows(tr, args, kwargs, res):
    tr.count("cli.ingest_csv.rows", res.n)


HOOKS = (
    Hook("lowrank.pivoted_cholesky", "kdm.lowrank", "pivoted_cholesky", after=_after_cholesky),
    Hook("lowrank.pivot", "kdm.lowrank", "greedy_pivot"),
    Hook("lowrank.column", "kdm.lowrank", "cross_kernel_matrix", only_here=True),
    Hook("estimator.fit", "kdm.estimator", "fit"),
    Hook("estimator.cross_validate", "kdm.estimator", "cross_validate"),
    Hook("estimator.solves", "kdm.estimator", "_solve", span=False),
    Hook("estimator.validation_loss", "kdm.estimator", "validation_loss"),
    Hook("estimator.kernel_eval", "kdm.estimator", "cross_kernel_matrix", only_here=True,
         after=_after_kernel_eval),
    Hook("estimator.save_model", "kdm.estimator", "save_model", after=_after_save),
    Hook("estimator.load_model", "kdm.estimator", "load_model"),
    Hook("hypothesis.run_test", "kdm.hypothesis", "run_test", after=_after_test),
    Hook("hypothesis.covariance_matrix", "kdm.hypothesis", "covariance_matrix"),
    Hook("conditional.fit_conditional", "kdm.conditional", "fit_conditional"),
    Hook("conditional.conditional_weights", "kdm.conditional", "conditional_weights", after=_after_weights),
    Hook("bench.median_heuristic_rho", "kdm.bench", "median_heuristic_rho"),
    Hook("bench.independence_test", "kdm.bench", "independence_test"),
    Hook("bench.mixture_energy_study", "kdm.bench", "mixture_energy_study"),
    Hook("metrics.energy_score", "kdm.metrics", "energy_score"),
    Hook("cli.ingest_csv", "kdm.cli", "ingest_csv", after=_after_rows),
)


def _resolve(module: str, attr: str):
    """(module object, function) for a hook, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    fn = getattr(owner, attr, None)
    return (owner, fn) if callable(fn) else None


class Tracer:
    """In-memory span recorder with install/uninstall of the hooks."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, job
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._job = -1
        for hook in hooks:
            if _resolve(hook.module, hook.attr) is None:
                self.absent.append(hook.layer)

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._job))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        name, start, _, parent, job = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, job)
        self._stack.pop()

    def _wrap(self, hook: Hook, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not hook.span:
                tracer.count(hook.layer, 1)
                return fn(*args, **kwargs)
            tracer.count(hook.layer + ".calls", 1)
            idx = tracer._open(hook.layer)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook.after is not None:
                hook.after(tracer, args, kwargs, res)
            return res

        return wrapper

    def install(self) -> None:
        kdm_modules = [m for k, m in list(sys.modules.items()) if k == "kdm" or k.startswith("kdm.")]
        for hook in self.hooks:
            found = _resolve(hook.module, hook.attr)
            if found is None:
                continue
            owner, fn = found
            wrapper = self._wrap(hook, fn)
            sites = [(owner, hook.attr)]
            if not hook.only_here:
                sites += [
                    (mod, key)
                    for mod in kdm_modules
                    for key, val in list(vars(mod).items())
                    if val is fn and (mod, key) != (owner, hook.attr)
                ]
            for site_owner, key in sites:
                self._saved.append((site_owner, key, fn))
                setattr(site_owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()

    def job(self, index: int, fn, *args):
        """Run fn(*args) as one traced job under a root span.

        Returns the result and the root span's duration, which leaves out
        installing and removing the wrappers.
        """
        self._job = index
        self.install()
        idx = self._open(JOB)
        try:
            res = fn(*args)
        finally:
            self._close(idx)
            self.uninstall()
        _, start, end, _, _ = self.spans[idx]
        return res, end - start

    def summary(self) -> dict:
        """Totals per layer: {'<layer>.s', '<layer>.self_s'} plus the job totals."""
        total: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            total[name + ".s"] += end - start
            total[name + ".self_s"] += end - start - cov
        return dict(total)
