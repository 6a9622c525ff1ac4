"""Spans around the public calls of each mfglearn module, kept in memory.

Nothing in ``src/`` changes: the wrappers replace module attributes (the
names each module imported from the others) and, for the environment
callables ``reward``, ``sample_next``, ``reward_matrix`` and
``kernel_support``, the fields of the ``EnvironmentModel`` that the CLI
builds, through ``dataclasses.replace``.

Two levels are installed:

* ``install_timers`` wraps only the calls the end-to-end metrics need
  (``run_semisgd``, ``run_online_fpi`` and ``model_based_fpi_fp`` as the CLI
  calls them).  These are a few calls per CLI command, so their cost does
  not show in the end-to-end figures.
* ``install_layers`` adds every per-layer span, down to one span per
  reward, transition sample, policy row and action draw.

A span is (name, start, end, parent).  Private learner methods
(``_OnlineRun.update_eta`` and ``update_theta``) are not wrapped, so the
population and value updates show only as learner self time.
"""

from __future__ import annotations

import dataclasses
import os
import time
from array import array
from collections import defaultdict

import numpy as np

RUN_SPANS = ("learners.run_semisgd", "learners.run_online_fpi")
SNAPSHOT = "learners.snapshot"
ENV_FIELDS = ("reward", "sample_next", "reward_matrix", "kernel_support")
ENV_CONSTRUCTORS = ("ring_road_env", "flocking_env", "sioux_falls_env", "toy_finite_env")


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.outer_iters: dict[str, int] = {}
        self._patched: list[tuple] = []

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        """A callable that records one span per call of ``fn``."""
        nid = self.nid(name)
        starts, ends, parents, ids, stack = (
            self.start, self.end, self.parent, self.name_id, self.stack)
        clock = time.perf_counter

        # open() and close() inlined: this runs several times per sample
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def mark(self) -> int:
        return len(self.start)

    def take_counts(self) -> dict:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def spans(self, lo: int, hi: int):
        """Spans lo..hi-1 as numpy arrays (name id, parent, start, end)."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
            np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
        )

    def save(self, path) -> None:
        n = self.mark()
        ids, parent, start, end = self.spans(0, n)
        np.savez(path, names=np.array(self.names), name_id=ids, parent=parent,
                 start=start, end=end)


def install_timers(tracer: Tracer, mfg) -> None:
    """Spans around the online runs and reference solves the CLI makes."""
    cli = mfg.cli
    for attr in ("run_semisgd", "run_online_fpi"):
        inner = tracer.wrap(f"learners.{attr}", getattr(cli, attr))

        def run(env, cfg, *args, _inner=inner, **kwargs):
            tracer.counts["learners.samples"] += cfg.total_steps
            return _inner(env, cfg, *args, **kwargs)

        tracer.patch(cli, attr, run)
    solve = tracer.wrap("learners.model_based_fpi_fp", cli.model_based_fpi_fp)

    def reference(env, *args, **kwargs):
        ref = solve(env, *args, **kwargs)
        tracer.outer_iters[env.name] = int(ref.iterations)
        return ref

    tracer.patch(cli, "model_based_fpi_fp", reference)


def install_layers(tracer: Tracer, mfg) -> None:
    """Every per-layer span; call after ``install_timers``."""
    cli, learners, metrics, policy = mfg.cli, mfg.learners, mfg.metrics, mfg.policy

    def env_traced(env):
        return dataclasses.replace(env, **{
            f: tracer.wrap(f"envs.{f}", getattr(env, f)) for f in ENV_FIELDS})

    for attr in ENV_CONSTRUCTORS:
        def construct(*args, _make=getattr(cli, attr), **kwargs):
            return env_traced(_make(*args, **kwargs))

        tracer.patch(cli, attr, construct)

    row = tracer.wrap("policy.policy_row", policy.policy_row)
    tracer.patch(policy, "policy_row", row)
    tracer.patch(learners, "policy_row", row)
    tracer.patch(learners, "sample_action",
                 tracer.wrap("policy.sample_action", learners.sample_action))
    tracer.patch(learners, "project_simplex",
                 tracer.wrap("lfa.project_simplex", learners.project_simplex))
    tracer.patch(cli, "tan_normal_basis",
                 tracer.wrap("lfa.tan_normal_basis", cli.tan_normal_basis))
    tracer.patch(learners, "step_size", tracer.wrap("learners.step_size", learners.step_size))

    for module in (learners, metrics):
        tracer.patch(module, "value_iteration",
                     tracer.wrap("metrics.value_iteration", module.value_iteration))
        tracer.patch(module, "induced_population",
                     tracer.wrap("metrics.induced_population", module.induced_population))
    tracer.patch(metrics, "policy_evaluation",
                 tracer.wrap("metrics.policy_evaluation", metrics.policy_evaluation))
    tracer.patch(metrics, "dense_policy_kernel",
                 tracer.wrap("metrics.dense_policy_kernel", metrics.dense_policy_kernel))
    tracer.patch(metrics, "_exploitability_at",
                 tracer.wrap("metrics.exploitability", metrics._exploitability_at))

    # An exploitability snapshot of an online run is policy_matrix, then
    # induced_population, then _exploitability_at, called in that order by
    # the run's recorder.  The snapshot span opens before the policy_matrix
    # span and closes after the _exploitability_at span.
    run_ids = {tracer.nid(n) for n in RUN_SPANS}
    snap_id = tracer.nid(SNAPSHOT)
    open_snapshots: list[int] = []
    pmat = tracer.wrap("policy.policy_matrix", learners.policy_matrix)

    def policy_matrix(*args, **kwargs):
        if tracer.stack and tracer.name_id[tracer.stack[-1]] in run_ids:
            open_snapshots.append(tracer.open(snap_id))
        return pmat(*args, **kwargs)

    expl = tracer.wrap("metrics.exploitability", learners._exploitability_at)

    def exploitability_at(*args, **kwargs):
        try:
            return expl(*args, **kwargs)
        finally:
            if open_snapshots and tracer.stack and tracer.stack[-1] == open_snapshots[-1]:
                tracer.close(open_snapshots.pop())

    tracer.patch(learners, "policy_matrix", policy_matrix)
    tracer.patch(learners, "_exploitability_at", exploitability_at)

    tracer.patch(cli, "ensure_reference",
                 tracer.wrap("cli.ensure_reference", cli.ensure_reference))
    csv = tracer.wrap("cli.write", cli._write_csv)

    def write_csv(path, *args, **kwargs):
        csv(path, *args, **kwargs)
        tracer.counts["cli.write.bytes"] += os.path.getsize(path)

    ref = tracer.wrap("cli.write", cli.write_reference)

    def write_reference(out_dir, *args, **kwargs):
        ref(out_dir, *args, **kwargs)
        for name in ("mu_star.txt", "q_star.txt", "meta.json"):
            tracer.counts["cli.write.bytes"] += os.path.getsize(os.path.join(out_dir, name))

    tracer.patch(cli, "_write_csv", write_csv)
    tracer.patch(cli, "write_reference", write_reference)


def layer_metrics(tracer: Tracer, lo: int, hi: int, counts: dict, rounds: int) -> dict:
    """Per-round per-layer figures from spans lo..hi-1 and the counters."""
    ids, parent, start, end = tracer.spans(lo, hi)
    dur = end - start
    local_parent = np.where(parent >= lo, parent - lo, -1)
    child = np.zeros(len(dur))
    has_parent = local_parent >= 0
    np.add.at(child, local_parent[has_parent], dur[has_parent])
    names = tracer.names

    def sel(name):
        return ids == tracer.nid(name) if name in names else np.zeros(len(ids), bool)

    def calls(name):
        return int(sel(name).sum())

    def total(name):
        return float(dur[sel(name)].sum())

    def mean_us(name):
        n = calls(name)
        return total(name) / n * 1e6 if n else 0.0

    samples = counts.get("learners.samples", 0.0)
    run_mask = sel(RUN_SPANS[0]) | sel(RUN_SPANS[1])
    run_time = float(dur[run_mask].sum())
    run_self = float((dur - child)[run_mask].sum())
    snap = sel(SNAPSHOT)
    snap_in_run = snap & (local_parent >= 0) & run_mask[np.maximum(local_parent, 0)]
    sample_time = run_time - float(dur[snap_in_run].sum())
    write = sel("cli.write")
    nested_write = write & (local_parent >= 0) & write[np.maximum(local_parent, 0)]

    def ratio(num, den):
        return num / den if den else 0.0

    # totals over the traced rounds, reported per round
    totals = {
        "envs.reward.calls": calls("envs.reward"),
        "envs.sample_next.calls": calls("envs.sample_next"),
        "envs.reward_matrix.s": total("envs.reward_matrix"),
        "envs.kernel_support.calls": calls("envs.kernel_support"),
        "policy.policy_row.calls": calls("policy.policy_row"),
        "policy.policy_matrix.s": total("policy.policy_matrix"),
        "lfa.project_simplex.calls": calls("lfa.project_simplex"),
        "lfa.tan_normal_basis.s": total("lfa.tan_normal_basis"),
        "learners.samples": samples,
        "learners.step_size.calls": calls("learners.step_size"),
        "learners.snapshot.calls": calls(SNAPSHOT),
        "learners.snapshot.s": total(SNAPSHOT),
        "cli.ensure_reference.s": total("cli.ensure_reference"),
        "cli.write.s": float(dur[write & ~nested_write].sum()),
        "cli.write.bytes": counts.get("cli.write.bytes", 0.0),
    }
    for name in ("value_iteration", "policy_evaluation", "induced_population",
                 "dense_policy_kernel", "exploitability"):
        totals[f"metrics.{name}.calls"] = calls(f"metrics.{name}")
        totals[f"metrics.{name}.s"] = total(f"metrics.{name}")
    out = {k: v / rounds for k, v in totals.items()}
    out.update({
        "envs.reward.us": mean_us("envs.reward"),
        "envs.sample_next.us": mean_us("envs.sample_next"),
        "policy.policy_row.us": mean_us("policy.policy_row"),
        "policy.sample_action.us": mean_us("policy.sample_action"),
        "lfa.project_simplex.us": mean_us("lfa.project_simplex"),
        "lfa.project_simplex.fire_ratio": ratio(calls("lfa.project_simplex"), samples),
        "learners.sample.us": ratio(sample_time * 1e6, samples),
        "learners.sample.self_us": ratio(run_self * 1e6, samples),
        "learners.snapshot.written_ratio":
            ratio(counts.get("snapshots.written", 0.0), calls(SNAPSHOT)),
    })
    return out
