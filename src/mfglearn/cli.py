"""Experiment orchestration: config ingestion, seed fan-out, reference
caching, and deterministic CSV emission.

Subcommands: ``reference``, ``run``, ``sweep-k``, ``compare-lfa``.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from .core import ConfigError, RunConfig, StepSizeSchedule
from .envs import (
    EnvironmentModel,
    NetworkLoadError,
    flocking_env,
    ring_road_env,
    sioux_falls_env,
    toy_finite_env,
)
from .learners import (
    ReferenceSolution,
    RunRecord,
    model_based_fpi_fp,
    run_online_fpi,
    run_semisgd,
)
from .lfa import BasisError, tan_normal_basis
from .metrics import MetricsError, resample_masses

ENV_TAGS = ("ring-road", "flocking", "sioux-falls", "toy")

# per-environment paper constants (inverse temperature of the softmax operator)
DEFAULT_INVERSE_TEMPERATURE = {
    "ring-road": 1e9,
    "flocking": 1e6,
    "sioux-falls": 1e3,
    "toy": 1e2,
}

COMPARE_LFA_GRID = 200  # reference granularity of the PA-LFA comparison
COMPARE_LFA_STEPS = 10_000


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: environment, algorithm, run parameters, seeds."""

    env: str = "ring-road"
    env_size: int = 50
    network: Optional[str] = None
    toy_states: int = 3
    toy_actions: int = 2
    toy_seed: int = 7
    algorithm: str = "semisgd"
    steps: int = 100_000
    alpha: float = 1e-3
    schedule_kind: str = "constant"
    schedule_b: float = 0.0
    inverse_temperature: Optional[float] = None
    inner_k: int = 500
    ball_radius: Optional[float] = None
    seeds: tuple = tuple(range(10))
    seed_offset: int = 0
    cadence: int = 100
    expl_every: Optional[int] = 5000
    basis: str = "one-hot"
    basis_d2: int = 20
    basis_c: float = 1.2
    basis_v: Optional[float] = None
    reference: Optional[str] = None
    reference_outer_iters: int = 300
    out: str = "out"

    def __post_init__(self):
        if self.env not in ENV_TAGS:
            raise ConfigError(f"unknown env {self.env!r}; expected one of {ENV_TAGS}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.basis not in ("one-hot", "tan-normal"):
            raise ConfigError(f"unknown basis {self.basis!r}")

    @property
    def effective_seeds(self) -> List[int]:
        return [int(s) + self.seed_offset for s in self.seeds]

    def temperature(self) -> float:
        if self.inverse_temperature is not None:
            return self.inverse_temperature
        return DEFAULT_INVERSE_TEMPERATURE[self.env]


def spec_from_config(config: dict) -> ExperimentSpec:
    """Build a spec from a config mapping; a malformed config is a ConfigError."""
    try:
        known = set(ExperimentSpec.__dataclass_fields__)
        unknown = set(config) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "seeds" in config:
            config = dict(config)
            config["seeds"] = tuple(int(s) for s in config["seeds"])
        return ExperimentSpec(**config)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def build_env(spec: ExperimentSpec) -> EnvironmentModel:
    if spec.env == "ring-road":
        return ring_road_env(spec.env_size)
    if spec.env == "flocking":
        return flocking_env(spec.env_size)
    if spec.env == "sioux-falls":
        return sioux_falls_env(spec.network)
    return toy_finite_env(spec.toy_states, spec.toy_actions, spec.toy_seed)


def default_ball_radius(env: EnvironmentModel) -> float:
    """sqrt(|S||A|) * R / (1 - gamma): the tabular implicit-regularization
    bound, inside which every on-policy value function lives."""
    d1 = env.n_states * env.n_actions
    return float(np.sqrt(d1) * env.reward_bound / (1.0 - env.gamma))


def make_run_config(spec: ExperimentSpec, env: EnvironmentModel, seed: int) -> RunConfig:
    radius = spec.ball_radius if spec.ball_radius is not None else default_ball_radius(env)
    return RunConfig(
        total_steps=spec.steps,
        schedule=StepSizeSchedule(spec.schedule_kind, spec.alpha, spec.schedule_b),
        gamma=env.gamma,
        inverse_temperature=spec.temperature(),
        ball_radius=radius,
        seed=seed,
        inner_k=spec.inner_k if spec.algorithm != "semisgd" else None,
        algorithm=spec.algorithm,
        cadence=spec.cadence,
        expl_every=spec.expl_every,
    )


# ---------------------------------------------------------------------------
# deterministic text output
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: List[str], rows: List[List[str]]):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _check_finite(values) -> None:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise MetricsError("non-finite value in metric output")


def write_reference(out_dir: Path, env: EnvironmentModel, ref: ReferenceSolution):
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [str(int(i)), _fmt(v)]
        for i, v in zip(ref.expl_iterations, ref.expl_trace)
    ]
    _check_finite(ref.expl_trace)
    _check_finite(ref.mu_star)
    _check_finite(ref.q_star)
    _write_csv(out_dir / "reference.csv", ["iteration", "exploitability"], rows)
    (out_dir / "mu_star.txt").write_text(
        "".join(_fmt(x) + "\n" for x in ref.mu_star), encoding="utf-8", newline="\n"
    )
    (out_dir / "q_star.txt").write_text(
        "".join(_fmt(x) + "\n" for x in ref.q_star.ravel()), encoding="utf-8", newline="\n"
    )
    meta = {
        "env": env.name,
        "n_states": env.n_states,
        "n_actions": env.n_actions,
        "iterations": int(ref.iterations),
        "final_exploitability": float(ref.final_exploitability),
        "outer_iters": int(ref.outer_iters),
        "converged": bool(ref.converged),
    }
    (out_dir / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


def load_reference(ref_dir: Path) -> ReferenceSolution:
    meta = json.loads((ref_dir / "meta.json").read_text(encoding="utf-8"))
    mu = np.array(
        [float(line) for line in (ref_dir / "mu_star.txt").read_text().split()]
    )
    q = np.array(
        [float(line) for line in (ref_dir / "q_star.txt").read_text().split()]
    ).reshape(meta["n_states"], meta["n_actions"])
    trace_lines = (ref_dir / "reference.csv").read_text().splitlines()[1:]
    iters, vals = [], []
    for line in trace_lines:
        i, v = line.split(",")
        iters.append(int(i))
        vals.append(float(v))
    return ReferenceSolution(
        q_star=q,
        mu_star=mu,
        iterations=meta["iterations"],
        final_exploitability=meta["final_exploitability"],
        outer_iters=meta["outer_iters"],
        converged=meta["converged"],
        expl_iterations=np.array(iters, dtype=int),
        expl_trace=np.array(vals),
    )


def _solved_for(ref_dir: Path, env: EnvironmentModel, outer_iters: int) -> bool:
    """Whether the reference in ref_dir was solved for this environment
    with this outer-iteration budget; a meta.json without one was not."""
    meta = json.loads((ref_dir / "meta.json").read_text(encoding="utf-8"))
    return (
        meta["env"] == env.name
        and meta["n_states"] == env.n_states
        and meta.get("outer_iters") == outer_iters
    )


def ensure_reference(
    spec: ExperimentSpec, env: EnvironmentModel, out_dir: Path
) -> ReferenceSolution:
    """Load the configured reference, else the one cached for this
    environment and ``reference_outer_iters`` under the output dir, else
    compute and cache one."""
    outer_iters = spec.reference_outer_iters
    if spec.reference is not None:
        ref_dir = Path(spec.reference)
        if not _solved_for(ref_dir, env, outer_iters):
            raise ConfigError(
                f"reference {ref_dir} was not solved for {env.name} "
                f"with reference_outer_iters = {outer_iters}"
            )
        return load_reference(ref_dir)
    ref_dir = out_dir / "reference"
    if (ref_dir / "meta.json").exists() and _solved_for(ref_dir, env, outer_iters):
        return load_reference(ref_dir)
    ref = model_based_fpi_fp(env, outer_iters=outer_iters)
    write_reference(ref_dir, env, ref)
    return ref


def _run_configs(spec: ExperimentSpec, env: EnvironmentModel) -> List[RunConfig]:
    """One run config per seed.  Commands build them before they solve a
    reference or make a directory, so a config error leaves nothing behind."""
    return [make_run_config(spec, env, seed) for seed in spec.effective_seeds]


def _spec_basis(spec: ExperimentSpec, env: EnvironmentModel):
    """The measure basis the spec names; None stands for one-hot."""
    if spec.basis == "tan-normal":
        return tan_normal_basis(env.states, spec.basis_d2, c=spec.basis_c, v=spec.basis_v)
    return None


def _run_one(env: EnvironmentModel, cfg: RunConfig, mu_ref: np.ndarray,
             ref_map=None, basis=None) -> RunRecord:
    if cfg.algorithm == "semisgd":
        return run_semisgd(env, cfg, basis=basis, mu_ref=mu_ref, ref_map=ref_map)
    return run_online_fpi(env, cfg, basis=basis, mu_ref=mu_ref, ref_map=ref_map)


def _record_rows(record: RunRecord) -> List[List[str]]:
    expl = {}
    if record.expl_steps is not None:
        expl = dict(zip(record.expl_steps.tolist(), record.expl_values.tolist()))
    rows = []
    for i, t in enumerate(record.steps.tolist()):
        e = expl.get(t)
        rows.append([str(t), _fmt(record.mse[i]), "" if e is None else _fmt(e)])
    return rows


def _aggregate_rows(records: List[RunRecord]) -> List[List[str]]:
    steps = records[0].steps
    mse = np.stack([r.mse for r in records])
    _check_finite(mse)
    expl_maps = []
    for r in records:
        expl_maps.append(
            dict(zip(r.expl_steps.tolist(), r.expl_values.tolist()))
            if r.expl_steps is not None
            else {}
        )
    rows = []
    for i, t in enumerate(steps.tolist()):
        m = mse[:, i]
        row = [str(t), _fmt(m.mean()), _fmt(_std(m))]
        if all(t in e for e in expl_maps) and expl_maps:
            vals = np.array([e[t] for e in expl_maps])
            _check_finite(vals)
            row += [_fmt(vals.mean()), _fmt(_std(vals))]
        else:
            row += ["", ""]
        rows.append(row)
    return rows


def _std(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        return 0.0
    return float(values.std(ddof=1))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_reference(spec: ExperimentSpec) -> Path:
    """Solve the reference equilibrium and write it under the output dir."""
    env = build_env(spec)
    out_dir = Path(spec.out)
    ref = model_based_fpi_fp(env, outer_iters=spec.reference_outer_iters)
    write_reference(out_dir, env, ref)
    return out_dir


def cmd_run(spec: ExperimentSpec) -> Path:
    """Run every seed and emit per-seed plus aggregated CSV files."""
    env = build_env(spec)
    cfgs = _run_configs(spec, env)
    basis = _spec_basis(spec, env)
    out_dir = Path(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = ensure_reference(spec, env, out_dir)
    records = []
    for cfg in cfgs:
        record = _run_one(env, cfg, ref.mu_star, basis=basis)
        _check_finite(record.mse)
        if record.expl_values is not None:
            _check_finite(record.expl_values)
        _write_csv(
            out_dir / f"run_seed{cfg.seed}.csv",
            ["step", "mse", "exploitability"],
            _record_rows(record),
        )
        records.append(record)
    _write_csv(
        out_dir / "aggregate.csv",
        ["step", "mse_mean", "mse_std", "expl_mean", "expl_std"],
        _aggregate_rows(records),
    )
    return out_dir


def cmd_sweep_k(spec: ExperimentSpec, k_list: List[int]) -> Path:
    """Fixed total budget, one aggregate row of final metrics per K.

    Only the final exploitability of each run reaches ``sweep_k.csv``, and
    only when T is a multiple of ``expl_every``; each run then computes it
    at t = 0 and t = T alone (``expl_every = T``), and otherwise not at all.
    """
    if not k_list:
        raise ConfigError("sweep-k needs a non-empty K list")
    for k in k_list:
        if k < 1 or k > spec.steps:
            raise ConfigError(f"inner K = {k} must lie in [1, T = {spec.steps}]")
    if spec.algorithm == "semisgd":
        spec = replace(spec, algorithm="fpi-vanilla")
    written = bool(spec.expl_every) and spec.steps % spec.expl_every == 0
    spec = replace(spec, expl_every=spec.steps if written else None)
    env = build_env(spec)
    sweep = [(k, _run_configs(replace(spec, inner_k=int(k)), env)) for k in k_list]
    basis = _spec_basis(spec, env)
    out_dir = Path(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = ensure_reference(spec, env, out_dir)
    rows = []
    for k, cfgs in sweep:
        finals, expls = [], []
        for cfg in cfgs:
            record = _run_one(env, cfg, ref.mu_star, basis=basis)
            finals.append(record.mse[-1])
            if record.expl_steps is not None and record.expl_steps[-1] == record.steps[-1]:
                expls.append(record.expl_values[-1])
        finals = np.array(finals)
        _check_finite(finals)
        row = [str(int(k)), _fmt(finals.mean()), _fmt(_std(finals))]
        if len(expls) == len(spec.effective_seeds):
            expls = np.array(expls)
            _check_finite(expls)
            row += [_fmt(expls.mean()), _fmt(_std(expls))]
        else:
            row += ["", ""]
        rows.append(row)
    _write_csv(
        out_dir / "sweep_k.csv",
        ["k", "mse_mean", "mse_std", "expl_mean", "expl_std"],
        rows,
    )
    return out_dir


def cmd_compare_lfa(spec: ExperimentSpec, d2_list: List[int]) -> Path:
    """Population-aware LFA versus grid discretization on speed control.

    For each d2, runs SemiSGD (a) on the ring road coarsened to d2 cells and
    (b) on the reference-granularity ring road with a d2-dimensional
    tan-normal measure basis; final MSE is measured against the
    reference-grid equilibrium in both arms.  ``compare_lfa.csv`` has no
    exploitability column, so the runs compute none (``expl_every = None``).
    """
    if not d2_list:
        raise ConfigError("compare-lfa needs a non-empty d2 list")
    if spec.env != "ring-road":
        raise ConfigError("compare-lfa is defined on the ring-road environment")
    for d2 in d2_list:
        if not (1 <= d2 <= COMPARE_LFA_GRID):
            raise ConfigError(f"d2 = {d2} must lie in [1, {COMPARE_LFA_GRID}]")
    spec = replace(
        spec,
        algorithm="semisgd",
        env_size=COMPARE_LFA_GRID,
        steps=min(spec.steps, COMPARE_LFA_STEPS),
        expl_every=None,
    )
    env_fine = build_env(spec)
    fine_cfgs = _run_configs(spec, env_fine)
    coarse = [ring_road_env(int(d2)) for d2 in d2_list]
    coarse_cfgs = [_run_configs(spec, env) for env in coarse]
    out_dir = Path(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = ensure_reference(spec, env_fine, out_dir)
    rows = []
    for d2, env_coarse, cfgs in zip(d2_list, coarse, coarse_cfgs):
        # (a) grid discretization: plain tabular run on the coarsened game
        ref_map = resample_masses(int(d2), COMPARE_LFA_GRID)
        finals = []
        for cfg in cfgs:
            record = _run_one(env_coarse, cfg, ref.mu_star, ref_map=ref_map)
            finals.append(record.mse[-1])
        finals = np.array(finals)
        _check_finite(finals)
        rows.append(
            [str(int(d2)), "discretization", _fmt(finals.mean()), _fmt(_std(finals))]
        )
        # (b) PA-LFA: fine grid with a tan-normal measure basis
        basis = tan_normal_basis(env_fine.states, int(d2), c=spec.basis_c, v=spec.basis_v)
        finals = []
        for cfg in fine_cfgs:
            record = _run_one(env_fine, cfg, ref.mu_star, basis=basis)
            finals.append(record.mse[-1])
        finals = np.array(finals)
        _check_finite(finals)
        rows.append([str(int(d2)), "pa-lfa", _fmt(finals.mean()), _fmt(_std(finals))])
    _write_csv(out_dir / "compare_lfa.csv", ["d2", "method", "mse_mean", "mse_std"], rows)
    return out_dir


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_list(raw: str) -> List[int]:
    out = []
    for part in raw.replace(";", ",").split(","):
        part = part.strip()
        if part:
            out.append(int(part))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfglearn",
        description="Mean field game learning: SemiSGD, online FPI baselines, "
        "and a model-based reference solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("reference", "run", "sweep-k", "compare-lfa"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--env", type=str, default=None, choices=ENV_TAGS)
        p.add_argument("--algo", type=str, default=None)
        p.add_argument("--variant", type=str, default=None,
                       choices=("vanilla", "fp", "md", "er"))
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--inner-k", type=int, default=None)
        p.add_argument("--seeds", type=str, default=None, help="comma-separated seeds")
        p.add_argument("--seed-offset", type=int, default=None)
        p.add_argument("--cadence", type=int, default=None)
        p.add_argument("--no-exploitability", action="store_true")
        if name == "sweep-k":
            p.add_argument("--k-list", type=str, default=None)
        if name == "compare-lfa":
            p.add_argument("--d2-list", type=str, default=None)
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse config {args.config}: {exc}") from exc
    overrides = {
        "out": args.out,
        "env": args.env,
        "steps": args.steps,
        "alpha": args.alpha,
        "inner_k": getattr(args, "inner_k", None),
        "seed_offset": getattr(args, "seed_offset", None),
        "cadence": args.cadence,
    }
    if args.algo is not None:
        algo = args.algo
        if args.variant is not None and not algo.startswith("fpi"):
            raise ConfigError(f"--variant {args.variant} applies only to --algo fpi, not {algo!r}")
        if algo.startswith("fpi"):
            algo = f"fpi-{args.variant}" if args.variant is not None else (
                "fpi-vanilla" if algo == "fpi" else algo
            )
        overrides["algorithm"] = algo
    elif args.variant is not None:
        overrides["algorithm"] = f"fpi-{args.variant}"
    if args.seeds is not None:
        overrides["seeds"] = tuple(_int_list(args.seeds))
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    if args.no_exploitability:
        config["expl_every"] = None
    return spec_from_config(config)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        if args.command == "reference":
            out = cmd_reference(spec)
        elif args.command == "run":
            out = cmd_run(spec)
        elif args.command == "sweep-k":
            k_list = _int_list(args.k_list) if args.k_list else [1, 10, 100, 500]
            out = cmd_sweep_k(spec, k_list)
        else:
            d2_list = _int_list(args.d2_list) if args.d2_list else [5, 20]
            out = cmd_compare_lfa(spec, d2_list)
    except (ConfigError, NetworkLoadError, BasisError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MetricsError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    print(f"wrote results to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
