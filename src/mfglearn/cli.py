"""Experiment orchestration: config ingestion, seed fan-out, reference
reuse, and deterministic CSV emission.

Subcommands: ``reference``, ``run``, ``sweep-k``, ``compare-lfa``.
Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union,
                    get_args, get_origin, get_type_hints)

import numpy as np

from .core import ALGORITHMS, ConfigError, RunConfig, StepSizeSchedule
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
    schedule_b: float = 0.0
    inverse_temperature: Optional[float] = None
    inner_k: int = 500
    ball_radius: Optional[float] = None
    seeds: Tuple[int, ...] = tuple(range(10))
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
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.effective_seeds)) < len(self.seeds):
            raise ConfigError(f"repeated seeds {self.effective_seeds}")
        # as RunConfig does; sweep-k reads expl_every before it builds one
        if self.expl_every is not None and self.expl_every < 1:
            raise ConfigError("expl_every must be >= 1, or null for no exploitability")
        if self.basis not in VALUE_KEYS["basis"]:
            raise ConfigError(f"unknown basis {self.basis!r}")
        if self.reference_outer_iters < 1:
            raise ConfigError("reference_outer_iters must be >= 1")

    @property
    def effective_seeds(self) -> List[int]:
        return [int(s) + self.seed_offset for s in self.seeds]

    def temperature(self) -> float:
        if self.inverse_temperature is not None:
            return self.inverse_temperature
        return DEFAULT_INVERSE_TEMPERATURE[self.env]


# The ExperimentSpec fields each subcommand reads: its flags and the config
# keys it accepts come from its row, and any other key is a ConfigError.
_ALL_KEYS = tuple(ExperimentSpec.__dataclass_fields__)
SUBCOMMAND_KEYS = {
    "reference": ("env", "out", "env_size", "network", "toy_states", "toy_actions",
                  "toy_seed", "reference_outer_iters"),
    "run": _ALL_KEYS,
    # --k-list sets inner_k, and sweep_k.csv reads only each run's last snapshot
    "sweep-k": tuple(k for k in _ALL_KEYS if k not in ("inner_k", "cadence")),
    "compare-lfa": ("env", "out", "steps", "alpha", "schedule_b", "inverse_temperature",
                    "ball_radius", "seeds", "seed_offset", "basis_c", "basis_v",
                    "reference", "reference_outer_iters"),
}

# The keys that only some values of env, basis and algorithm read (SemiSGD
# takes one sample per pass), and what each value builds.  A SUBCOMMAND_KEYS
# row that holds the choosing field accepts only its chosen value's keys.
# The builders look constructors up by name, so bench/tracer.py can patch them.
VALUE_KEYS = {
    "env": {
        "ring-road": (("env_size",), lambda spec: ring_road_env(spec.env_size)),
        "flocking": (("env_size",), lambda spec: flocking_env(spec.env_size)),
        "sioux-falls": (("network",), lambda spec: sioux_falls_env(spec.network)),
        "toy": (("toy_states", "toy_actions", "toy_seed"),
                lambda spec: toy_finite_env(spec.toy_states, spec.toy_actions, spec.toy_seed)),
    },
    "basis": {"one-hot": ((), lambda spec, env: None),
              "tan-normal": (("basis_d2", "basis_c", "basis_v"), lambda spec, env: tan_normal_basis(
                  env.states, spec.basis_d2, c=spec.basis_c, v=spec.basis_v))},
    "algorithm": {a: ((), None) if a == "semisgd" else (("inner_k",), None) for a in ALGORITHMS},
}
ENV_TAGS = tuple(VALUE_KEYS["env"])


def _has_type(value, hint) -> bool:
    """Whether a config value has the type of a spec field: an int field
    takes no float or bool, a float field takes an int, an Optional field
    takes null, and ``seeds`` is a list of ints."""
    if get_origin(hint) is Union:  # Optional[X]
        return value is None or _has_type(value, get_args(hint)[0])
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_has_type(v, int) for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def spec_from_config(config: dict, command: str = "run", **overrides) -> ExperimentSpec:
    """The spec of ``command`` from a config object, each override over its
    key; a key outside its ``SUBCOMMAND_KEYS`` row, or a ``VALUE_KEYS`` key
    the chosen env, basis or algorithm does not read, is a ConfigError."""
    if not isinstance(config, dict):
        raise ConfigError("a config must be a JSON object")
    config = {**config, **overrides}
    read = set(SUBCOMMAND_KEYS[command])
    for field, rows in VALUE_KEYS.items():
        chosen = config.get(field, getattr(ExperimentSpec, field))
        if field in read and isinstance(chosen, str) and chosen in rows:
            read -= {key for keys, _ in rows.values() for key in keys} - set(rows[chosen][0])
    unread = set(config) - read
    if unread:
        raise ConfigError(f"{command} does not read the config keys {sorted(unread)}")
    hints = get_type_hints(ExperimentSpec)
    for key, value in config.items():
        if not _has_type(value, hints[key]):
            raise ConfigError(f"config key {key!r} cannot be {value!r}")
    if "seeds" in config:
        config["seeds"] = tuple(config["seeds"])
    return ExperimentSpec(**config)


def build_env(spec: ExperimentSpec) -> EnvironmentModel:
    return VALUE_KEYS["env"][spec.env][1](spec)


def default_ball_radius(env: EnvironmentModel) -> float:
    """sqrt(|S||A|) * R / (1 - gamma): the tabular implicit-regularization
    bound, inside which every on-policy value function lives."""
    d1 = env.n_states * env.n_actions
    return float(np.sqrt(d1) * env.reward_bound / (1.0 - env.gamma))


def make_run_config(spec: ExperimentSpec, env: EnvironmentModel, seed: int) -> RunConfig:
    radius = spec.ball_radius if spec.ball_radius is not None else default_ball_radius(env)
    return RunConfig(
        total_steps=spec.steps,
        schedule=StepSizeSchedule(spec.alpha, spec.schedule_b),
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


_CHUNK = 4096  # values per write of a reference file


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: List[str], rows: List[List[str]]):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_values(path: Path, values: np.ndarray) -> None:
    """One ``_fmt`` line per value of ``values`` in C order, joined and
    written in chunks of ``_CHUNK`` values, so no text of the whole array
    is ever held."""
    flat = values.ravel()
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, flat.size, _CHUNK):
            fh.write("".join(_fmt(x) + "\n" for x in flat[lo:lo + _CHUNK].tolist()))


def _check_finite(values) -> None:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise MetricsError("non-finite value in metric output")


def write_reference(out_dir: Path, env: EnvironmentModel, ref: ReferenceSolution):
    _check_finite(ref.expl_trace)
    _check_finite(ref.mu_star)
    _check_finite(ref.q_star)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [str(int(i)), _fmt(v)]
        for i, v in zip(ref.expl_iterations, ref.expl_trace)
    ]
    _write_csv(out_dir / "reference.csv", ["iteration", "exploitability"], rows)
    _write_values(out_dir / "mu_star.txt", ref.mu_star)
    _write_values(out_dir / "q_star.txt", ref.q_star)
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


def ensure_reference(
    spec: ExperimentSpec, env: EnvironmentModel, out_dir: Path
) -> np.ndarray:
    """The reference population mu*: the ``mu_star.txt`` of the ``reference``
    directory, one finite non-negative mass per state with a sum within 1e-9
    of one, whose ``meta.json`` must name this environment and
    ``reference_outer_iters`` (one without a budget does not, and one that
    is not a JSON object with ``env`` and ``n_states`` is a
    ``ConfigError``); else solved and written to ``out_dir/reference``."""
    outer_iters = spec.reference_outer_iters
    if spec.reference is None:
        ref = model_based_fpi_fp(env, outer_iters=outer_iters)
        write_reference(out_dir / "reference", env, ref)
        return ref.mu_star
    ref_dir = Path(spec.reference)
    meta_path = ref_dir / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        solved_for = meta["env"], meta["n_states"], meta.get("outer_iters")
    except (ValueError, KeyError, TypeError):  # not JSON, not an object, a key missing
        raise ConfigError(f"{meta_path} is not the meta.json of a reference") from None
    if solved_for != (env.name, env.n_states, outer_iters):
        raise ConfigError(
            f"reference {ref_dir} was not solved for {env.name} "
            f"with reference_outer_iters = {outer_iters}"
        )
    path = ref_dir / "mu_star.txt"
    try:
        mu = np.array([float(x) for x in path.read_text(encoding="utf-8").split()])
    except ValueError:  # a token that is not a number
        mu = np.array([])
    if (mu.shape != (env.n_states,) or not np.all(np.isfinite(mu)) or mu.min() < 0.0
            or abs(float(mu.sum()) - 1.0) > 1e-9):
        raise ConfigError(f"{path} does not hold {env.n_states} finite masses "
                          "that are non-negative and sum to one")
    return mu


def _run_configs(spec: ExperimentSpec, env: EnvironmentModel) -> List[RunConfig]:
    """One run config per seed.  Commands build them before they solve a
    reference or make a directory, so a config error leaves nothing behind."""
    return [make_run_config(spec, env, seed) for seed in spec.effective_seeds]


def _spec_basis(spec: ExperimentSpec, env: EnvironmentModel):
    """The measure basis the spec names; None stands for one-hot."""
    return VALUE_KEYS["basis"][spec.basis][1](spec, env)


def _run_seeds(env: EnvironmentModel, cfgs: List[RunConfig], mu_ref: np.ndarray,
               ref_map=None, basis=None) -> Iterator[RunRecord]:
    """Run each config in turn and yield its record once its MSE and
    exploitability are checked finite.

    Each run is one call of the module attribute ``run_semisgd`` or
    ``run_online_fpi``, one function that reads the algorithm from the
    config.  A generator, so a caller that only summarizes the records holds
    none but the last one it received.
    """
    for cfg in cfgs:
        # the same learner; the name only labels the benchmark's RUN_SPANS
        run = run_semisgd if cfg.algorithm == "semisgd" else run_online_fpi
        record = run(env, cfg, basis=basis, mu_ref=mu_ref, ref_map=ref_map)
        _check_finite(record.mse)
        _check_finite([e for e in record.expl if e is not None])
        yield record


class _Metrics(NamedTuple):
    """What the CSV rows read of a ``RunRecord``: its snapshot steps, MSE
    and exploitability, without the parameters."""

    steps: np.ndarray
    mse: np.ndarray
    expl: List[Optional[float]]


def _record_rows(record: RunRecord) -> List[List[str]]:
    return [[str(t), _fmt(m), "" if e is None else _fmt(e)]
            for t, m, e in zip(record.steps.tolist(), record.mse, record.expl)]


def _summary_row(records: Iterable[Union[RunRecord, _Metrics]], i: int) -> List[str]:
    """``[step, mse_mean, mse_std, expl_mean, expl_std]`` over the records at
    snapshot index i, as CSV cells.

    Reads ``records`` in one pass, so it consumes a ``_run_seeds`` generator
    one record at a time.  The exploitability cells are blank unless every
    record took one at that snapshot.
    """
    mse, expl = [], []
    for record in records:
        step = record.steps[i]
        mse.append(record.mse[i])
        expl.append(record.expl[i])
    mse = np.array(mse)
    row = [str(step), _fmt(mse.mean()), _fmt(_std(mse))]
    if any(e is None for e in expl):
        return row + ["", ""]
    expl = np.array(expl)
    return row + [_fmt(expl.mean()), _fmt(_std(expl))]


def _aggregate_rows(records: List[_Metrics]) -> List[List[str]]:
    return [_summary_row(records, i) for i in range(records[0].steps.size)]


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
    mu_ref = ensure_reference(spec, env, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for record in _run_seeds(env, cfgs, mu_ref, basis=basis):
        _write_csv(
            out_dir / f"run_seed{record.seed}.csv",
            ["step", "mse", "exploitability"],
            _record_rows(record),
        )
        records.append(_Metrics(record.steps, record.mse, record.expl))
    _write_csv(
        out_dir / "aggregate.csv",
        ["step", "mse_mean", "mse_std", "expl_mean", "expl_std"],
        _aggregate_rows(records),
    )
    return out_dir


def _check_sweep_list(values: List[int], name: str, top: int) -> None:
    """A sweep list holds distinct values in [1, top]: a repeated value
    would run its runs twice and write its row twice."""
    if not values or len(set(values)) < len(values) or not all(1 <= v <= top for v in values):
        raise ConfigError(f"the {name} list {values} must hold distinct values in [1, {top}]")


def cmd_sweep_k(spec: ExperimentSpec, k_list: List[int]) -> Path:
    """Fixed total budget T, one row per K: K, then the ``_summary_row`` of
    the seeds' final snapshots (mean and std of MSE and exploitability).

    The seeds of one K stream through ``_run_seeds``, one finished record
    held at a time.  ``sweep_k.csv`` reads only each run's last snapshot,
    so runs snapshot at t = 0 and t = T alone, and take exploitability at
    both when T is a multiple of ``expl_every``, else nowhere, leaving both
    exploitability cells blank.  A K outside [1, T] is a config error before
    a reference is solved or a directory made.
    """
    _check_sweep_list(k_list, "K", spec.steps)
    algorithm = "fpi-vanilla" if spec.algorithm == "semisgd" else spec.algorithm
    written = spec.expl_every is not None and spec.steps % spec.expl_every == 0
    spec = replace(spec, algorithm=algorithm, cadence=spec.steps,
                   expl_every=spec.steps if written else None)
    env = build_env(spec)
    sweep = [(k, _run_configs(replace(spec, inner_k=int(k)), env)) for k in k_list]
    basis = _spec_basis(spec, env)
    out_dir = Path(spec.out)
    mu_ref = ensure_reference(spec, env, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [str(int(k))] + _summary_row(_run_seeds(env, cfgs, mu_ref, basis=basis), -1)[1:]
        for k, cfgs in sweep
    ]
    _write_csv(
        out_dir / "sweep_k.csv",
        ["k", "mse_mean", "mse_std", "expl_mean", "expl_std"],
        rows,
    )
    return out_dir


def cmd_compare_lfa(spec: ExperimentSpec, d2_list: List[int]) -> Path:
    """Population-aware LFA versus grid discretization on speed control.

    For each d2, runs the spec's algorithm, SemiSGD as compare-lfa reads no
    ``algorithm`` key, (a) on the ring road coarsened to d2 cells and (b) on
    the ring road of ``COMPARE_LFA_GRID`` cells with a d2-dimensional
    tan-normal measure basis; final MSE is measured against the finer
    road's equilibrium in both arms.  ``compare_lfa.csv`` reads only each
    run's last MSE, so the runs snapshot at t = 0 and t = T alone.
    """
    _check_sweep_list(d2_list, "d2", COMPARE_LFA_GRID)
    if spec.env != "ring-road":
        raise ConfigError("compare-lfa is defined on the ring-road environment")
    if spec.steps > COMPARE_LFA_STEPS:
        print(f"compare-lfa: {spec.steps} steps asked for; each run takes "
              f"{COMPARE_LFA_STEPS} steps, the compare-lfa cap", file=sys.stderr)
    steps = min(spec.steps, COMPARE_LFA_STEPS)
    spec = replace(spec, steps=steps, cadence=max(steps, 1), expl_every=None)
    env_fine = ring_road_env(COMPARE_LFA_GRID)
    fine_cfgs = _run_configs(spec, env_fine)
    coarse = [ring_road_env(int(d2)) for d2 in d2_list]
    coarse_cfgs = [_run_configs(spec, env) for env in coarse]
    bases = [_spec_basis(replace(spec, basis="tan-normal", basis_d2=int(d2)), env_fine)
             for d2 in d2_list]
    out_dir = Path(spec.out)
    mu_ref = ensure_reference(spec, env_fine, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for d2, env_coarse, cfgs, basis in zip(d2_list, coarse, coarse_cfgs, bases):
        # (a) grid discretization: plain tabular run on the coarsened game
        ref_map = resample_masses(int(d2), COMPARE_LFA_GRID)
        runs = _run_seeds(env_coarse, cfgs, mu_ref, ref_map=ref_map)
        rows.append([str(int(d2)), "discretization"] + _summary_row(runs, -1)[1:3])
        # (b) PA-LFA: fine grid with a tan-normal measure basis
        runs = _run_seeds(env_fine, fine_cfgs, mu_ref, basis=basis)
        rows.append([str(int(d2)), "pa-lfa"] + _summary_row(runs, -1)[1:3])
    _write_csv(out_dir / "compare_lfa.csv", ["d2", "method", "mse_mean", "mse_std"], rows)
    return out_dir


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_list(raw: str) -> List[int]:
    """Comma-separated integers; anything else is a ConfigError."""
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"not a comma-separated list of integers: {raw!r}") from None


# the flag of each ExperimentSpec field that has one; its dest is the field
_FLAGS = {
    "out": ("--out", {"help": "output directory"}),
    "env": ("--env", {"choices": ENV_TAGS}),
    "steps": ("--steps", {"type": int}),
    "alpha": ("--alpha", {"type": float}),
    "seeds": ("--seeds", {"help": "comma-separated seeds"}),
    "seed_offset": ("--seed-offset", {"type": int}),
    "algorithm": ("--algo", {"help": " | ".join(ALGORITHMS)}),
    "expl_every": ("--no-exploitability", {"action": "store_const", "const": None}),
    "inner_k": ("--inner-k", {"type": int}),
    "cadence": ("--cadence", {"type": int}),
}


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes ``--config``, the flags of its ``SUBCOMMAND_KEYS``
    row and its sweep list.  A flag not given sets nothing."""
    parser = argparse.ArgumentParser(
        prog="mfglearn",
        description="Mean field game learning: SemiSGD, online FPI baselines, "
        "and a model-based reference solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, keys in SUBCOMMAND_KEYS.items():
        p = parsers[command] = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file")
        for key, (flag, kwargs) in _FLAGS.items():
            if key in keys:
                p.add_argument(flag, dest=key, **kwargs)
    parsers["sweep-k"].add_argument("--k-list", default="1,10,100,500")
    parsers["compare-lfa"].add_argument("--d2-list", default="5,20")
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The ``--config`` file's spec with each flag given over its key."""
    config = {}
    if "config" in args:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot parse config {args.config}: {exc}") from exc
    flags = {k: v for k, v in vars(args).items() if k in ExperimentSpec.__dataclass_fields__}
    if "seeds" in flags:
        flags["seeds"] = _int_list(flags["seeds"])
    return spec_from_config(config, args.command, **flags)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        if args.command == "reference":
            out = cmd_reference(spec)
        elif args.command == "run":
            out = cmd_run(spec)
        elif args.command == "sweep-k":
            out = cmd_sweep_k(spec, _int_list(args.k_list))
        else:
            out = cmd_compare_lfa(spec, _int_list(args.d2_list))
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
