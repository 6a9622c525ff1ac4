import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfglearn import cli
from mfglearn.cli import (
    ExperimentSpec,
    cmd_reference,
    cmd_run,
    cmd_sweep_k,
    main,
    spec_from_config,
)
from mfglearn.core import ConfigError
from mfglearn.envs import default_network_path, ring_road_env
from mfglearn.learners import ReferenceSolution

from .conftest import traced_peak, write_values_oracle


def toy_spec(out, **kwargs):
    defaults = dict(
        env="toy",
        steps=400,
        alpha=1e-2,
        seeds=(0, 1),
        cadence=100,
        expl_every=None,
        inner_k=20,
        out=str(out),
        reference_outer_iters=50,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def read(path):
    return path.read_text(encoding="utf-8")


def read_floats(path):
    return np.array([float(x) for x in read(path).split()])


def test_cmd_reference_writes_expected_files(tmp_path):
    out = cmd_reference(toy_spec(tmp_path / "ref"))
    assert (out / "reference.csv").exists()
    assert (out / "mu_star.txt").exists()
    assert (out / "q_star.txt").exists()
    mu = read_floats(out / "mu_star.txt")
    assert mu.shape == (3,)
    assert read_floats(out / "q_star.txt").shape == (3 * 2,)
    assert abs(mu.sum() - 1.0) <= 1e-12


def test_cmd_reference_toy_exploitability_trend(tmp_path):
    out = cmd_reference(toy_spec(tmp_path / "ref"))
    lines = read(out / "reference.csv").splitlines()
    assert lines[0] == "iteration,exploitability"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    tail = values[len(values) // 2 :]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_cmd_reference_deterministic_bytes(tmp_path):
    a = cmd_reference(toy_spec(tmp_path / "a"))
    b = cmd_reference(toy_spec(tmp_path / "b"))
    for name in ("reference.csv", "mu_star.txt", "q_star.txt", "meta.json"):
        assert read(a / name) == read(b / name)


def test_cmd_run_file_layout_and_row_count(tmp_path):
    spec = toy_spec(tmp_path / "run", steps=1000)
    out = cmd_run(spec)
    agg = read(out / "aggregate.csv").splitlines()
    assert agg[0] == "step,mse_mean,mse_std,expl_mean,expl_std"
    assert len(agg) == 1 + 11  # header plus t = 0, 100, ..., 1000
    for seed in (0, 1):
        lines = read(out / f"run_seed{seed}.csv").splitlines()
        assert lines[0] == "step,mse,exploitability"
        assert len(lines) == 1 + 11


def test_cmd_run_deterministic_bytes(tmp_path):
    a = cmd_run(toy_spec(tmp_path / "a"))
    b = cmd_run(toy_spec(tmp_path / "b"))
    for name in ("aggregate.csv", "run_seed0.csv", "run_seed1.csv"):
        assert read(a / name) == read(b / name)


def test_cmd_run_schema_identical_across_algorithms(tmp_path):
    a = cmd_run(toy_spec(tmp_path / "a", algorithm="semisgd"))
    b = cmd_run(toy_spec(tmp_path / "b", algorithm="fpi-vanilla"))
    header_a = read(a / "run_seed0.csv").splitlines()[0]
    header_b = read(b / "run_seed0.csv").splitlines()[0]
    assert header_a == header_b
    assert read(a / "aggregate.csv").splitlines()[0] == read(b / "aggregate.csv").splitlines()[0]


@pytest.mark.parametrize("env", ["toy", "ring-road"])
def test_cmd_run_fpi_k1_writes_the_semisgd_files(tmp_path, env):
    # with K = 1 every step ends a pass, so every snapshot, exploitability
    # included, sees both updates of that step, as SemiSGD's do
    common = dict(env=env, steps=400, alpha=1e-2, seeds=(0, 1), cadence=50,
                  expl_every=100, inner_k=1, reference_outer_iters=50)
    semisgd = cmd_run(ExperimentSpec(algorithm="semisgd", out=str(tmp_path / "semisgd"),
                                     **common))
    fpi = cmd_run(ExperimentSpec(algorithm="fpi-vanilla", reference=str(semisgd / "reference"),
                                 out=str(tmp_path / "fpi"), **common))
    names = ["aggregate.csv", "run_seed0.csv", "run_seed1.csv"]
    assert sorted(path.name for path in fpi.glob("*.csv")) == names
    for name in names:
        assert read(fpi / name) == read(semisgd / name), name


@pytest.mark.parametrize("algorithm", ["semisgd", "fpi-vanilla"])
@pytest.mark.parametrize("env", ["flocking", "sioux-falls"])
def test_cmd_run_end_to_end_on_flocking_and_sioux_falls(tmp_path, env, algorithm):
    # reduced sizes: the paper's other two games through the online learners,
    # Sioux Falls with its per-state feasible actions
    common = dict(env=env, algorithm=algorithm, inner_k=10, steps=3000, alpha=1e-2,
                  cadence=500, expl_every=1500, reference_outer_iters=3)
    out = cmd_run(ExperimentSpec(seeds=(0, 1), out=str(tmp_path / "both"), **common))
    for name in ("aggregate.csv", "run_seed0.csv", "run_seed1.csv"):
        header, *rows = [line.split(",") for line in read(out / name).splitlines()]
        assert [row[0] for row in rows] == [str(t) for t in range(0, 3001, 500)]
        mse = [h for h in header if not h.startswith("expl")]
        for row in rows:
            filled = [h for h, cell in zip(header, row) if cell]
            assert filled == (header if row[0] in ("0", "1500", "3000") else mse), row
            assert all(np.isfinite(float(cell)) for cell in row if cell)
    for seed in (0, 1):
        single = cmd_run(ExperimentSpec(seeds=(0,), seed_offset=seed,
                                        reference=str(out / "reference"),
                                        out=str(tmp_path / f"single{seed}"), **common))
        assert read(single / f"run_seed{seed}.csv") == read(out / f"run_seed{seed}.csv")


def test_cmd_run_all_cells_finite(tmp_path):
    out = cmd_run(toy_spec(tmp_path / "run", expl_every=200))
    for line in read(out / "aggregate.csv").splitlines()[1:]:
        for cell in line.split(","):
            if cell:
                assert np.isfinite(float(cell))


def test_cmd_run_reuses_cached_reference(tmp_path):
    ref_dir = cmd_reference(toy_spec(tmp_path / "ref"))
    spec = toy_spec(tmp_path / "run", reference=str(ref_dir))
    out = cmd_run(spec)
    assert not (out / "reference").exists()


def test_cached_reference_of_another_env_is_recomputed(tmp_path):
    # ring-road-50 and flocking-50 have the same number of states
    common = dict(steps=200, seeds=(0,), cadence=100, expl_every=None,
                  reference_outer_iters=5)
    cmd_reference(ExperimentSpec(env="ring-road", out=str(tmp_path / "shared" / "reference"),
                                 **common))
    shared = cmd_run(ExperimentSpec(env="flocking", out=str(tmp_path / "shared"), **common))
    fresh = cmd_run(ExperimentSpec(env="flocking", out=str(tmp_path / "fresh"), **common))
    meta = json.loads(read(shared / "reference" / "meta.json"))
    assert meta["env"] == "flocking-50"
    assert read(shared / "run_seed0.csv") == read(fresh / "run_seed0.csv")


def test_explicit_reference_of_another_env_is_a_config_error(tmp_path):
    ref_dir = cmd_reference(toy_spec(tmp_path / "ref"))
    with pytest.raises(ConfigError, match="toy-3x2-seed8"):
        cmd_run(toy_spec(tmp_path / "run", reference=str(ref_dir), toy_seed=8))
    assert not (tmp_path / "run").exists()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reference": str(ref_dir), "toy_seed": 8}))
    assert main(["run", "--env", "toy", "--config", str(config),
                 "--out", str(tmp_path / "cli")]) == 2
    assert not (tmp_path / "cli").exists()


def test_cached_reference_of_another_budget_is_recomputed(tmp_path):
    cmd_reference(toy_spec(tmp_path / "shared" / "reference", reference_outer_iters=300))
    shared = cmd_run(toy_spec(tmp_path / "shared", reference_outer_iters=5))
    meta = json.loads(read(shared / "reference" / "meta.json"))
    assert meta["outer_iters"] == 5


def test_explicit_reference_of_another_budget_is_a_config_error(tmp_path):
    ref_dir = cmd_reference(toy_spec(tmp_path / "ref", reference_outer_iters=300))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reference": str(ref_dir), "reference_outer_iters": 5,
                                  "steps": 200, "seeds": [0]}))
    assert main(["run", "--env", "toy", "--config", str(config),
                 "--out", str(tmp_path / "cli")]) == 2
    assert not (tmp_path / "cli").exists()


def test_explicit_reference_of_another_network_is_a_config_error(tmp_path, capsys):
    # a routing game's name carries its network: a reference solved on the
    # bundled network is not read for one with edge 1 -> 2 moved to 1 -> 3
    ref_dir = cmd_reference(ExperimentSpec(env="sioux-falls", reference_outer_iters=30,
                                           out=str(tmp_path / "ref")))
    network = tmp_path / "net.txt"
    network.write_text(read(default_network_path()).replace("\n1 2\n", "\n1 3\n", 1))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"network": str(network), "reference": str(ref_dir),
                                  "reference_outer_iters": 30}))
    out = tmp_path / "out"
    assert main(["run", "--env", "sioux-falls", "--steps", "100", "--seeds", "0",
                 "--no-exploitability", "--config", str(config), "--out", str(out)]) == 2
    assert (f"reference {ref_dir} was not solved for sioux-falls-68ee614d45a8"
            in capsys.readouterr().err)
    assert not out.exists()


def test_out_holding_a_reference_solves_it_again(tmp_path):
    # a reference left in --out is not read: every byte comes from the spec
    fresh = cmd_run(toy_spec(tmp_path / "fresh"))
    stale = tmp_path / "stale" / "reference"
    stale.mkdir(parents=True)
    for path in (fresh / "reference").iterdir():
        (stale / path.name).write_bytes(path.read_bytes())
    (stale / "mu_star.txt").write_text("0.5\n0.25\n0.25\n", encoding="utf-8")
    out = cmd_run(toy_spec(tmp_path / "stale"))
    for path in fresh.rglob("*"):
        if path.is_file():
            assert (out / path.relative_to(fresh)).read_bytes() == path.read_bytes(), path


def test_explicit_reference_needs_only_meta_and_mu_star(tmp_path):
    ref_dir = cmd_reference(toy_spec(tmp_path / "ref"))
    slim = tmp_path / "slim"
    slim.mkdir()
    for name in ("meta.json", "mu_star.txt"):
        (slim / name).write_bytes((ref_dir / name).read_bytes())
    outputs = []
    for reference in (ref_dir, slim):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reference": str(reference), "reference_outer_iters": 50,
                                      "steps": 400, "seeds": [0, 1], "expl_every": 200}))
        out = tmp_path / f"run-{reference.name}"
        assert main(["run", "--env", "toy", "--config", str(config), "--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(outputs[0]) == ["aggregate.csv", "run_seed0.csv", "run_seed1.csv"]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1],
    lambda lines: lines + ["0.0"],
    lambda lines: ["nan"] + lines[1:],
    lambda lines: ["inf"] + lines[1:],
    lambda lines: ["x"] + lines[1:],
    lambda lines: ["-0.5", "1.0", "0.5"],
    lambda lines: ["0.5", "0.5", "0.5"],
], ids=["truncated", "one-too-many", "nan", "inf", "not-a-number", "negative", "sum-not-one"])
def test_explicit_mu_star_of_the_wrong_length_or_not_finite_is_a_config_error(
    tmp_path, capsys, edit
):
    ref_dir = cmd_reference(toy_spec(tmp_path / "ref"))
    mu_star = ref_dir / "mu_star.txt"
    mu_star.write_text("".join(line + "\n" for line in edit(read(mu_star).split())),
                       encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reference": str(ref_dir), "reference_outer_iters": 50,
                                  "steps": 200, "seeds": [0]}))
    out = tmp_path / "out"
    assert main(["run", "--env", "toy", "--config", str(config), "--out", str(out)]) == 2
    assert "does not hold 3 finite masses" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("meta", [
    "not json",
    "[]",
    "{}",
    '{"env": "toy-3x2-seed7", "outer_iters": 50}',
], ids=["not-json", "a-list", "empty-object", "no-n-states"])
def test_malformed_explicit_meta_is_a_config_error(tmp_path, capsys, meta):
    ref_dir = cmd_reference(toy_spec(tmp_path / "ref"))
    (ref_dir / "meta.json").write_text(meta, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reference": str(ref_dir), "reference_outer_iters": 50,
                                  "steps": 200, "seeds": [0]}))
    out = tmp_path / "out"
    assert main(["run", "--env", "toy", "--config", str(config), "--out", str(out)]) == 2
    assert "is not the meta.json of a reference" in capsys.readouterr().err
    assert not out.exists()


def test_reference_files_written_in_chunks_match_the_joined_text(tmp_path):
    # q_star spans three chunks; the extreme values and signed zeros sit on
    # chunk edges
    env = ring_road_env(100)
    rng = np.random.default_rng(4)
    q = rng.standard_normal(env.n_states * env.n_actions)
    q *= 10.0 ** rng.integers(-300, 300, q.size)
    q[[0, cli._CHUNK - 1, cli._CHUNK, 2 * cli._CHUNK - 1, 2 * cli._CHUNK, -1]] = [
        -0.0, 5e-324, 1e308, 0.1, -1e308, 0.0]
    assert q.size > 2 * cli._CHUNK
    mu = rng.dirichlet(np.ones(env.n_states))
    mu[:4] = [-0.0, 5e-324, 0.1, 0.0]
    ref = ReferenceSolution(
        q_star=q.reshape(env.n_states, env.n_actions), mu_star=mu, iterations=1,
        final_exploitability=0.0, outer_iters=1, converged=True,
        expl_iterations=np.array([0]), expl_trace=np.array([0.0]))
    cli.write_reference(tmp_path / "chunked", env, ref)
    for name, values in (("mu_star.txt", mu), ("q_star.txt", q)):
        write_values_oracle(tmp_path / name, values)
        assert (tmp_path / "chunked" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_write_reference_of_ring_road_200_peaks_below_one_mb(tmp_path, ring200_reference):
    # a memory gate: the text of all 40,000 values of q_star is never held
    # at once (one join of it traces 4.3 MB)
    _, peak = traced_peak(cli.write_reference, tmp_path, *ring200_reference)
    assert peak < 1_000_000


def test_a_reference_that_cannot_be_read_or_solved_leaves_nothing(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reference": str(tmp_path / "nope")}))
    out = tmp_path / "out"
    assert main(["sweep-k", "--env", "toy", "--k-list", "1", "--steps", "100",
                 "--config", str(config), "--out", str(out)]) == 4
    assert not out.exists()

    from dataclasses import replace

    solve = cli.model_based_fpi_fp

    def non_finite_solve(env, **kwargs):
        return replace(solve(env, **kwargs), mu_star=np.full(env.n_states, np.nan))

    monkeypatch.setattr(cli, "model_based_fpi_fp", non_finite_solve)
    for argv in (["run", "--env", "toy"], ["sweep-k", "--env", "toy", "--k-list", "1"],
                 ["compare-lfa", "--env", "ring-road", "--d2-list", "5"]):
        assert main([*argv, "--steps", "100", "--out", str(out)]) == 3
        assert not out.exists()


def test_reference_meta_records_budget_and_convergence(tmp_path):
    toy = json.loads(read(cmd_reference(toy_spec(tmp_path / "toy")) / "meta.json"))
    assert (toy["outer_iters"], toy["converged"]) == (50, True)
    sioux = cmd_reference(ExperimentSpec(env="sioux-falls", reference_outer_iters=3,
                                         out=str(tmp_path / "sioux")))
    meta = json.loads(read(sioux / "meta.json"))
    assert (meta["outer_iters"], meta["converged"]) == (3, False)
    assert meta["converged"] is False


def test_cmd_sweep_k_k1_row_matches_semisgd_final(tmp_path):
    run_out = cmd_run(toy_spec(tmp_path / "run"))
    sweep_out = cmd_sweep_k(toy_spec(tmp_path / "sweep"), [1, 20])
    final_row = read(run_out / "aggregate.csv").splitlines()[-1].split(",")
    k1_row = read(sweep_out / "sweep_k.csv").splitlines()[1].split(",")
    assert k1_row[0] == "1"
    assert k1_row[1] == final_row[1]  # identical mse_mean bytes
    assert k1_row[2] == final_row[2]


def test_cmd_sweep_k_rejects_empty_list(tmp_path):
    with pytest.raises(ConfigError):
        cmd_sweep_k(toy_spec(tmp_path / "sweep"), [])


def test_spec_validation_errors_name_fields():
    with pytest.raises(ConfigError) as err:
        spec_from_config({"envv": "toy"})
    assert "envv" in str(err.value)
    with pytest.raises(ConfigError):
        spec_from_config({"env": "mars"})
    with pytest.raises(ConfigError):
        spec_from_config({"env": "toy", "seeds": []})


def test_main_exit_codes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"env": "toy", "steps": 100, "alpha": 0.01,
                                  "seeds": [0], "expl_every": None,
                                  "reference_outer_iters": 30,
                                  "out": str(tmp_path / "out")}))
    assert main(["run", "--config", str(config)]) == 0
    assert (tmp_path / "out" / "aggregate.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["sweep-k", "--config", str(config), "--k-list", ""]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 4

    malformed = tmp_path / "malformed.json"
    for seeds in (5, ["x"]):
        malformed.write_text(json.dumps({"env": "toy", "seeds": seeds}))
        assert main(["run", "--config", str(malformed)]) == 2


@pytest.mark.parametrize("argv", [
    ["run", "--env", "toy", "--seeds", "0,x"],
    ["sweep-k", "--env", "toy", "--k-list", "1,x"],
    ["compare-lfa", "--env", "ring-road", "--d2-list", "5;20"],
])
def test_malformed_int_list_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--steps", "100", "--out", str(out)]) == 2
    assert "config error: not a comma-separated list of integers" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_integer_in_a_network_file_is_a_config_error(tmp_path, capsys):
    network = tmp_path / "net.txt"
    network.write_text("nodes 24\nedges 1\n1 x\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"network": str(network)}))
    out = tmp_path / "out"
    assert main(["reference", "--env", "sioux-falls", "--config", str(config),
                 "--out", str(out)]) == 2
    assert f"config error: {network}:3: cannot parse '1 x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"steps": "100"},
    {"alpha": "0.1"},
    {"env_size": 3.0},
    {"steps": 100.0},
    {"steps": True},
    {"alpha": False},
    {"expl_every": 2.5},
    {"seeds": [0, 1.0]},
    {"seeds": "0,1"},
    {"network": 3},
    [{"env": "toy"}],
    # NaN and Infinity parse as floats but fail the range checks
    {"inverse_temperature": float("nan")},
    {"inverse_temperature": float("inf")},
    {"ball_radius": float("nan")},
    {"schedule_b": float("nan")},
    {"schedule_b": float("inf")},
])
def test_config_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--env", "toy", "--config", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_config_types_accept_ints_for_floats_and_null_for_optionals():
    spec = spec_from_config({"inverse_temperature": 100, "schedule_b": 1, "ball_radius": None,
                             "expl_every": None, "seeds": [3, 4]})
    assert (spec.inverse_temperature, spec.schedule_b, spec.seeds) == (100, 1, (3, 4))
    assert spec.ball_radius is None and spec.expl_every is None


@pytest.mark.parametrize("config", [{"expl_every": 0}, {"expl_every": -7}])
def test_expl_every_below_one_leaves_nothing(tmp_path, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    for argv in (["run", "--env", "toy"], ["sweep-k", "--env", "toy", "--k-list", "1"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--steps", "100", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--env", "toy"],
    ["sweep-k", "--env", "toy", "--k-list", "1"],
    ["compare-lfa", "--env", "ring-road", "--d2-list", "5"],
])
def test_repeated_seeds_are_a_config_error(tmp_path, capsys, argv):
    # a repeated seed would overwrite its run_seed CSV and count twice in the means
    out = tmp_path / "out"
    assert main([*argv, "--steps", "100", "--seeds", "0,0,1", "--out", str(out)]) == 2
    assert "config error: repeated seeds [0, 0, 1]" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="repeated seeds"):
        ExperimentSpec(seeds=(4, 5, 4), seed_offset=2)


def test_unknown_algorithm_in_a_config_is_a_config_error_for_every_subcommand(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"algorithm": "fpi", "steps": 100, "seeds": [0]}))
    for argv in (["reference", "--env", "toy"], ["run", "--env", "toy"],
                 ["sweep-k", "--env", "toy", "--k-list", "1"],
                 ["compare-lfa", "--env", "ring-road", "--d2-list", "5"]):
        out = tmp_path / argv[0]
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


# each subcommand with a config key it does not read; compare-lfa's keys hold
# the values it runs with, so an overridden key is an error even when it agrees
@pytest.mark.parametrize("argv,config", [
    (["reference", "--env", "toy"], {"steps": 5}),
    (["sweep-k", "--env", "toy", "--k-list", "1"], {"inner_k": 10}),
    (["sweep-k", "--env", "toy", "--k-list", "1"], {"cadence": 10}),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5"], {"env_size": 200}),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5"], {"algorithm": "semisgd"}),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5"], {"expl_every": None}),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5"], {"basis_d2": 5}),
    # SemiSGD takes one sample per pass
    (["run", "--env", "toy", "--algo", "semisgd"], {"inner_k": 10}),
])
def test_a_config_key_the_subcommand_does_not_read_leaves_nothing(tmp_path, capsys, argv,
                                                                  config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    (key,) = config
    assert f"config error: {argv[0]} does not read the config keys ['{key}']" in (
        capsys.readouterr().err)
    assert not out.exists()


# the ExperimentSpec fields each subcommand reads, with a valid value for each
CONFIG_VALUES = {
    "env": "ring-road", "env_size": 20, "network": None, "toy_states": 4, "toy_actions": 3,
    "toy_seed": 1, "algorithm": "fpi-fp", "steps": 300, "alpha": 0.01, "schedule_b": 0.5,
    "inverse_temperature": 10.0, "inner_k": 30, "ball_radius": 5.0, "seeds": [1, 2],
    "seed_offset": 3, "cadence": 50, "expl_every": 7, "basis": "tan-normal", "basis_d2": 4,
    "basis_c": 1.1, "basis_v": 0.5, "reference": "ref", "reference_outer_iters": 9, "out": "o",
}
SUBCOMMAND_ROWS = {
    "reference": {"env", "out", "env_size", "network", "toy_states", "toy_actions", "toy_seed",
                  "reference_outer_iters"},
    "run": set(CONFIG_VALUES),
    "sweep-k": set(CONFIG_VALUES) - {"inner_k", "cadence"},
    "compare-lfa": {"env", "out", "steps", "alpha", "schedule_b", "inverse_temperature",
                    "ball_radius", "seeds", "seed_offset", "basis_c", "basis_v", "reference",
                    "reference_outer_iters"},
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ROWS))
def test_a_config_of_every_key_in_a_row_parses(tmp_path, command):
    assert set(CONFIG_VALUES) == set(ExperimentSpec.__dataclass_fields__)
    assert set(cli.SUBCOMMAND_KEYS[command]) == SUBCOMMAND_ROWS[command]
    config = {key: CONFIG_VALUES[key] for key in SUBCOMMAND_ROWS[command]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    spec = cli.spec_from_args(cli.build_parser().parse_args([command, "--config", str(path)]))
    assert {key: getattr(spec, key) for key in config} == {
        key: tuple(value) if key == "seeds" else value for key, value in config.items()}


def test_the_benchmark_configs_run(tmp_path):
    # the subcommands and config keys that bench/run.py passes, at small sizes
    def run(argv, config):
        path = tmp_path / f"{argv[0]}.json"
        path.write_text(json.dumps(config))
        return main([*map(str, argv), "--config", str(path)])

    ring200, toy = tmp_path / "ring-road-200", tmp_path / "toy-ref"
    assert run(["reference", "--env", "ring-road", "--out", ring200], {"env_size": 200}) == 0
    assert main(["reference", "--env", "toy", "--out", str(toy)]) == 0
    assert run(["run", "--env", "toy", "--algo", "semisgd", "--steps", "100", "--seeds", "0,1",
                "--out", tmp_path / "run"], {"reference": str(toy)}) == 0
    assert run(["sweep-k", "--env", "toy", "--k-list", "1,10", "--steps", "100",
                "--seeds", "0", "--out", tmp_path / "sweep"], {"reference": str(toy)}) == 0
    assert run(["compare-lfa", "--env", "ring-road", "--d2-list", "5", "--steps", "100",
                "--seeds", "0", "--out", tmp_path / "lfa"], {"reference": str(ring200)}) == 0
    assert not (tmp_path / "sweep" / "reference").exists()
    assert not (tmp_path / "lfa" / "reference").exists()


@pytest.mark.parametrize("argv,runner,message", [
    (["sweep-k", "--env", "toy", "--k-list", "10,10"], "run_online_fpi",
     "the K list [10, 10] must hold distinct values in [1, 100]"),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5,5"], "run_semisgd",
     "the d2 list [5, 5] must hold distinct values in [1, 200]"),
])
def test_a_repeated_sweep_value_is_a_config_error(tmp_path, capsys, monkeypatch, argv, runner,
                                                  message):
    # a repeated value would run its runs twice and write its row twice
    def never(*args, **kwargs):
        raise AssertionError("ran a sweep with a repeated value")

    monkeypatch.setattr(cli, runner, never)
    monkeypatch.setattr(cli, "ensure_reference", never)
    out = tmp_path / "out"
    assert main([*argv, "--steps", "100", "--seeds", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_sweep_k_of_zero_steps_names_the_k_list(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep-k", "--env", "toy", "--k-list", "1,10", "--steps", "0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: the K list [1, 10] must hold distinct values in [1, 0]\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,config", [
    (["run", "--env", "toy", "--seeds=-1"], {}),
    (["run", "--env", "toy", "--seed-offset=-1"], {}),
    (["sweep-k", "--env", "toy", "--k-list", "1", "--seeds=-1"], {}),
    (["sweep-k", "--env", "toy", "--k-list", "1"], {"seed_offset": -1}),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5", "--seeds=-1"], {}),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5", "--seed-offset=-1"], {}),
    (["reference", "--env", "toy"], {"toy_seed": -1}),
])
def test_negative_seed_is_a_config_error_that_leaves_nothing(tmp_path, capsys, argv, config):
    steps = {} if argv[0] == "reference" else {"steps": 100}  # reference reads no steps
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**steps, **config}))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["toy_states", "toy_actions"])
def test_toy_game_past_six_states_or_actions_is_a_config_error(tmp_path, capsys, key):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: 7}))
    out = tmp_path / "out"
    assert main(["reference", "--env", "toy", "--config", str(config), "--out", str(out)]) == 2
    assert "config error: toy environment is limited" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reference", "--env", "toy"],
    ["run", "--env", "toy"],
    ["sweep-k", "--env", "toy", "--k-list", "1,10"],
    ["compare-lfa", "--env", "ring-road", "--d2-list", "5"],
])
def test_zero_reference_budget_is_a_config_error_that_leaves_nothing(tmp_path, capsys, argv):
    run = {} if argv[0] == "reference" else {"steps": 100, "seeds": [0]}  # reference reads neither
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"reference_outer_iters": 0, **run}))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 2
    assert "reference_outer_iters must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_main_type_error_in_subcommand_is_a_traceback(tmp_path, monkeypatch):
    def broken(spec):
        raise TypeError("program bug")

    monkeypatch.setattr(cli, "cmd_run", broken)
    with pytest.raises(TypeError, match="program bug"):
        main(["run", "--env", "toy", "--out", str(tmp_path / "out")])


def test_main_flag_overrides(tmp_path):
    out = tmp_path / "cli_out"
    code = main([
        "run", "--env", "toy", "--steps", "200", "--alpha", "0.01",
        "--seeds", "3,4", "--cadence", "50", "--no-exploitability",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "run_seed3.csv").exists()
    assert (out / "run_seed4.csv").exists()
    for line in read(out / "run_seed3.csv").splitlines()[1:]:
        assert line.endswith(",")  # exploitability column disabled


def test_seed_offset_shifts_seeds(tmp_path):
    spec = toy_spec(tmp_path / "o", seeds=(0, 1), seed_offset=100)
    out = cmd_run(spec)
    assert (out / "run_seed100.csv").exists()
    assert (out / "run_seed101.csv").exists()


def test_compare_lfa_discretization_identity_at_native_resolution(
    tmp_path, ring200_reference_dir
):
    # coarsening to the reference granularity is a plain tabular run
    from dataclasses import replace

    from mfglearn.cli import cmd_compare_lfa, make_run_config
    from mfglearn.envs import ring_road_env
    from mfglearn.learners import run_semisgd

    spec = ExperimentSpec(
        env="ring-road", steps=300, alpha=1e-3, seeds=(0, 1), cadence=100,
        expl_every=None, reference=str(ring200_reference_dir),
        out=str(tmp_path / "native"),
    )
    out = cmd_compare_lfa(spec, [200])
    row = next(
        line for line in read(out / "compare_lfa.csv").splitlines()[1:]
        if line.startswith("200,discretization")
    )
    got_mean = float(row.split(",")[2])

    env = ring_road_env(200)
    mu_ref = read_floats(ring200_reference_dir / "mu_star.txt")
    run_spec = replace(spec, algorithm="semisgd", env_size=200)
    finals = [
        run_semisgd(env, make_run_config(run_spec, env, seed), mu_ref=mu_ref).mse[-1]
        for seed in (0, 1)
    ]
    assert got_mean == np.mean(finals)


def test_compare_lfa_d2_one_freezes_population(ring200_reference_dir):
    from mfglearn.cli import make_run_config
    from mfglearn.envs import ring_road_env
    from mfglearn.learners import run_semisgd
    from mfglearn.lfa import tan_normal_basis

    env = ring_road_env(200)
    mu_ref = read_floats(ring200_reference_dir / "mu_star.txt")
    basis = tan_normal_basis(env.states, 1)
    spec = ExperimentSpec(env="ring-road", env_size=200, steps=400, alpha=1e-3,
                          seeds=(0,), cadence=100, expl_every=None, out="unused")
    rec = run_semisgd(env, make_run_config(spec, env, 0), basis=basis, mu_ref=mu_ref)
    np.testing.assert_array_equal(rec.final.eta, [1.0])
    assert np.all(rec.mse == rec.mse[0])


def test_cmd_run_with_tan_normal_basis(tmp_path):
    spec = ExperimentSpec(
        env="ring-road", steps=300, alpha=1e-3, seeds=(0,), cadence=100,
        expl_every=None, basis="tan-normal", basis_d2=4,
        reference_outer_iters=40, out=str(tmp_path / "lfa_run"),
    )
    out = cmd_run(spec)
    lines = read(out / "run_seed0.csv").splitlines()
    assert len(lines) == 1 + 4
    assert all(np.isfinite(float(line.split(",")[1])) for line in lines[1:])


@pytest.mark.parametrize("config", [
    {"basis_c": float("nan")},
    {"basis_c": float("inf")},
    {"basis_v": float("nan")},
    {"basis_v": float("inf")},
])
def test_non_finite_tan_normal_basis_is_a_config_error(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"basis": "tan-normal", **config}))
    out = tmp_path / "out"
    assert main(["run", "--env", "ring-road", "--steps", "100", "--config", str(path),
                 "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_tan_normal_basis_rejected_for_graph_envs(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"env": "toy", "steps": 50, "alpha": 0.01,
                                  "seeds": [0], "basis": "tan-normal",
                                  "expl_every": None, "reference_outer_iters": 20,
                                  "out": str(tmp_path / "o")}))
    assert main(["run", "--config", str(config)]) == 2
    assert not (tmp_path / "o").exists()


def _counting(monkeypatch, module, name, log):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        log.append(out)
        return out

    monkeypatch.setattr(module, name, counted)


def test_sweep_k_computes_exploitability_only_where_written(tmp_path, monkeypatch):
    from dataclasses import replace

    from mfglearn import learners
    from mfglearn.cli import _fmt, _std, build_env, make_run_config
    from mfglearn.learners import run_online_fpi

    ref_dir = cmd_reference(toy_spec(tmp_path / "ref"))
    spec = toy_spec(tmp_path / "sweep", expl_every=100, reference=str(ref_dir))
    env = build_env(spec)
    mu_ref = read_floats(ref_dir / "mu_star.txt")
    k_list = [1, 20]
    # the final exploitability of runs snapshotting every expl_every steps
    want = []
    for k in k_list:
        k_spec = replace(spec, algorithm="fpi-vanilla", inner_k=k)
        finals = np.array([
            run_online_fpi(env, make_run_config(k_spec, env, seed), mu_ref=mu_ref).expl[-1]
            for seed in spec.effective_seeds
        ])
        want.append([_fmt(finals.mean()), _fmt(_std(finals))])

    expl_calls, records = [], []
    _counting(monkeypatch, learners, "_exploitability_at", expl_calls)
    _counting(monkeypatch, cli, "run_online_fpi", records)
    out = cmd_sweep_k(spec, k_list)
    assert len(records) == len(k_list) * len(spec.effective_seeds)
    # sweep_k.csv reads only the last snapshot, so no run takes one in between
    assert all(r.steps.tolist() == [0, spec.steps] for r in records)
    assert all(None not in r.expl for r in records)
    assert len(expl_calls) == 2 * len(records)
    rows = [line.split(",") for line in read(out / "sweep_k.csv").splitlines()[1:]]
    assert [row[3:] for row in rows] == want

    # T = 400 is not a multiple of 300: the field stays blank, nothing is computed
    expl_calls.clear()
    out = cmd_sweep_k(replace(spec, expl_every=300, out=str(tmp_path / "blank")), k_list)
    assert expl_calls == []
    for line in read(out / "sweep_k.csv").splitlines()[1:]:
        assert line.endswith(",,")


def test_compare_lfa_computes_no_exploitability(tmp_path, monkeypatch, ring200_reference_dir):
    from mfglearn import learners
    from mfglearn.cli import cmd_compare_lfa

    expl_calls, records = [], []
    _counting(monkeypatch, learners, "_exploitability_at", expl_calls)
    _counting(monkeypatch, cli, "run_semisgd", records)
    spec = ExperimentSpec(env="ring-road", steps=200, alpha=1e-3, seeds=(0,), cadence=100,
                          expl_every=100, reference=str(ring200_reference_dir),
                          out=str(tmp_path / "lfa"))
    cmd_compare_lfa(spec, [5])
    assert len(records) == 2
    assert all(r.steps.tolist() == [0, spec.steps] for r in records)
    assert all(r.expl == [None, None] for r in records)
    assert expl_calls == []


@pytest.mark.parametrize("argv,runner", [
    (["sweep-k", "--env", "toy", "--k-list", "1,0"], "run_online_fpi"),
    (["sweep-k", "--env", "toy", "--k-list", "1,1000"], "run_online_fpi"),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5,0"], "run_semisgd"),
    (["run", "--env", "toy", "--algo", "bogus"], "run_online_fpi"),
    (["run", "--env", "toy", "--alpha", "1.5"], "run_semisgd"),
    (["sweep-k", "--env", "toy", "--k-list", "1,10", "--alpha", "1.5"], "run_online_fpi"),
    (["compare-lfa", "--env", "ring-road", "--alpha", "1.5"], "run_semisgd"),
    (["run", "--env", "toy", "--algo", "fpi-vanilla"], "run_online_fpi"),  # default K 500 > T
])
def test_sweep_lists_are_validated_before_the_first_run(tmp_path, monkeypatch, argv, runner):
    # sweep lists and run configs alike: a config error solves no reference
    # and leaves no output directory behind
    def never(*args, **kwargs):
        raise AssertionError("ran before the spec was validated")

    monkeypatch.setattr(cli, runner, never)
    monkeypatch.setattr(cli, "ensure_reference", never)
    assert main([*argv, "--steps", "100", "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_compare_lfa_builds_its_bases_before_the_first_side_effect(tmp_path, monkeypatch):
    # a bad PA-LFA basis is a config error before any reference, run or directory
    def never(*args, **kwargs):
        raise AssertionError("ran before the bases were built")

    for name in ("ensure_reference", "run_semisgd", "run_online_fpi"):
        monkeypatch.setattr(cli, name, never)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"basis_v": -1.0}))
    out = tmp_path / "out"
    assert main(["compare-lfa", "--env", "ring-road", "--d2-list", "5", "--steps", "100",
                 "--seeds", "0", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()


def test_compare_lfa_says_when_it_caps_the_steps(tmp_path, capsys, ring200_reference_dir):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"reference": str(ring200_reference_dir)}))
    outputs = {}
    for steps in (20000, 10000):
        out = tmp_path / str(steps)
        assert main(["compare-lfa", "--env", "ring-road", "--d2-list", "5", "--seeds", "0",
                     "--steps", str(steps), "--config", str(config), "--out", str(out)]) == 0
        outputs[steps] = {path.name: path.read_bytes() for path in out.iterdir()}
        outputs[steps, "err"] = capsys.readouterr().err
    assert outputs[20000, "err"] == (
        "compare-lfa: 20000 steps asked for; each run takes 10000 steps, "
        "the compare-lfa cap\n"
    )
    assert outputs[10000, "err"] == ""
    assert outputs[20000] == outputs[10000]


# SHA-256 of every output file of twelve small specs, recorded with numpy 2.4
# on x86-64.  Speed changes must keep result bytes; a change that moves them
# on purpose updates these digests and says why.  Entries four to seven pin
# the ER policy, a grid's cell width (flocking), a derived tan-normal Gram
# matrix and a Sioux Falls reference.  Entries eight and nine run 10,000
# steps, about 20,000 uniforms per run, so their draws cross many of the
# blocks in which a run takes its uniforms from its generator.  The last
# three pin the writes that invalidate a run's policy rows: masked Sioux
# Falls rows with MD mixing, fictitious-play passes on ring road, and a
# toy ball radius that the learner's theta reaches mid-run.
GOLDEN_DIGESTS = {
    "toy-run": {
        "aggregate.csv": "075690c41dbe7fbbe2657fc0e274be37252654dfb560540cd40455e1083c0668",
        "reference/meta.json": "33c9637c6a99b0643253464a728444900a7e14ee062ecd23aef49daaf2779e98",
        "reference/mu_star.txt": "d3a7e9d78ee91facec21589c0054e243213991dc5d278c6e319529b0bbd64a57",
        "reference/q_star.txt": "4eabc8e38b590da68810696e0c8d20183fd989b3e21fefc6acf6f9443d6ef96e",
        "reference/reference.csv":
            "3ec93e930e5f024e922f4f27c39b3799a0012397966abd73c9c8201322ec1853",
        "run_seed0.csv": "2d86b308d0df29c895330fdcdce96ab9fc0a0acc3443fd9d5b66b359cb341a53",
        "run_seed1.csv": "6af9b006d7e36d919ffe8d27e626e79744588dcab6f1b03b4d65b8da559ede8f",
    },
    "ring-road-50-sweep-k": {
        "reference/meta.json": "c7e513f85ab98953744f006ea44418800bf4748fa9e428daa489d362a6f30017",
        "reference/mu_star.txt": "1aa6143f42993e5cf96622971f2b0241da506b6866bd0b0fc78763b24189bbb8",
        "reference/q_star.txt": "52fffe54bd1915e9c52f82b9f240dc75083c7dcd81abf4a29bffcc525209389f",
        "reference/reference.csv":
            "c402b08135b18ae11241de11077a3690755cc822d464faf24c0e09480dbd32ca",
        "sweep_k.csv": "97560bca046fb8f312e0fe6ae176d9d4ed3bda6007e0b105bb8366cc48e1a926",
    },
    "compare-lfa": {
        "compare_lfa.csv": "614be665e7f6301ff6ea934cbbd87113b96cc05c7e77b7699cbeb8d71e90950f",
    },
    "toy-run-fpi-er": {
        "aggregate.csv": "42ebd691190300a1525433d0f0f7385692a9f9e08080b36e34cff63b035eac93",
        "reference/meta.json": "33c9637c6a99b0643253464a728444900a7e14ee062ecd23aef49daaf2779e98",
        "reference/mu_star.txt": "d3a7e9d78ee91facec21589c0054e243213991dc5d278c6e319529b0bbd64a57",
        "reference/q_star.txt": "4eabc8e38b590da68810696e0c8d20183fd989b3e21fefc6acf6f9443d6ef96e",
        "reference/reference.csv":
            "3ec93e930e5f024e922f4f27c39b3799a0012397966abd73c9c8201322ec1853",
        "run_seed0.csv": "9be035c320b9af9fabf82638e559cd6e2fa6b3500daefe7c6ff623958a484736",
        "run_seed1.csv": "4bed20850105749223eae30b5dc445335924dd28e6d6204a9a027d02c8dd9a33",
    },
    "flocking-run": {
        "aggregate.csv": "b2ce980384c52309aa648205cbf22e52796fc9ef7d2d1c792cbfff93ea4f4262",
        "reference/meta.json": "e0f6678b0afaa075f02c72260dd1830edbf8fde36ca60c014f7f394079091277",
        "reference/mu_star.txt": "b58f7aad4d6264f5ed2579dd3b3baa253fc78f8f593acd395d68a0681331f200",
        "reference/q_star.txt": "6a6a3a5955923703d8fe34f30a36fb395d14e00a6a964f9298a12d0a2c6bab2c",
        "reference/reference.csv":
            "e6a880d9598c562dd80de71fd11e08cba645589d2e39fc77f9d19b47cd3f760c",
        "run_seed0.csv": "32b1c18900f1669cc0ae815b2008e36f38eeb2296c3db6c809ac66f93d72a2f4",
        "run_seed1.csv": "9e9772e6dca43b3598fb03be9230cdb3187f58bf9edf9132a148114f4fa24ed7",
    },
    "ring-road-tan-normal-run": {
        "aggregate.csv": "b4c146ee5d34c6c8f071d1c822e2e41b812b1634d865737848a0ad9a61baaefe",
        "reference/meta.json": "c7e513f85ab98953744f006ea44418800bf4748fa9e428daa489d362a6f30017",
        "reference/mu_star.txt": "1aa6143f42993e5cf96622971f2b0241da506b6866bd0b0fc78763b24189bbb8",
        "reference/q_star.txt": "52fffe54bd1915e9c52f82b9f240dc75083c7dcd81abf4a29bffcc525209389f",
        "reference/reference.csv":
            "c402b08135b18ae11241de11077a3690755cc822d464faf24c0e09480dbd32ca",
        "run_seed0.csv": "b4f684053053e2cb2455a98cbb5db434c2719bff0d72ede7b77fe034162d374c",
        "run_seed1.csv": "5a133258b25f37f9a8ebe824cff8425525d4fb3e8ff911297cb4a3033b14e6e4",
    },
    "sioux-falls-reference": {
        "meta.json": "668f5007813567dd14f94426d4b57b61350ea2840e34a1a75b8f8e2e94ebcc73",
        "mu_star.txt": "6b43b62def4c8d903d18892c9403c778260334c9fad81e1635ac2993ec7f34a8",
        "q_star.txt": "0bf9878ecbe83c0bb1d2d466d4e2a55d7a8f05e81a59fe963dacb3f82fcfd876",
        "reference.csv": "2bebcabbc93026f6f17f5ffbd8773d7521c7155167154cb26c139f52afdd8b21",
    },
    "toy-run-10000": {
        "aggregate.csv": "a54a235d14e4a5ea68568f82f9e3a8dd1d7515de583ea5943961473f913014a7",
        "reference/meta.json": "33c9637c6a99b0643253464a728444900a7e14ee062ecd23aef49daaf2779e98",
        "reference/mu_star.txt": "d3a7e9d78ee91facec21589c0054e243213991dc5d278c6e319529b0bbd64a57",
        "reference/q_star.txt": "4eabc8e38b590da68810696e0c8d20183fd989b3e21fefc6acf6f9443d6ef96e",
        "reference/reference.csv":
            "3ec93e930e5f024e922f4f27c39b3799a0012397966abd73c9c8201322ec1853",
        "run_seed0.csv": "84b3a25ce925e4b683d4b0dc47621df52ec24d205036349fe6a5b611b2efa299",
    },
    "ring-road-50-sweep-k-10000": {
        "reference/meta.json": "c7e513f85ab98953744f006ea44418800bf4748fa9e428daa489d362a6f30017",
        "reference/mu_star.txt": "1aa6143f42993e5cf96622971f2b0241da506b6866bd0b0fc78763b24189bbb8",
        "reference/q_star.txt": "52fffe54bd1915e9c52f82b9f240dc75083c7dcd81abf4a29bffcc525209389f",
        "reference/reference.csv":
            "c402b08135b18ae11241de11077a3690755cc822d464faf24c0e09480dbd32ca",
        "sweep_k.csv": "9a043445af9dfc41eae3b1f19f0faacf72d6eace2db2c7a6f3ec497e91263053",
    },
    "sioux-falls-run-fpi-md": {
        "aggregate.csv": "b63c4f0ddfc144bf41d87d27558da0b7f802c15e5709e5dcb1c1550105e249e4",
        "reference/meta.json": "668f5007813567dd14f94426d4b57b61350ea2840e34a1a75b8f8e2e94ebcc73",
        "reference/mu_star.txt": "6b43b62def4c8d903d18892c9403c778260334c9fad81e1635ac2993ec7f34a8",
        "reference/q_star.txt": "0bf9878ecbe83c0bb1d2d466d4e2a55d7a8f05e81a59fe963dacb3f82fcfd876",
        "reference/reference.csv":
            "2bebcabbc93026f6f17f5ffbd8773d7521c7155167154cb26c139f52afdd8b21",
        "run_seed0.csv": "cd472af9aee9b486b93f635be7112d36e1e9045b00eaf731176880d713fb85dd",
        "run_seed1.csv": "5205996d21b0a97805d3fd76264a6c6575ae8b70ba9d4c0f330a8ddaad27ee3f",
    },
    "ring-road-run-fpi-fp": {
        "aggregate.csv": "0b4703f8124bb7999dc06b01a9c64373af4c1a66d5d063b6a40789bbb89944d2",
        "reference/meta.json": "c7e513f85ab98953744f006ea44418800bf4748fa9e428daa489d362a6f30017",
        "reference/mu_star.txt": "1aa6143f42993e5cf96622971f2b0241da506b6866bd0b0fc78763b24189bbb8",
        "reference/q_star.txt": "52fffe54bd1915e9c52f82b9f240dc75083c7dcd81abf4a29bffcc525209389f",
        "reference/reference.csv":
            "c402b08135b18ae11241de11077a3690755cc822d464faf24c0e09480dbd32ca",
        "run_seed0.csv": "e9e1148b321b0ae42d4666bb12e6933953b762ef978bcbd4b36ef147a8506716",
        "run_seed1.csv": "63770dc37a7869032faeb2b39e475d95dd6614220e09d6e3614ed0332514be26",
    },
    "toy-run-ball": {
        "aggregate.csv": "41d88534ded8ab0aaef9024c9bc78d7ddcc0e49663400c176b5d7ad583a57948",
        "reference/meta.json": "33c9637c6a99b0643253464a728444900a7e14ee062ecd23aef49daaf2779e98",
        "reference/mu_star.txt": "d3a7e9d78ee91facec21589c0054e243213991dc5d278c6e319529b0bbd64a57",
        "reference/q_star.txt": "4eabc8e38b590da68810696e0c8d20183fd989b3e21fefc6acf6f9443d6ef96e",
        "reference/reference.csv":
            "3ec93e930e5f024e922f4f27c39b3799a0012397966abd73c9c8201322ec1853",
        "run_seed0.csv": "360076a97ace7d25b6f974068ed8de20b1f109a37986b054b1a9cd8868f77e03",
        "run_seed1.csv": "a25aee6fa52cee0c61b7facfc6c7333f50d8447a8d912f47e39a464b6dfed6f8",
    },
}


def test_cli_output_bytes_match_golden_digests(tmp_path, ring200_reference_dir):
    config = tmp_path / "lfa.json"
    config.write_text(json.dumps({"reference": str(ring200_reference_dir)}))
    tan_normal = tmp_path / "tan_normal.json"
    tan_normal.write_text(json.dumps({"basis": "tan-normal", "basis_d2": 6}))
    sioux = tmp_path / "sioux.json"
    sioux.write_text(json.dumps({"reference_outer_iters": 5}))
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({"ball_radius": 0.01}))
    specs = {
        "toy-run": ["run", "--env", "toy", "--steps", "2000", "--seeds", "0,1"],
        "ring-road-50-sweep-k": ["sweep-k", "--env", "ring-road", "--k-list", "1,10",
                                 "--steps", "2000", "--seeds", "0,1"],
        "compare-lfa": ["compare-lfa", "--env", "ring-road", "--d2-list", "5",
                        "--steps", "2000", "--seeds", "0,1", "--config", str(config)],
        "toy-run-fpi-er": ["run", "--env", "toy", "--algo", "fpi-er",
                           "--inner-k", "50", "--steps", "2000", "--seeds", "0,1"],
        "flocking-run": ["run", "--env", "flocking", "--cadence", "500", "--steps", "2000",
                         "--seeds", "0,1"],
        "ring-road-tan-normal-run": ["run", "--env", "ring-road", "--steps", "2000",
                                     "--seeds", "0,1", "--config", str(tan_normal)],
        "sioux-falls-reference": ["reference", "--env", "sioux-falls", "--config", str(sioux)],
        "toy-run-10000": ["run", "--env", "toy", "--steps", "10000", "--seeds", "0"],
        "ring-road-50-sweep-k-10000": ["sweep-k", "--env", "ring-road", "--k-list", "1,100",
                                       "--steps", "10000", "--seeds", "0"],
        "sioux-falls-run-fpi-md": ["run", "--env", "sioux-falls", "--algo", "fpi-md",
                                   "--inner-k", "10", "--steps", "2000", "--seeds", "0,1",
                                   "--config", str(sioux)],
        "ring-road-run-fpi-fp": ["run", "--env", "ring-road", "--algo", "fpi-fp",
                                 "--steps", "2000", "--seeds", "0,1"],
        "toy-run-ball": ["run", "--env", "toy", "--steps", "2000", "--seeds", "0,1",
                         "--config", str(ball)],
    }
    for name, argv in specs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        got = {str(p.relative_to(out).as_posix()): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file()}
        assert got == GOLDEN_DIGESTS[name], name


# the flags each subcommand takes, as ``--help`` lists them
SUBCOMMAND_FLAGS = {
    "reference": {"--config", "--out", "--env"},
    "run": {"--config", "--out", "--env", "--algo", "--steps", "--alpha", "--seeds",
            "--seed-offset", "--inner-k", "--cadence", "--no-exploitability"},
    "sweep-k": {"--config", "--out", "--env", "--algo", "--steps", "--alpha", "--seeds",
                "--seed-offset", "--no-exploitability", "--k-list"},
    "compare-lfa": {"--config", "--out", "--env", "--steps", "--alpha", "--seeds",
                    "--seed-offset", "--d2-list"},
}


def test_python_m_mfglearn_as_a_process(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def mfglearn(*argv):
        return subprocess.run([sys.executable, "-m", "mfglearn", *map(str, argv)],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)

    for name, flags in SUBCOMMAND_FLAGS.items():
        done = mfglearn(name, "--help")
        assert done.returncode == 0, done.stderr
        assert set(re.findall(r"--[a-z][a-z0-9-]*", done.stdout)) == flags | {"--help"}, name

    out = tmp_path / "out"
    done = mfglearn("reference", "--env", "toy", "--steps", "5", "--out", out)
    assert done.returncode == 2
    assert "unrecognized arguments: --steps 5" in done.stderr
    done = mfglearn("run", "--env", "toy", "--algo", "nonsense", "--out", out)
    assert done.returncode == 2
    assert "config error: unknown algorithm 'nonsense'" in done.stderr
    assert list(tmp_path.iterdir()) == []

    done = mfglearn("run", "--env", "toy", "--steps", "200", "--seeds", "0", "--out", out)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.glob("*.csv")) == ["aggregate.csv", "run_seed0.csv"]
