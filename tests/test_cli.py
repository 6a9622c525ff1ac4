import hashlib
import json

import numpy as np
import pytest

from mfglearn import cli
from mfglearn.cli import (
    ExperimentSpec,
    cmd_reference,
    cmd_run,
    cmd_sweep_k,
    load_reference,
    main,
    spec_from_config,
)
from mfglearn.core import ConfigError


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


def test_cmd_reference_writes_expected_files(tmp_path):
    out = cmd_reference(toy_spec(tmp_path / "ref"))
    assert (out / "reference.csv").exists()
    assert (out / "mu_star.txt").exists()
    assert (out / "q_star.txt").exists()
    ref = load_reference(out)
    assert ref.mu_star.shape == (3,)
    assert ref.q_star.shape == (3, 2)
    assert abs(ref.mu_star.sum() - 1.0) <= 1e-12


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
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"reference": str(ref_dir), "toy_seed": 8}))
    assert main(["run", "--env", "toy", "--config", str(config),
                 "--out", str(tmp_path / "cli")]) == 2


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


def test_reference_meta_records_budget_and_convergence(tmp_path):
    toy = json.loads(read(cmd_reference(toy_spec(tmp_path / "toy")) / "meta.json"))
    assert (toy["outer_iters"], toy["converged"]) == (50, True)
    sioux = cmd_reference(ExperimentSpec(env="sioux-falls", reference_outer_iters=3,
                                         out=str(tmp_path / "sioux")))
    meta = json.loads(read(sioux / "meta.json"))
    assert (meta["outer_iters"], meta["converged"]) == (3, False)
    assert load_reference(sioux).converged is False


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

    from mfglearn.cli import cmd_compare_lfa, load_reference, make_run_config
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
    ref = load_reference(ring200_reference_dir)
    run_spec = replace(spec, algorithm="semisgd", env_size=200)
    finals = [
        run_semisgd(env, make_run_config(run_spec, env, seed), mu_ref=ref.mu_star).mse[-1]
        for seed in (0, 1)
    ]
    assert got_mean == np.mean(finals)


def test_compare_lfa_d2_one_freezes_population(ring200_reference_dir):
    from mfglearn.cli import load_reference, make_run_config
    from mfglearn.envs import ring_road_env
    from mfglearn.learners import run_semisgd
    from mfglearn.lfa import tan_normal_basis

    env = ring_road_env(200)
    ref = load_reference(ring200_reference_dir)
    basis = tan_normal_basis(env.states, 1)
    spec = ExperimentSpec(env="ring-road", env_size=200, steps=400, alpha=1e-3,
                          seeds=(0,), cadence=100, expl_every=None, out="unused")
    rec = run_semisgd(env, make_run_config(spec, env, 0), basis=basis, mu_ref=ref.mu_star)
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
    mu_ref = load_reference(ref_dir).mu_star
    k_list = [1, 20]
    # the final exploitability of runs snapshotting every expl_every steps
    want = []
    for k in k_list:
        k_spec = replace(spec, algorithm="fpi-vanilla", inner_k=k)
        finals = np.array([
            run_online_fpi(env, make_run_config(k_spec, env, seed), mu_ref=mu_ref).expl_values[-1]
            for seed in spec.effective_seeds
        ])
        want.append([_fmt(finals.mean()), _fmt(_std(finals))])

    expl_calls, records = [], []
    _counting(monkeypatch, learners, "_exploitability_at", expl_calls)
    _counting(monkeypatch, cli, "run_online_fpi", records)
    out = cmd_sweep_k(spec, k_list)
    assert len(records) == len(k_list) * len(spec.effective_seeds)
    assert all(r.expl_steps.tolist() == [0, spec.steps] for r in records)
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
    assert all(r.expl_steps is None for r in records)
    assert expl_calls == []


@pytest.mark.parametrize("argv,runner", [
    (["sweep-k", "--env", "toy", "--k-list", "1,0"], "run_online_fpi"),
    (["sweep-k", "--env", "toy", "--k-list", "1,1000"], "run_online_fpi"),
    (["compare-lfa", "--env", "ring-road", "--d2-list", "5,0"], "run_semisgd"),
    (["run", "--env", "toy", "--algo", "bogus"], "run_online_fpi"),
    (["run", "--env", "toy", "--alpha", "1.5"], "run_semisgd"),
    (["sweep-k", "--env", "toy", "--k-list", "1,10", "--alpha", "1.5"], "run_online_fpi"),
    (["compare-lfa", "--env", "ring-road", "--alpha", "1.5"], "run_semisgd"),
    (["run", "--env", "toy", "--algo", "fpi"], "run_online_fpi"),  # default K 500 > T
    (["run", "--env", "toy", "--algo", "semisgd", "--variant", "fp"], "run_semisgd"),
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


def test_variant_needs_an_fpi_algorithm(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--env", "toy", "--algo", "semisgd", "--variant", "fp",
                 "--steps", "100", "--out", str(out)]) == 2
    assert "--variant fp applies only to --algo fpi" in capsys.readouterr().err
    assert not out.exists()
    # a variant alone, or with an FPI algorithm, still selects the variant
    args = cli.build_parser().parse_args(["run", "--algo", "fpi", "--variant", "md"])
    assert cli.spec_from_args(args).algorithm == "fpi-md"
    args = cli.build_parser().parse_args(["run", "--variant", "er"])
    assert cli.spec_from_args(args).algorithm == "fpi-er"


# SHA-256 of every output file of three small specs, recorded with numpy 2.4
# on x86-64.  Speed changes must keep result bytes; a change that moves them
# on purpose updates these digests and says why.
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
        "reference/mu_star.txt": "b1adf8b7935edbe6d51c8569ca7cb4062a46bd2f05c62f806647ca188a11b093",
        "reference/q_star.txt": "2c67f55c9b496f31c8095ef69111db4d57fd8f2f075b795957d5dad2fab2ab17",
        "reference/reference.csv":
            "af2a083f781a7cfcd2f48e0daa7403665b335442683218f2da7a039cd2d1f75d",
        "sweep_k.csv": "0943a0b6b8dd64067aa4cb12427facb69e9d392212ec95cb4b8f2eadc16ccd01",
    },
    "compare-lfa": {
        "compare_lfa.csv": "937f836495e7e1377ad659d38df6f4cc942281ee387916aa9a7bf7134423b5b5",
    },
}


def test_cli_output_bytes_match_golden_digests(tmp_path, ring200_reference_dir):
    config = tmp_path / "lfa.json"
    config.write_text(json.dumps({"reference": str(ring200_reference_dir)}))
    specs = {
        "toy-run": ["run", "--env", "toy", "--steps", "2000", "--seeds", "0,1"],
        "ring-road-50-sweep-k": ["sweep-k", "--env", "ring-road", "--k-list", "1,10",
                                 "--steps", "2000", "--seeds", "0,1"],
        "compare-lfa": ["compare-lfa", "--env", "ring-road", "--d2-list", "5",
                        "--steps", "2000", "--seeds", "0,1", "--config", str(config)],
    }
    for name, argv in specs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        got = {str(p.relative_to(out).as_posix()): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file()}
        assert got == GOLDEN_DIGESTS[name], name
