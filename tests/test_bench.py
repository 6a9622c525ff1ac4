import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # the benchmark's checks read kernel_support and reward_matrix directly
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_spans_cover_the_current_program(tmp_path, ring200_reference_dir):
    # the tracer patches module attributes by name; a renamed one must fail here
    import importlib
    import importlib.util
    import json
    import types

    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = ("cli", "envs", "learners", "lfa", "metrics", "policy")
    mfg = types.SimpleNamespace(**{n: importlib.import_module(f"mfglearn.{n}") for n in names})
    originals = {n: getattr(mfg.learners, n) for n in ("policy_row", "sample_action", "step_size")}

    tracer = tracing.Tracer()
    seeds, steps = 2, 200
    common = ["--steps", str(steps), "--seeds", "0,1"]
    lfa_config = tmp_path / "lfa.json"
    lfa_config.write_text(json.dumps({"reference": str(ring200_reference_dir)}))
    try:
        tracing.install_timers(tracer, mfg)
        tracing.install_layers(tracer, mfg)
        run_spans = {}
        for algo, flags in (("semisgd", []), ("fpi-vanilla", ["--inner-k", "10"])):
            start = tracer.mark()
            code = mfg.cli.main([
                "run", "--env", "toy", "--algo", algo, *flags, *common,
                "--no-exploitability",
                "--out", str(tmp_path / algo),
            ])
            assert code == 0
            opened = {tracer.names[i] for i in tracer.spans(start, tracer.mark())[0]}
            run_spans[algo] = opened & set(tracing.RUN_SPANS)
        runs_end = tracer.mark()
        counts = tracer.take_counts()
        # the commands the workloads run: samples are counted per run call
        assert mfg.cli.main(["sweep-k", "--env", "ring-road", "--k-list", "1,10", *common,
                             "--no-exploitability", "--out", str(tmp_path / "sweep")]) == 0
        assert mfg.cli.main(["compare-lfa", "--env", "ring-road", "--d2-list", "5", *common,
                             "--config", str(lfa_config), "--out", str(tmp_path / "lfa")]) == 0
    finally:
        tracer.uninstall()
    assert {n: getattr(mfg.learners, n) for n in originals} == originals
    # one learner under two names: the CLI's choice of name labels the run's span
    assert run_spans == {"semisgd": {"learners.run_semisgd"},
                         "fpi-vanilla": {"learners.run_online_fpi"}}

    protocols = tracer.take_counts()
    assert protocols["learners.samples"] == 4 * seeds * steps  # two K values, two arms
    layers = tracing.layer_metrics(tracer, runs_end, tracer.mark(), protocols, 1)
    assert layers["learners.step_size.calls"] == protocols["learners.samples"]

    assert counts["learners.samples"] == 2 * seeds * steps
    layers = tracing.layer_metrics(tracer, 0, runs_end, counts, 1)
    assert layers["learners.samples"] == 2 * seeds * steps
    assert layers["envs.reward.calls"] == 2 * seeds * steps
    # sample_next closes over the unwrapped kernel_support: no span per sample
    assert layers["envs.sample_next.calls"] == 2 * seeds * steps
    assert layers["envs.kernel_support.calls"] < seeds * steps
    assert layers["learners.step_size.calls"] == 2 * seeds * steps
    assert layers["policy.policy_row.calls"] > 0
    assert layers["policy.sample_action.us"] > 0
    assert layers["learners.sample.us"] > 0
