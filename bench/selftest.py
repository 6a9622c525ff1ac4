#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Run from the root of a checkout (takes a few seconds):

    python3 bench/selftest.py

Builds small toy-game outputs with the program, confirms that the checks in
``checks.py`` pass on them, then damages them in the ways the checks exist
to catch (a perturbed q_star or mu_star, a swapped seed CSV, a rerun that
is not identical, a wrong aggregate or K = 1 row, an MSE below its hull
bound) and confirms that each is reported as failed.  It also confirms that
a known fault of the program excuses only the check messages it produces.  Exits 0 when every
expectation holds.  Scratch files go to ``.bench_work/selftest``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402
from mfglearn import cli  # noqa: E402
from mfglearn.envs import toy_finite_env  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"
results = []


def expect(name: str, fails: list, should_fail: bool) -> None:
    ok = bool(fails) == should_fail
    results.append(ok)
    verdict = "rejected" if fails else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}" + (f" ({fails[0]})" if fails else ""))


def mfglearn(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"mfglearn {' '.join(map(str, argv))} exited {code}")


def bump(path: Path, line: int, column: int, step: float = 0.0) -> None:
    """Move one CSV field to the next float up (or up by ``step``)."""
    lines = path.read_text().splitlines()
    fields = lines[line].split(",")
    x = float(fields[column])
    fields[column] = repr(x + step if step else float(np.nextafter(x, np.inf)))
    lines[line] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = toy_finite_env(3, 2, 7)

    # reference: the toy equilibrium passes; perturbations do not
    mfglearn("reference", "--env", "toy", "--out", WORK / "ref")
    q, mu = checks.read_reference(WORK / "ref", env)
    expect("toy reference", checks.check_reference(env, q, mu), False)
    q_bad = q.copy()
    q_bad[0, 0] += 1e-3
    expect("perturbed q_star", checks.check_reference(env, q_bad, mu), True)
    mu_bad = mu.copy()
    mu_bad[0] += 1e-3
    mu_bad[1] -= 1e-3
    expect("perturbed mu_star", checks.check_reference(env, q, mu_bad), True)

    # a multi-seed run against single-seed reruns of each seed
    config = WORK / "config.json"
    config.write_text('{"reference": "%s"}' % (WORK / "ref"))
    seeds = [3, 4, 5]
    common = ["--env", "toy", "--algo", "semisgd", "--steps", 600, "--config", config]
    mfglearn("run", *common, "--seeds", "3,4,5", "--out", WORK / "multi")
    for j in range(3):
        mfglearn("run", *common, "--seeds", j, "--seed-offset", 3, "--out", WORK / f"single{j}")
    multi = WORK / "multi"

    def identical(m: Path) -> list:
        return [f for s in seeds for f in checks.check_identical(
            m / f"run_seed{s}.csv", WORK / f"single{s - 3}" / f"run_seed{s}.csv")]

    expl0 = checks.exploitability(env, checks.uniform_policy(env))
    expect("seed CSVs", [f for s in seeds for f in checks.check_seed_csv(
        multi / f"run_seed{s}.csv", expl0, env, ring=False)], False)
    expect("aggregate.csv", checks.check_aggregate(multi, seeds), False)
    expect("single-seed reruns", identical(multi), False)

    swapped = WORK / "swapped"
    shutil.copytree(multi, swapped)
    a, b = swapped / "run_seed3.csv", swapped / "run_seed4.csv"
    text_a = a.read_text()
    a.write_text(b.read_text())
    b.write_text(text_a)
    expect("swapped seed CSV", identical(swapped), True)

    bump(WORK / "single1" / "run_seed4.csv", -1, 1)
    expect("rerun differing in one bit of the final MSE", identical(multi), True)

    agg = WORK / "agg"
    shutil.copytree(multi, agg)
    bump(agg / "aggregate.csv", 1, 1, step=1e-6)
    expect("wrong aggregate mean", checks.check_aggregate(agg, seeds), True)

    t0 = agg / "run_seed5.csv"
    bump(t0, 1, 2, step=1e-3)
    expect("wrong t = 0 exploitability",
           checks.check_seed_csv(t0, expl0, env, ring=False), True)

    # sweep-k K = 1 row against the SemiSGD aggregate with the same seeds
    mfglearn("sweep-k", "--env", "toy", "--k-list", "1,10", "--steps", 600,
             "--seeds", "0,1", "--config", config, "--out", WORK / "sweep")
    mfglearn("run", *common, "--seeds", "0,1", "--out", WORK / "k1")
    sweep, agg_k1 = WORK / "sweep" / "sweep_k.csv", WORK / "k1" / "aggregate.csv"
    expect("K = 1 row", checks.check_k1_row(sweep, agg_k1), False)
    bump(sweep, 1, 1)
    expect("K = 1 row differing in one bit", checks.check_k1_row(sweep, agg_k1), True)

    # hull bound: a point mass at cell 0 is not in the hull of 5 coarse cells
    target = np.zeros(200)
    target[0] = 1.0
    floor = checks.hull_mse_lower_bound(checks.coarse_to_fine(5, 200), target)
    bounds = {(5, "discretization"): floor, (5, "pa-lfa"): floor}
    csv_path = WORK / "compare_lfa.csv"
    for value, should_fail in ((floor * 1.01, False), (floor * 0.99, True)):
        csv_path.write_text(f"d2,method,mse_mean,mse_std\n5,discretization,{value!r},0.0\n"
                            f"5,pa-lfa,{floor!r},0.0\n")
        expect(f"compare-lfa MSE at {value / floor:.2f} x hull bound",
               checks.check_compare_lfa(csv_path, [5], bounds), should_fail)

    # a known fault is recognised only by the check messages it produces
    gap = "greedy(q_star) induces a population at l1 distance 5.7e-03 from mu_star"
    for name, fails, should_fail in (
            ("reference ring-road-200", [gap], False),
            ("reference ring-road-200", [gap, "Bellman residual of q_star at mu_star 1e-3"], True),
            ("reference ring-road-200", ["round 2 output differs from round 1"], True),
            ("reference toy-3x2-seed7", [gap], True)):
        known = run.known_fault(name, fails)
        expect(f"{name} failing with {fails[-1][:28]!r}", [] if known else fails, should_fail)

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} expectations hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
