"""Show that every correctness check of the benchmark can fail.

Usage, from the root of a checkout (under a minute, 2 GB of memory):

    OPENBLAS_NUM_THREADS=1 python3 bench/selftest.py

Each check is run once on a genuine risloc output, where it must pass,
and once on a deliberately wrong one, where it must reject. Exits 1 if
any check does not behave so.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
from risloc import channel, cli, estimator, geometry, harness  # noqa: E402
from risloc.harness import ExperimentConfig  # noqa: E402

import checks  # noqa: E402
from workloads import OUT  # noqa: E402

TRUTH_P = np.array([2.0, 0.0, -0.5])
TRUTH_V = channel.DEFAULT_UE_VELOCITY
#: Outside the coarse grid's +/-70 deg coverage (elevation -78.7 deg).
UNCOVERED_P = (0.1, 0.0, -0.5)

results = []


def expect(name, should_pass, fn):
    try:
        fn()
    except checks.CheckError as exc:
        ok = not should_pass
        print(f"{'ok  ' if ok else 'FAIL'} rejects {name}: {exc}")
    else:
        ok = should_pass
        print(f"{'ok  ' if ok else 'FAIL'} accepts {name}")
    results.append(ok)


def moved(stages, index, dp):
    out = list(stages)
    stage, p, v, cost = out[index]
    out[index] = (stage, p + dp, v, cost)
    return out


def main():
    sc = channel.default_scenario()
    lay = geometry.build_composite_ris()
    cb_seed, noise_seed = harness.trial_seeds(5, 0, 0)
    cb = channel.draw_codebook(lay.num_cells, sc.num_samples,
                               sc.reflection_set, cb_seed)
    snap = channel.generate_snapshot(TRUTH_P, TRUTH_V, lay, cb, sc,
                                     noise_seed)
    model = estimator.build_steering_model(lay, cb, sc)
    trace = estimator.estimate(snap.y, model, estimator.EstimatorConfig())
    stages = [(r.stage, r.p, r.v, r.cost) for r in trace.records]

    def problem(y):
        return checks.Problem(y, lay.cell_centers, cb.gamma, sc.bs_position,
                              sc.wavelength, sc.sample_time, TRUTH_P,
                              TRUTH_V)

    mm_x = np.array([1e-3, 0.0, 0.0])
    expect("a genuine gs-nf trace", True,
           lambda: checks.check_stages(problem(snap.y), stages, True))
    expect("a final estimate moved by 1 mm (cost match)", False,
           lambda: checks.check_stages(problem(snap.y),
                                       moved(stages, -1, mm_x), True))
    expect("stages out of order (costs must not rise)", False,
           lambda: checks.check_stages(problem(snap.y),
                                       stages[1:] + stages[:1], True))

    config = ExperimentConfig(runs=1, seed_base=7, variants=("gs-nf",),
                              layout=lay)
    point = harness.line_sweep(config, UNCOVERED_P[1], UNCOVERED_P[2],
                               [UNCOVERED_P[0]])[0]
    far = point.traces["gs-nf"][0]
    cb7_seed, noise7_seed = harness.trial_seeds(7, 0, 0)
    cb7 = channel.draw_codebook(lay.num_cells, sc.num_samples,
                                sc.reflection_set, cb7_seed)
    y7 = channel.generate_snapshot(np.array(UNCOVERED_P), TRUTH_V, lay, cb7,
                                   sc, noise7_seed).y
    p7 = checks.Problem(y7, lay.cell_centers, cb7.gamma, sc.bs_position,
                        sc.wavelength, sc.sample_time, UNCOVERED_P, TRUTH_V)
    far_stages = [(r.stage, r.p, r.v, r.cost) for r in far.records]
    expect(f"the estimate at {UNCOVERED_P}, outside the grid coverage, "
           "without the ML property", True,
           lambda: checks.check_stages(p7, far_stages, False))
    expect(f"the estimate at {UNCOVERED_P} (ML property)", False,
           lambda: checks.check_stages(p7, far_stages, True))

    # The single path: the same estimate through the CLI's file formats.
    out = OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    channel.save_snapshot(snap, sc, out / "snapshot.txt")
    cli.write_trace(trace, str(out / "trace.txt"))
    p_fin, v_fin = trace.final
    printed = (f"p_hat {p_fin[0]:.6g} {p_fin[1]:.6g} {p_fin[2]:.6g} "
               f"v_hat {v_fin[0]:.6g} {v_fin[1]:.6g} {v_fin[2]:.6g}")
    rows = checks.read_trace(out / "trace.txt")
    y_file = checks.read_snapshot_y(out / "snapshot.txt")
    last = list(rows[-1][1]) + list(rows[-1][2])
    expect("the printed estimate of a genuine trace.txt", True,
           lambda: checks.check_printed_estimate(printed, last))
    expect("a printed estimate 1 mm off the last trace row", False,
           lambda: checks.check_printed_estimate(
               printed, [last[0] + 1e-3] + last[1:]))
    expect("a genuine trace.txt against snapshot.txt", True,
           lambda: checks.check_stages(problem(y_file), rows, True,
                                       checks.FILE_COST_RTOL))
    expect("a trace.txt final row moved by 1 mm", False,
           lambda: checks.check_stages(problem(y_file),
                                       moved(rows, -1, mm_x), True,
                                       checks.FILE_COST_RTOL))
    other_y = channel.generate_snapshot(TRUTH_P, TRUTH_V, lay, cb, sc,
                                        noise_seed + 1).y
    expect("a trace.txt checked against another noise draw", False,
           lambda: checks.check_stages(problem(other_y), rows, True,
                                       checks.FILE_COST_RTOL))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
