"""Self-checks of the benchmark itself.

  python3 bench/selfcheck.py           # about a minute (one qw pass)

1. The same seed generates identical inputs twice, and another seed does
   not generate the same inputs.
2. The correctness gate passes real outputs at the default seed, and counts
   each deliberately perturbed output value or file as a failed operation.

Exits 0 when every check behaves as expected, 1 otherwise.
"""

from __future__ import annotations

import argparse
import copy
import shutil
import sys

import checks
import run
import workloads

SEEDS = (workloads.DEFAULT_SEED, 2, 987654321)


def _set_cell(path, row: int, col: int, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = format(float(cells[col]) + delta, ".9g")
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _context(workload: str, tag: str = "clean") -> run.Context:
    args = argparse.Namespace(workload=workload, seed=workloads.DEFAULT_SEED,
                              seconds=0, trace=0)
    ctx = run.Context(args, run._reference())
    ctx.work = ctx.work.with_name(f"{ctx.work.name}-{tag}")
    ctx.work.mkdir(parents=True, exist_ok=True)
    return ctx


def _one_pass(ctx: run.Context, inputs: dict):
    config = ctx.work / "run.ini"
    config.write_text(inputs["config"], encoding="utf-8")
    out = ctx.work / "clean"
    return out, run.sweep_pass(ctx, inputs, config, out)


def _gate(workload: str, inputs: dict, clean, reply, perturb) -> int:
    """Failed operations when a perturbed copy follows a clean pass."""
    ctx = _context(workload, "gate")
    bad = ctx.work / "perturbed"
    shutil.copytree(clean, bad)
    perturb(bad)
    first = ctx.work / "first"
    shutil.copytree(clean, first)
    ref = ctx.reference[workload]
    try:
        run.check_sweep_passes(ctx, inputs, [(first, reply), (bad, reply)],
                               ref)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return ctx.failed


def sweep_checks(workload: str, perturbations: dict) -> list[str]:
    problems = []
    inputs = workloads.generate(workload, workloads.DEFAULT_SEED)
    ctx = _context(workload)
    try:
        clean, reply = _one_pass(ctx, inputs)
        failed = _gate(workload, inputs, clean, reply, lambda d: None)
        if failed:
            problems.append(f"{workload}: clean outputs fail the gate")
        for label, perturb in perturbations.items():
            failed = _gate(workload, inputs, clean, reply, perturb)
            print(f"{workload}: {label}: {failed} failed operation(s)")
            if failed == 0:
                problems.append(f"{workload}: {label} was not detected")
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return problems


def query_checks() -> list[str]:
    problems = []
    ctx = _context("point_queries")
    queries = workloads.query_block(workloads.DEFAULT_SEED, 0)
    worker = run.Worker(ctx, False)
    try:
        reply = worker.request({"op": "queries", "queries": queries})
        worker.close()
    finally:
        worker.kill()
        shutil.rmtree(ctx.work, ignore_errors=True)
    ref = ctx.reference["point_queries"]["blocks"][0]

    def verdict(q, result, i):
        return checks.check_query(q, result) or checks.compare_values(
            q["kind"], checks.comparable(q, result), ref[i])

    for i, (q, result) in enumerate(zip(queries, reply["results"])):
        if verdict(q, result, i):
            problems.append(f"point_queries: clean query {i} fails")
    perturbations = {
        "bulk p_hh + 1e-3": ("bulk", lambda r: r.__setitem__(0, r[0] + 1e-3)),
        "bulk rate x 1.01": ("bulk", lambda r: r.__setitem__(6, r[6] * 1.01)),
        "bulk energy + 1e-5 eV (reference)":
            ("bulk", lambda r: (r.__setitem__(11, r[11] + 1e-5),
                                r.__setitem__(12, r[12] + 1e-5))),
        "dispersion band + 1e-6 eV":
            ("dispersion", lambda r: r[4].__setitem__(3, r[4][3] + 1e-6)),
        "qw Kramers split 1e-6 eV":
            ("qw", lambda r: r.__setitem__(1, r[1] - 1e-6)),
        "qw p_so + 1e-4": ("qw", lambda r: r.__setitem__(6, r[6] + 1e-4)),
    }
    for label, (kind, perturb) in perturbations.items():
        i = next(j for j, q in enumerate(queries) if q["kind"] == kind)
        result = copy.deepcopy(reply["results"][i])
        perturb(result)
        detected = bool(verdict(queries[i], result, i))
        print(f"point_queries: {label}: "
              f"{'detected' if detected else 'NOT detected'}")
        if not detected:
            problems.append(f"point_queries: {label} was not detected")
    return problems


def generation_checks() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            a = workloads.generate(workload, seed)
            if a != workloads.generate(workload, seed):
                problems.append(f"{workload} seed {seed}: not deterministic")
        if workloads.generate(workload, 2) == workloads.generate(workload, 3):
            problems.append(f"{workload}: seeds 2 and 3 give equal inputs")
    print(f"input generation: {len(problems)} problem(s)")
    return problems


def main() -> int:
    problems = generation_checks()
    problems += query_checks()
    problems += sweep_checks("bulk_sweep", {
        "mixing_curve_z p_hh + 1e-3":
            lambda d: _set_cell(d / "mixing_curve_z.csv", 5, 1, 1e-3),
        "mixing_map theta=pi/2 p_hh + 1e-6 (map/curve mismatch)":
            lambda d: _set_cell(d / "mixing_map.csv",
                                workloads.BULK_STEPS
                                * (workloads.BULK_THETA_STEPS - 1) + 7,
                                2, 1e-6),
        "dipole rate_x + 1e-3 GHz":
            lambda d: _set_cell(d / "dipole_sweep.csv", 9, 4, 1e-3),
        "angular density file removed":
            lambda d: next(d.glob("angular_density_*")).unlink(),
    })
    problems += sweep_checks("qw_sweep", {
        "converged column flipped":
            lambda d: _set_cell(d / "qw_mixing_4nm.csv", 1, 7, 1.0),
        "p_hh_x + 1e-3": lambda d: _set_cell(d / "qw_mixing_12nm.csv",
                                            0, 4, 1e-3),
        "transition energy + 1e-4 eV (reference)":
            lambda d: _set_cell(d / "qw_transition_energy.csv", 12, 1, 1e-4),
    })
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
