"""Benchmark worker: one fresh process that serves the client's requests.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It times its own set-up (``import strainkp`` plus
``default_parameter_table()``), reports it, then answers one JSON request
per stdin line with one JSON reply per stdout line:

  {"op": "cli", "argvs": [[...], ...]}   run strainkp.cli.main on each argv
  {"op": "queries", "queries": [...]}    run library point queries
  {"op": "exit"}                         write spans (traced), report RSS

After set-up and after every CLI call or query block the worker times a
fixed pure-Python probe (``calibrate``), so the client can express each
timing at a nominal machine speed.

Usage (normally only from run.py):
  python3 bench/worker.py --trace 0|1 --spans PATH
"""

import argparse
import importlib
import json
import sys
from time import perf_counter

sk = None      # the strainkp package, imported by _setup()
TABLE = None   # its default parameter table
PROBE_ITERATIONS = 6000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes (median of 3 repeats).

    This is the machine-speed probe that run.py divides timings by.  It
    touches no numpy or BLAS, so it starts no OpenBLAS threads and leaves
    every one-time cost of the library inside the timed calls.
    """
    times = []
    for _ in range(3):
        t = perf_counter()
        acc, slots = 0.0, {}
        for j in range(PROBE_ITERATIONS):
            acc += (j * 0.5) ** 0.5
            slots[j & 255] = acc
        times.append(perf_counter() - t)
    return sorted(times)[1]


def _setup() -> tuple[float, float]:
    """Import strainkp (and its CLI) and load the parameter table; returns
    (import seconds, import + table seconds)."""
    global sk, TABLE
    t0 = perf_counter()
    sk = importlib.import_module("strainkp")
    importlib.import_module("strainkp.cli")
    t1 = perf_counter()
    TABLE = sk.default_parameter_table()
    return t1 - t0, perf_counter() - t0


def _blas_threads() -> dict:
    """Runtime OpenBLAS thread counts of the numpy and scipy wheels."""
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                            f"{pkg.__name__}.libs", "*openblas*")
        for path in glob.glob(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    found[pkg.__name__] = fn()
                    break
    return found


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "strainkp": sk.__version__,
            "strainkp_file": sk.__file__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _material(spec: dict):
    if "table" in spec:
        return TABLE[spec["table"]]
    return sk.algaas(spec["alloy"], TABLE)


def _query(q: dict) -> list:
    """One library-style call chain; returns plain floats for checking."""
    if q["kind"] == "bulk":
        p = _material(q["material"])
        strain = sk.strain_from_stress(sk.StressTensor(*q["stress_gpa"]), p)
        doublet = sk.top_valence_doublet(strain, p)
        proj = sk.project_hgs(doublet, sk.QuantizationAxis(q["theta"],
                                                           q["phi"]))
        s = sk.rates(sk.dipole_strengths(doublet),
                     sk.RateCalibration(q["lifetime_ps"]))
        pol = sk.dlp_and_angle(s)
        return [proj.p_hh, proj.p_lh, proj.p_so, s.s_x, s.s_y, s.s_z,
                s.r_x, s.r_y, s.r_z, pol.degree, pol.angle_deg,
                doublet[0].energy, doublet[1].energy]
    if q["kind"] == "dispersion":
        p = _material(q["material"])
        strain = sk.strain_from_stress(sk.StressTensor(*q["stress_gpa"]), p)
        n, k_max = q["points"], q["k_max_per_nm"]
        path = [[c * k_max * i / (n - 1) for c in q["direction"]]
                for i in range(n)]
        return sk.dispersion(path, strain, p).tolist()
    geometry = sk.QwGeometry(q["well_nm"], q["barrier_nm"], q["al_fraction"],
                             q["grid_points"])
    strain = sk.strain_from_stress(sk.StressTensor(*q["stress_gpa"]),
                                   TABLE["GaAs"])
    states = sk.solve_qw(geometry, strain, TABLE, n_states=q["n_states"])
    proj = sk.envelope_projection(states[:2], sk.QuantizationAxis(
        q["theta"], q["phi"]))
    return [s.energy for s in states] + [proj.p_hh, proj.p_lh, proj.p_so]


def _run_cli(argvs, tracer) -> dict:
    """Run each argv through the CLI; probe the machine after each call."""
    codes, latencies, probes = [], [], []
    for argv in argvs:
        if tracer is not None:
            tracer.request += 1
        t = perf_counter()
        codes.append(sk.cli.main(argv))
        latencies.append(perf_counter() - t)
        probes.append(calibrate())
    return {"codes": codes, "latencies": latencies,
            "wall": sum(latencies), "probes": probes}


def _run_queries(queries, tracer) -> dict:
    results, errors, latencies = [], [], []
    start = perf_counter()
    for q in queries:
        if tracer is not None:
            tracer.request += 1
        t = perf_counter()
        try:
            results.append(_query(q))
            errors.append(None)
        except Exception as exc:  # reported and counted as failed
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t)
    wall = perf_counter() - start
    return {"results": results, "errors": errors, "latencies": latencies,
            "wall": wall, "probes": [calibrate()]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    probe_before = calibrate()
    import_s, setup_s = _setup()
    probes = [probe_before, calibrate()]

    # the protocol owns stdout; anything the library prints goes to stderr
    proto = sys.stdout
    sys.stdout = sys.stderr

    def reply(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(sk)
    reply({"setup_s": setup_s, "import_s": import_s, "probes": probes,
           "env": _environment()})

    for line in sys.stdin:
        request = json.loads(line)
        op = request["op"]
        if op == "cli":
            reply(_run_cli(request["argvs"], tracer))
        elif op == "queries":
            reply(_run_queries(request["queries"], tracer))
        elif op == "exit":
            if tracer is not None:
                tracer.dump(args.spans)
            import resource
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_mb": rss_kb / 1024.0})
            return 0
        else:
            raise ValueError(f"unknown op {op!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
