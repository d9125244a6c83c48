"""stringmass benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``./src``.  The run sets up once in process, runs rounds of operations
until S seconds of operation time have passed, and sets up SETUP_SAMPLES - 1
more times in child processes spread between those rounds (setup_s is the
median).  It checks every operation's output outside its timed interval
and prints a human-readable summary followed by one JSON line.  With
``--trace 1`` it then replays round 0 with spans recorded around the
package's public functions and reports the per-layer metrics instead of
the end-to-end ones.

The host this was written on changes speed by itself, by up to 1.6x, in
stretches of tens of seconds, so a run's raw times depend on when it ran.
Before every operation the run therefore times a fixed reference kernel
(``reference_kernel``, no package code) REF_REPEAT times, and the gated
time metrics ``wall_ref`` and ``op_p50_ref`` are times in units of that
kernel's median time in the same round.  ``setup_s`` stays in seconds but
is scaled to a host on which the kernel takes REF_NOMINAL_S: the median
set-up time times REF_NOMINAL_S over the run's median kernel time (the
set-up samples are spread over the run).  The raw seconds are printed too.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "_runs"
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
LAYERS = ("import", "model", "spectrum", "mufunc", "dynamics", "fock", "cli")
NAMED_SELF = ("model.calibrate", "spectrum.detect_threshold",
              "spectrum.find_negative_modes", "spectrum.find_positive_modes",
              "spectrum.build_spectrum", "spectrum.basis", "mufunc.robin_residual",
              "mufunc.inner_mu", "dynamics.project", "dynamics.evolve_modes",
              "dynamics.hamiltonian_modes", "fock.factorization_diagnostic",
              "cli.load_config")
NAMED_CALLS = ("spectrum.basis", "spectrum.basis_mode", "mufunc.inner_mu")
REF_REPEAT = 3
REF_LOOP = 20000
REF_ARRAY = 2000
REF_NOMINAL_S = 0.002  # the kernel's time on the host setup_s is scaled to


class Fail(Exception):
    """The benchmark cannot produce a result."""


# Units of the metrics printed in the summary only; BENCHMARK.json gives the rest.
SUMMARY_UNITS = {"setup_raw_s": "s", "wall_s": "s", "op_p50_s": "s", "ref_s": "s", "op_p90_s": "s",
                 "commands_per_s": "1/s", "snapshots_per_s": "1/s",
                 "eigenpairs_per_s": "1/s", "out_mb": "MB", "fail_ratio": "1"}


def metric_units() -> tuple[dict, dict, dict]:
    """Units of the (end-to-end, per-layer, summary-only) metrics by name."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise Fail(f"cannot read BENCHMARK.json: {e}")
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]}, SUMMARY_UNITS)


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def import_from_checkout() -> None:
    """Make ``import stringmass`` resolve to this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "stringmass" / "__init__.py").is_file():
        raise Fail(f"no stringmass package under {src}")
    sys.path.insert(0, str(src))
    # children (set-up samples, importtime, CLI commands) inherit this
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)


def check_imported_from_checkout() -> None:
    import stringmass
    where = Path(stringmass.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise Fail(f"stringmass imported from {where}, not from this checkout")


def setup_once(wl) -> float:
    start = time.perf_counter()
    wl.setup()
    return time.perf_counter() - start


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise Fail(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def reference_kernel() -> float:
    """Fixed work like the package's: a scalar Python loop and small numpy
    vector operations.  Its time tracks the host's speed, not the program's."""
    import numpy as np
    s = 0.0
    for i in range(REF_LOOP):
        s += math.sqrt(i * 0.5)
    a = np.arange(REF_ARRAY, dtype=float)
    return s + float(np.sin(a) @ np.cos(a))


def time_reference() -> list[float]:
    times = []
    for _ in range(REF_REPEAT):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


@dataclass
class OpResult:
    label: str
    latency: float
    ref: list[float]  # reference-kernel times taken just before the operation
    reason: str | None  # why the operation failed, None if it passed
    known_defect: bool
    items: int
    out_bytes: int


class Record:
    """Every operation of one loop, by round."""

    def __init__(self):
        self.rounds: list[list[OpResult]] = []

    @property
    def ops(self) -> list[OpResult]:
        return [op for rnd in self.rounds for op in rnd]

    def round_walls(self) -> list[float]:
        return [sum(o.latency for o in rnd) for rnd in self.rounds]

    def round_refs(self) -> list[float]:
        """The median reference-kernel time of each round."""
        return [statistics.median(t for o in rnd for t in o.ref) for rnd in self.rounds]

    def rel_latencies(self) -> list[float]:
        """Every latency in units of its round's reference time."""
        return [o.latency / ref for rnd, ref in zip(self.rounds, self.round_refs())
                for o in rnd]


def run_round(wl, ops, record: Record, tracer=None) -> None:
    """Run, time and check ``ops``; the check and any clean-up are untimed."""
    rows = []
    for i, op in enumerate(ops):
        ref = time_reference()
        if tracer is not None:
            tracer.op, tracer.active = i, True
        start = time.perf_counter()
        try:
            result = wl.run(op, tracer)
            error = None
        except Exception as e:  # the loop must go on; the failure is recorded
            result, error = None, f"raised {type(e).__name__}: {e}"
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        reason = error or wl.check(op, result)
        known = bool(reason and op.known_reason and reason.startswith(op.known_reason))
        if reason and op.detail:
            reason += f" [{op.detail}]"
        out_bytes = 0
        if not wl.in_process:
            out_bytes = wl.out_bytes()
            wl.finish(op, tracer)
        rows.append(OpResult(op.label, latency, ref, reason, known,
                             wl.items(op, result) if reason is None else 0, out_bytes))
    record.rounds.append(rows)


def timed_loop(wl, seconds: float, setup_sample=None, n_setup: int = 0) -> tuple[Record, list]:
    """Rounds until ``seconds`` of operation time; between rounds, at most one
    of ``n_setup`` calls of ``setup_sample``, spread evenly over the run."""
    record = Record()
    setups: list[float] = []
    r = 0
    while r == 0 or sum(record.round_walls()) < seconds:
        run_round(wl, wl.round(r), record)
        r += 1
        if len(setups) < n_setup and sum(record.round_walls()) >= seconds * len(setups) / n_setup:
            setups.append(setup_sample())
    while len(setups) < n_setup:
        setups.append(setup_sample())
    return record, setups


def end_to_end(wl, record: Record, setup_samples: list[float]) -> tuple[dict, dict]:
    """(gated metrics, the summary-only metrics that apply to this workload)."""
    ops = record.ops
    lat = [o.latency for o in ops]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    ref_s = statistics.median(record.round_refs())
    setup_raw_s = statistics.median(setup_samples)
    gated = {
        "setup_s": setup_raw_s * REF_NOMINAL_S / ref_s,
        "wall_ref": statistics.fmean(w / r for w, r in zip(record.round_walls(),
                                                            record.round_refs())),
        "op_p50_ref": statistics.median(record.rel_latencies()),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {
        "setup_raw_s": setup_raw_s,
        "wall_s": statistics.median(record.round_walls()),
        "op_p50_s": statistics.median(lat),
        "ref_s": ref_s,
    }
    if len(lat) >= 100:
        extra["op_p90_s"] = stats.percentile(lat, 90)
    extra[f"{wl.unit_items}_per_s"] = sum(o.items for o in ops) / sum(lat)
    if not wl.in_process:
        extra["out_mb"] = statistics.median(
            sum(o.out_bytes for o in rnd) for rnd in record.rounds) / 1e6
    extra["fail_ratio"] = stats.fail_ratio(
        len(ops), sum(1 for o in ops if o.reason and o.reason.startswith("raised ")),
        sum(1 for o in ops if o.reason and not o.reason.startswith("raised ")))
    return gated, extra


def import_metrics() -> dict:
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import stringmass"],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise Fail(f"importtime child failed: {proc.stderr[-500:]}")
        samples.append(stats.import_breakdown(stats.parse_importtime(proc.stderr)))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def traced_run(wl, untraced_wall: float) -> tuple[dict, list[str], tracing.Tracer]:
    """Replay round 0 with spans, then untraced once more for the overhead."""
    tracer = tracing.Tracer()
    traced = Record()
    if wl.in_process:
        tracer.install()
        try:
            run_round(wl, wl.round(0), traced, tracer)
        finally:
            tracer.uninstall()
    else:
        run_round(wl, wl.round(0), traced, tracer)
    replay = Record()
    run_round(wl, wl.round(0), replay)
    wall = traced.round_walls()[0]

    spans = tracer.spans
    by_layer = stats.tally(spans, lambda s: s.layer)
    by_name = stats.tally(spans, lambda s: s.name)
    none = stats.Tally()
    m = dict(import_metrics())
    for layer in LAYERS:
        t = by_layer.get(layer, none)
        m[f"{layer}.calls"], m[f"{layer}.self_s"], m[f"{layer}.fail"] = t.calls, t.self_s, t.fail
    for name in NAMED_SELF:
        m[f"{name}.self_s"] = by_name.get(name, none).self_s
    for name in NAMED_CALLS:
        m[f"{name}.calls"] = by_name.get(name, none).calls
    m["spectrum.secular_points_per_root"] = stats.points_per_root(tracer.secular_points,
                                                                  tracer.roots)
    m["cli.format_write.self_s"] = sum((t.self_s for name, t in by_name.items()
                                        if name.startswith("cli.cmd_")), 0.0)
    m["cli.bytes_written"] = sum(o.out_bytes for o in traced.rounds[0])
    layer_self = sum(by_layer.get(layer, none).self_s for layer in LAYERS)
    m["trace.wall_s"] = wall
    m["trace.remainder_s"] = wall - layer_self
    m["trace.overhead_s"] = wall - replay.round_walls()[0]

    lines = [f"traced round 0 of {wl.name}: {len(traced.rounds[0])} ops, "
             f"wall {wall:.4f} s (untraced replay {replay.round_walls()[0]:.4f} s, "
             f"overhead {m['trace.overhead_s']:+.4f} s; timed-run median round "
             f"{untraced_wall:.4f} s)",
             f"  {'layer':<10} {'calls':>8} {'self_s':>10} {'share':>7} {'fail':>5}"]
    for layer in LAYERS:
        t = by_layer.get(layer, none)
        lines.append(f"  {layer:<10} {t.calls:>8} {t.self_s:>10.4f} "
                     f"{t.self_s / wall:>7.1%} {t.fail:>5}")
    lines.append(f"  {'remainder':<10} {'':>8} {m['trace.remainder_s']:>10.4f} "
                 f"{m['trace.remainder_s'] / wall:>7.1%}   (benchmark glue, unwrapped "
                 f"code, child start-up)")
    lines.append(f"  {'total':<10} {'':>8} {layer_self + m['trace.remainder_s']:>10.4f} "
                 f"{(layer_self + m['trace.remainder_s']) / wall:>7.1%}")
    lines.append("  by span: " + ", ".join(
        f"{name} {t.calls}x {t.self_s:.4f}s" for name, t in sorted(by_name.items())))
    lines.append(f"  secular samples {tracer.secular_points} in {tracer.secular_calls} calls "
                 f"for {tracer.roots} roots")
    return m, lines, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    RUNS.mkdir(parents=True, exist_ok=True)
    workdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        import_from_checkout()
        e2e_units, layer_units, summary_units = metric_units()
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        setup_samples = [setup_once(wl)]
        check_imported_from_checkout()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        record, more = timed_loop(wl, args.seconds, lambda: setup_in_child(args),
                                  SETUP_SAMPLES - 1)
        setup_samples += more
        gated, extra = end_to_end(wl, record, setup_samples)
        machine = machine_record()

        print(f"workload {wl.name}, seed {args.seed}: {len(record.rounds)} rounds, "
              f"{len(record.ops)} ops, closed loop, 1 client")
        print("machine " + json.dumps(machine, sort_keys=True))
        print(f"  setup samples {[round(s, 4) for s in setup_samples]}")
        walls = sorted(record.round_walls())
        print(f"  round walls: min {walls[0]:.4f} s, median {statistics.median(walls):.4f} s, "
              f"max {walls[-1]:.4f} s")
        shown_units = {**e2e_units, **summary_units}
        for name, value in {**gated, **extra}.items():
            print(f"  {name:<20} {value:.6g} {shown_units[name]}"
                  + (f"  (n={len(record.ops)}, "
                     f"{stats.tail_count([o.latency for o in record.ops], 90)} beyond)"
                     if name == "op_p90_s" else ""))
        by_label: dict[str, list[float]] = {}
        for o in record.ops:
            by_label.setdefault(o.label, []).append(o.latency)
        print("  op latency p50 by label: " + ", ".join(
            f"{label} {statistics.median(v):.4f} s (n={len(v)})"
            for label, v in sorted(by_label.items())))
        failures: dict[tuple, int] = {}
        for o in record.ops:
            if o.reason:
                key = (o.label, o.reason, o.known_defect)
                failures[key] = failures.get(key, 0) + 1
        for (label, reason, known), count in sorted(failures.items()):
            print(f"  FAIL {count}x {label}{' (known defect)' if known else ''}: {reason}")
        if not failures:
            print("  no operation failed")
        correct = all(known for (_, _, known) in failures)
        metrics, units = gated, e2e_units

        if args.trace:
            metrics, lines, tracer = traced_run(wl, extra["wall_s"])
            units = layer_units
            print("\n".join(lines))
            out = RUNS / f"trace-{wl.name}-seed{args.seed}.json"
            out.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                       "machine": machine, "metrics": metrics,
                                       **tracer.to_json()}))
            print(f"  spans written to {out.relative_to(ROOT)}")

        if set(metrics) != set(units):
            raise Fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
        failed = sum(1 for o in record.ops if o.reason)
        print(json.dumps({
            "correct": correct,
            "attempted": len(record.ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    except Fail as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
