"""Measurement loop of the benchmark; import after `run.load_program()`.

Every run first executes a check round: the default seed's first round,
compared with the reference rows in `reference.json`.  It also warms the
process up before anything is timed.  An untraced run then runs rounds
of fresh cells, picked by `--seed`, until `--seconds` of parse, run and
emit time have passed.  Its throughputs and `setup_s` are scaled to a
reference host speed, measured by fixed calibration work between the
rounds.  A traced run spends part of `--seconds` the same way, then
replays exactly those rounds with the layer wrappers installed.  The replay must emit the same bytes, and the
time ratio of the two passes is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import workloads as wls
from run import BENCH, BLAS_THREADS, ROOT
from tracer import Tracer, layer_metrics

OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 30
# share of --seconds a traced run spends on its untraced pass; the traced
# replay of the same rounds takes this long times (1 + overhead)
UNTRACED_SHARE = 0.45
# Host speed.  On a shared host the speed of the whole machine drifts by
# up to 40 % over tens of seconds: on the 2-core machine the benchmark was
# written on, 15 s window medians of a fixed desk round and of the
# calibration below correlated at 0.94, and the CPU time tracked the wall
# time.  An untraced run therefore times this fixed work, which does not
# touch the program, between its rounds, and scales its figures to the
# host speed at which the work takes CAL_REFERENCE_S (its median there).
CAL_REFERENCE_S = 0.075
CAL_LOOP = 200_000          # interpreter iterations
CAL_KERNELS = ((8, 32, 4, 5), (8, 120, 8, 1))  # n_ue, M, q, repeats


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    """Where the figures were taken; read only, nothing is changed."""
    env = {"git_sha": "unavailable", "nproc": os.cpu_count(),
           "affinity": sorted(os.sched_getaffinity(0)),
           "cgroup_cpu_max": "unavailable",
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": "unavailable", "blas_threads": BLAS_THREADS}
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if out.returncode == 0:
            env["git_sha"] = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        group = Path("/proc/self/cgroup").read_text().split("::", 1)[1].strip()
        for path in (Path("/sys/fs/cgroup") / group.lstrip("/") / "cpu.max",
                     Path("/sys/fs/cgroup/cpu.max")):
            if path.is_file():
                env["cgroup_cpu_max"] = path.read_text().strip()
                break
    except (OSError, IndexError):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = blas.get("blas", {})
    if blas:
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return env


def load_reference(name: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    rows = json.loads(REFERENCE.read_text()).get(name, [])
    return {(i, seed): rate for i, seed, rate in rows}


def rounds_from(seed: int, size: int):
    stream = wls.cell_seeds(seed)
    while True:
        yield [next(stream) for _ in range(size)]


def check_seeds(wl) -> list:
    """The default seed's first round: the rows `reference.json` holds."""
    return next(rounds_from(DEFAULT_SEED, wl.seeds_per_round))


def calibration_work() -> list:
    """Fixed operands in the shapes of the desk and paper rate kernels."""
    rng = np.random.default_rng(DEFAULT_SEED)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return [(cn(n_ue, m), cn(256, m), cn(m, q), reps)
            for n_ue, m, q, reps in CAL_KERNELS]


def calibrate(work) -> float:
    """Seconds the host takes now for the fixed work: a bare interpreter
    loop and batched einsum/SVD, the two kinds of time the cells spend."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_LOOP):
        x += i * i % 7
    for g, phis, t, reps in work:
        for _ in range(reps):
            np.linalg.svd(np.einsum("um,km,mq->kuq", g, phis, t),
                          compute_uv=False)
    return time.perf_counter() - t0


def timed_rounds(wl, seed: int, seconds: float, out_dir: Path,
                 calibration: list | None = None) -> list:
    """Rounds of fresh cells until `seconds` of measured time have passed;
    with a `calibration` list, the host is also timed between rounds."""
    work = calibration_work()
    if calibration is not None:
        calibration.append(calibrate(work))
    done, spent = [], 0.0
    for seeds in rounds_from(seed, wl.seeds_per_round):
        if spent >= seconds:
            return done
        done.append(wls.run_round(wl, seeds, out_dir))
        spent += done[-1].seconds
        if calibration is not None:
            calibration.append(calibrate(work))


def setup_seconds(wl, out_dir: Path) -> list:
    """Wall time of fresh interpreters that import risbeam and parse."""
    texts = [wls.config_text(base, check_seeds(wl), out_dir / "setup.csv")
             for base in wl.configs]
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), wl.scale, *texts]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a blocking wait: wait(timeout=...) polls with sleeps of up to
        # 50 ms, which would quantise a 0.3 s measurement
        watchdog = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
        watchdog.start()
        try:
            status = probe.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if status != 0:
            raise subprocess.CalledProcessError(status, cmd)
    return times


def measure(wl, seed: int, seconds: float, trace: bool, out_dir: Path,
            spans_path: Path | None = None) -> dict:
    """One benchmark run of one workload; returns the result document."""
    reference = load_reference(wl.name)
    doc = {"workload": wl.name, "seed": seed, "seconds": seconds,
           "trace": int(trace)}
    setup = [] if trace else setup_seconds(wl, out_dir)
    check = wls.run_round(wl, check_seeds(wl), out_dir)
    calibration = None if trace else []
    untraced = timed_rounds(wl, seed, seconds * (UNTRACED_SHARE if trace
                                                 else 1.0), out_dir,
                            calibration)
    ran = [check, *untraced]
    problems = []
    if trace:
        tracer = Tracer()
        with tracer.installed():
            traced = [wls.run_round(wl, r.seeds, out_dir) for r in untraced]
        ran += traced
        for a, b in zip(untraced, traced):
            if a.emitted != b.emitted:
                problems.append(f"traced rows differ from untraced rows for "
                                f"seeds {a.seeds}")
        cells = sum(r.cells for r in traced)
        wall = sum(r.seconds for r in traced)
        metrics, layer_ms = layer_metrics(tracer.spans, cells, wall)
        evals = sum(r.evaluations for r in traced)
        if round(metrics["training.evaluations"] * cells) != evals:
            problems.append(f"training spans saw "
                            f"{metrics['training.evaluations'] * cells:.0f} "
                            f"evaluations, rows report {evals}")
        metrics["trace.overhead_frac"] = (
            wall / sum(r.seconds for r in untraced) - 1.0)
        doc["layer_ms_per_cell"] = layer_ms
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    else:
        cells = sum(r.cells for r in untraced)
        wall = sum(r.seconds for r in untraced)
        # > 1 when the host ran slower than the reference speed
        slowdown = statistics.median(calibration) / CAL_REFERENCE_S
        doc.update(host_slowdown=slowdown, calibration_s=calibration,
                   round_seconds=[r.seconds for r in untraced],
                   round_evaluations=[r.evaluations for r in untraced])
        metrics = {
            "cells_per_s": slowdown * cells / wall,
            "evals_per_s":
                slowdown * sum(r.evaluations for r in untraced) / wall,
            "setup_s": statistics.median(setup) / slowdown,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "mean_rate_bps_hz": statistics.fmean(check.rates.values()),
        }

    attempted = sum(r.cells for r in ran)
    failures = [f for r in ran for f in r.failures]
    errors = [e for r in ran for e in wls.reference_errors(r, reference)]
    if not reference:
        problems.append(f"no reference rows for {wl.name} in {REFERENCE}")
    rel_err = max(errors, default=0.0)
    if rel_err > wls.REFERENCE_REL_TOL:
        problems.append(f"rate differs from the reference by {rel_err:.3g}")
    if trace:
        metrics["check.rate_rel_err_max"] = rel_err
        metrics["check.failed_cell_frac"] = len(failures) / attempted
    doc.update(
        correct=not failures and not problems, attempted=attempted,
        failed=min(len(failures), attempted), metrics=metrics,
        rate_rel_err_max=rel_err, failed_cell_frac=len(failures) / attempted,
        cells_timed=cells, seconds_timed=wall,
        evaluations=sum(r.evaluations for r in ran),
        iterations=sum(r.iterations for r in ran),
        rates=[[i, s, rate] for r in ran for (i, s), rate in r.rates.items()],
        setup_runs_s=setup, problems=problems + failures)
    return doc


def report(doc: dict, units: dict) -> list:
    """Human-readable lines: every metric by name with its unit."""
    lines = [f"# {doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
             f"{doc['cells_timed']} cells timed in "
             f"{doc['seconds_timed']:.2f} s, {doc['attempted']} attempted, "
             f"{doc['failed']} failed (failed_cell_frac "
             f"{doc['failed_cell_frac']:.3g}), rate_rel_err_max "
             f"{doc['rate_rel_err_max']:.3g}"]
    if "host_slowdown" in doc:
        lines.append(f"# host slowdown {doc['host_slowdown']:.4f} (median "
                     f"calibration / {CAL_REFERENCE_S} s): throughputs are "
                     f"multiplied by it, setup_s is divided by it")
    for name, value in doc["metrics"].items():
        lines.append(f"{name:34s} {value:14.6g} {units[name]}")
    if "layer_ms_per_cell" in doc:
        per_cell = doc["seconds_timed"] * 1e3 / doc["cells_timed"]
        lines.append(f"# layer self time per cell of {per_cell:.2f} ms:")
        for layer, ms in doc["layer_ms_per_cell"].items():
            lines.append(f"#   {layer:12s} {ms:10.3f} ms  "
                         f"{100 * ms / per_cell:5.1f} %")
    lines += [f"# problem: {p}" for p in doc["problems"][:20]]
    return lines


def write_reference(chosen) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for wl in chosen:
            rnd = wls.run_round(wl, check_seeds(wl), Path(tmp))
            if rnd.failures:
                raise RuntimeError(f"{wl.name}: {rnd.failures}")
            table[wl.name] = [[i, s, rate] for (i, s), rate in rnd.rates.items()]
    REFERENCE.write_text("{\n" + ",\n".join(
        f' "{name}": [\n' + ",\n".join(f"  {json.dumps(row)}" for row in rows)
        + "\n ]" for name, rows in table.items()) + "\n}\n")


def result_line(docs) -> str:
    """The closing JSON line; metrics of several workloads get a prefix."""
    metrics = {}
    for d in docs:
        for name, value in d["metrics"].items():
            key = f"{d['workload']}.{name}" if len(docs) > 1 else name
            metrics[key] = {"value": value, "unit": d["units"][name]}
    return json.dumps({"correct": all(d["correct"] for d in docs),
                       "attempted": sum(d["attempted"] for d in docs),
                       "failed": sum(d["failed"] for d in docs),
                       "metrics": metrics})


def main(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    all_wl = wls.workloads(ROOT)
    names = list(all_wl) if args.workload == "all" else [args.workload]
    if args.write_reference:
        write_reference(all_wl[name] for name in names)
        print(f"wrote {REFERENCE}")
        return 0
    bench = spec()
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    env = environment()
    print("# env " + json.dumps(env))
    docs = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name in names:
            doc = measure(all_wl[name], args.seed, args.seconds,
                          bool(args.trace), Path(tmp),
                          OUT_DIR / f"spans-{name}.jsonl" if args.trace
                          else None)
            if set(doc["metrics"]) != set(units):
                raise RuntimeError(
                    f"metrics {sorted(set(doc['metrics']) ^ set(units))} "
                    f"disagree with BENCHMARK.json")
            doc["env"], doc["units"] = env, units
            (OUT_DIR / f"result-{name}-trace{args.trace}.json").write_text(
                json.dumps(doc, indent=1) + "\n")
            print("\n".join(report(doc, units)))
            docs.append(doc)
    print(result_line(docs))
    return 0 if all(d["correct"] for d in docs) else 1
