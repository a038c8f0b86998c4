"""dspn benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload search --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

A run writes the workload's inputs under ``.perfbench_out/`` from
``--seed``, times set-up in fresh interpreters, and then repeats the
workload's timed phases for ``--seconds`` seconds, checking every output.
Every timing is the CPU time of the process it measures, scaled to
reference seconds by a fixed kernel run around it (speed.py), so neither
other work on the machine nor the host's speed of the moment shows in it;
the run length is wall time.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` the first half of the window
runs untraced and the second half runs the same number of repetitions with
spans around every dspn layer boundary, and the last line carries the
per-layer metrics.  See perfbench/README.md for the design.
"""

from __future__ import annotations

import os

# One thread: pin BLAS before numpy loads, and keep the CLI's worker
# count at its default.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
DSPN_THREADS_WAS_SET = "DSPN_THREADS" in os.environ
os.environ.update(BLAS_PIN)
os.environ.pop("DSPN_THREADS", None)
# One CPU: the work, the set-up probes (which inherit this) and the
# reference kernel that scales their times all run on the same one.  It is
# the CPU the process started on, so that runs started side by side keep
# the places the scheduler gave them.
with open("/proc/self/stat", encoding="ascii") as _stat:
    CPU = int(_stat.read().rsplit(")", 1)[1].split()[36])
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def fail_without_result(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "dspn" / "__init__.py").is_file():
    fail_without_result(f"no dspn sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dspn  # noqa: E402
import layers  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402
from tracer import Tracer, clock  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

perf_counter = time.perf_counter


def environment() -> dict:
    src = sorted((ROOT / "src" / "dspn").glob("*.py"))
    digest = hashlib.sha256()
    for p in src:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pin": BLAS_PIN,
        "DSPN_THREADS": "unset" + (" (removed from the environment)"
                                   if DSPN_THREADS_WAS_SET else ""),
        "dspn_imported_from": str(Path(dspn.__file__).parent),
        "cpu_pinned": CPU,
        "clock": "CPU time of the benchmark process (time.process_time) and "
                 "of each set-up probe (its rusage), in reference seconds: "
                 "scaled by the reference kernel run on either side "
                 f"(REFERENCE_S = {REFERENCE_S} s); run length in wall time",
        "limits": "in-process timers and the kernel's per-process CPU "
                  "accounting only; no hardware counters and no machine-wide "
                  "tracing were used",
    }


def median(xs) -> float:
    return float(statistics.median(xs))


TAIL_PERCENTILE = 90.0


def tail(samples) -> tuple[float, float]:
    """The 90th percentile, interpolated, and which percentile that is.

    A run holds 6 to 60 op samples, depending on the workload and on how
    many repetitions fit in it.  "The highest percentile with at least 10
    samples beyond it" would then name a different percentile from run to
    run, one below the median when there are fewer than 20 samples, so
    runs and commits could not be compared; a fixed percentile can be."""
    return float(np.percentile(samples, TAIL_PERCENTILE)), TAIL_PERCENTILE


def setup_probes(wl, ledger: Ledger) -> tuple[list[float], list[dict]]:
    """Time fresh interpreters from spawn to exit, each importing dspn,
    parsing the inputs and loading and verifying the model.  A probe's time
    is its CPU time (user plus system), which the kernel reports when the
    probe is reaped; probes run one at a time, so the change in the
    children's total is that probe's.  It is scaled to reference seconds by
    the kernel samples taken before and after the probe."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)] + wl.input_paths()
    times, reports = [], []
    sp = Speed()
    sp.sample()
    for _ in range(SETUP_PROBES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        sp.sample()
        cpu = (after.ru_utime + after.ru_stime
               - before.ru_utime - before.ru_stime)
        times.append(sp.scale(cpu))
        ok = proc.returncode == 0
        ledger.check(ok, f"set-up probe exited {proc.returncode}: {proc.stderr[-400:]}")
        if ok:
            reports.append(json.loads(proc.stdout.splitlines()[-1]))
            reports[-1].update(cpu_s=cpu, kernel_around_s=sp.samples[-2:])
    return times, reports


def rep_loop(wl, ledger: Ledger, tracer: Tracer, budget: float | None = None,
             reps: int | None = None) -> list[dict]:
    """Closed loop: start the next repetition only after the last one is
    checked, until ``reps`` are done or another would overrun ``budget``."""
    done = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        c0 = clock()
        st: dict = {}
        try:
            if tracer.enabled:
                layers.install(tracer, st)
            try:
                with tracer.span("rep"):
                    wl.load(tracer, st)
                    out = wl.run(st, tracer)
            finally:
                tracer.restore()
            out["rep_s"] = clock() - c0
            out["rep_wall_s"] = perf_counter() - t0
            ledger.ops(len(wl.files))
            wl.check(st, out, ledger)
        except Exception:
            ledger.fail(traceback.format_exc())
            traceback.print_exc()
            break
        done.append(out)
        if reps is not None:
            if len(done) >= reps:
                break
        elif (perf_counter() - start) + (perf_counter() - t0) > budget:
            break
    return done


def speed_record(sp: Speed) -> dict:
    return {"factor": sp.factor(), "kernel_samples_s": sp.samples,
            "timed_cpu_s": sp.cpu_s, "timed_reference_s": sp.ref_s,
            "laps": sp.laps}


def end_to_end(plain: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    ops = [x for r in plain for x in r["ops_ms"]]
    tail_ms, tail_pct = tail(ops)
    phase = lambda key: median(r["phases"][key] for r in plain)
    laps = lambda key: median(x for r in plain for x in r["laps"][key])
    metrics = {
        "setup_s": median(setup_times),
        "phase_s": median(sum(r["phases"].values()) for r in plain),
        "op_ms_p50": median(ops),
        "op_ms_tail": tail_ms,
        "score_slices_per_s": median(r["slices"] / x for r in plain
                                     for x in r["laps"]["score"]),
        "baseline_s": laps("baseline"),
        "query_s": laps("query"),
        "test_nll": median(r["test_nll"] for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"op_samples": len(ops), "op_tail_percentile": tail_pct,
            "repetitions": len(plain),
            # below 1 when other work held the CPU during the run
            "cpu_share_of_wall": median(r["rep_s"] / r["rep_wall_s"] for r in plain)}
    if "learn" in plain[0]["phases"]:
        info["learn_s"] = phase("learn")
    return metrics, info


def report(wl, metrics: dict, info: dict, units: dict, ledger: Ledger,
           probes: list[dict]) -> None:
    """Print the metrics by name and unit: the workload's design names
    first, then the uniform names of the result line."""
    print(f"== {wl.name}: one op = {wl.op}; {info.get('repetitions')} repetitions, "
          f"{info.get('op_samples', 0)} op samples; times are in reference "
          f"seconds (the kernel ran {info.get('speed_factor', 0):.3f}x its "
          f"reference time; CPU time was {info.get('cpu_share_of_wall', 0):.3f} "
          "of wall time)")
    if "op_tail_percentile" in info:
        values = dict(metrics, learn_s=info.get("learn_s"))
        for alias, key in wl.aliases.items():
            unit = units.get(key, "s")
            extra = ""
            if key == "op_ms_tail":
                extra = (f"  (p{info['op_tail_percentile']:.1f} of "
                         f"{info['op_samples']} samples)")
            print(f"  {alias:<24} {values[key]:.6g} {unit}{extra}")
    for key, value in metrics.items():
        print(f"  {key:<24} {value:.6g} {units[key]}")
    if probes:
        print(f"  setup split (median of {len(probes)}): "
              + ", ".join(f"{k} {median(p[k] for p in probes):.4g}"
                          for k in ("import_s", "parse_s", "model_s",
                                    "verify_s", "open_ms_max")))
    print(f"  error_rate               {ledger.failed / max(1, ledger.attempted):.6g} "
          f"({ledger.failed} failed of {ledger.attempted} attempted)")
    print(f"  max |delta| vs reference {ledger.max_delta:.3g} (diagnostic)")
    for msg in ledger.failures[:10]:
        print(f"  FAILED: {msg.strip()}")


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 spec: dict, env: dict) -> dict | None:
    out_dir = OUT_DIR / f"{name}-seed{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = WORKLOADS[name](out_dir)
    ledger = Ledger()
    wl.make_inputs(seed)
    setup_times, probes = setup_probes(wl, ledger)
    for p in probes:
        ledger.check(p["dspn_file"].startswith(str(ROOT / "src")),
                     f"set-up probe imported dspn from {p['dspn_file']}")
    off = Tracer(False)
    st: dict = {}
    wl.load(off, st)
    wl.prepare(st, ledger)      # references, computed outside the timed loop
    wl.speed = Speed()
    for _ in range(3):          # warm the kernel up
        wl.speed.sample()
    wl.speed.samples.clear()
    plain = rep_loop(wl, ledger, off, budget=seconds / 2 if trace else seconds)
    speed = speed_record(wl.speed)
    if not plain or not setup_times:
        report(wl, {}, {}, {}, ledger, probes)
        return None
    metrics, info = end_to_end(plain, setup_times)
    info["speed_factor"] = speed["factor"]
    declared = spec["end_to_end"]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "environment": env, "setup_probes": probes,
              "setup_probe_s": setup_times, "speed": speed,
              "end_to_end": metrics, **info,
              "repetition_phases_s": [r["phases"] for r in plain]}
    if trace:
        tracer = Tracer(True)
        wl.speed = Speed()
        traced = rep_loop(wl, ledger, tracer, reps=len(plain))
        if not traced:
            report(wl, {}, {}, {}, ledger, probes)
            return None
        candidates = [c for r in traced for c in r.get("candidates", ())]
        metrics = layers.layer_metrics(tracer, len(traced), candidates)
        # span times are raw CPU seconds; scale them by the traced loop's
        # median kernel time, like the laps of the untraced loop
        factor = wl.speed.factor()
        for m in spec["per_layer"]:
            if m["unit"] in ("s", "ns"):
                metrics[m["name"]] /= factor
        # the timed phases per repetition, lap by lap in reference seconds
        metrics["trace_overhead"] = ((wl.speed.ref_s / len(traced))
                                     / (speed["timed_reference_s"] / len(plain)) - 1)
        # whole repetitions (load and timed phases), each loop scaled by its
        # median kernel sample, for the sum of self times
        untraced_rep = median(r["rep_s"] for r in plain) / speed["factor"]
        traced_rep = median(r["rep_s"] for r in traced) / factor
        selfs = [t / factor for t in tracer.self_times()]
        glue = sum(t for i, t in enumerate(selfs)
                   if tracer.name_of(i) in ("rep", "load")
                   or tracer.name_of(i).startswith("phase."))
        record.update(per_layer=metrics, traced_speed=speed_record(wl.speed),
                      traced_rep_s=traced_rep,
                      untraced_rep_s=untraced_rep,
                      self_time_sum_per_rep_s=sum(selfs) / len(traced),
                      unattributed_per_rep_s=glue / len(traced),
                      layer_totals=tracer.totals())
        tracer.write(out_dir / "trace.json", {"workload": name, "seed": seed,
                                              "environment": env})
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        fail_without_result(f"metrics {sorted(set(metrics) ^ set(units))} "
                            "differ from BENCHMARK.json")
    record.update(attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures, max_abs_delta=ledger.max_delta)
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report(wl, record["end_to_end"], info, e2e_units, ledger, probes)
    if trace:
        print(f"  trace_overhead {metrics['trace_overhead']:.4f}; self times sum "
              f"to {record['self_time_sum_per_rep_s']:.4f} s per repetition against "
              f"{untraced_rep:.4f} s untraced ({record['unattributed_per_rep_s']:.4f} s "
              "outside any dspn span)")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail_without_result(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    env = environment()
    print("environment " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              spec, env)
        if result is None:
            status = 1
            continue
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
