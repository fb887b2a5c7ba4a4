#!/usr/bin/env python3
"""flashhp benchmark entry point.

    python3 perfbench/run.py --workload supernova2d|service_mix
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library from src/
plus the perfbench executable) into $CARGO_TARGET_DIR or .bench_build,
prepares the Helm-table cache there once (untimed), runs the workload
in a child process with every FLASHHP_* variable cleared, checks its
correctness flags and prints one JSON result as the last stdout line:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Exits nonzero if a correctness check fails. METRICS.md
defines every metric.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("supernova2d", "service_mix")
CLASSES = ("sedov", "cellular", "supernova")
TABLES = ("helm_table_flash.bin", "helm_table_svc.bin")

END_TO_END = {
    "setup_s": "s",
    "latency_s": "s",
    "rss_peak_mib": "MiB",
    "model_dtlb_miss_per_step": "count",
    "model_cycles_per_step": "count",
}

_LAYER_TIMES = ("mesh.guard_fill_s", "mesh.guard_fill_share", "hydro.sweep_s",
                "hydro.zone_updates_per_s", "hydro.compute_dt_s",
                "eos.update_s", "flame.advance_s", "gravity.solve_s",
                "mesh.remesh_s")
_REGIONS = ("hydro", "eos", "flame", "grid")

PER_LAYER = {}
for _name in _LAYER_TIMES:
    _unit = ("1" if _name.endswith("share") else
             "1/s" if _name.endswith("per_s") else "s")
    PER_LAYER[_name] = _unit
    PER_LAYER[_name + "_1lane"] = _unit
PER_LAYER.update({
    "mesh.remesh_changes": "count",
    "mesh.leaves": "count",
    "sim.steps_per_s_1lane": "1/s",
    "par.step_s": "s",
    "par.speedup": "1",
    "par.cpu_util": "1",
    "tlb.replay_s": "s",
})
for _r in _REGIONS:
    PER_LAYER["tlb.dtlb_miss_per_step." + _r] = "count"
for _r in _REGIONS:
    PER_LAYER["tlb.cycles_per_step." + _r] = "count"
PER_LAYER.update({
    "mem.unk_mib": "MiB",
    "mem.resident_mib": "MiB",
    "mem.huge_frac": "1",
    "mem.pool.hugetlb_mib": "MiB",
    "mem.pool.thp_mib": "MiB",
    "mem.pool.base_mib": "MiB",
    "eos.table_load_s": "s",
})
for _prefix in ("svc.tenant_setup_s.", "svc.queue_wait_p50_s.",
                "svc.run_p50_s.", "svc.job_p50_s."):
    for _c in CLASSES:
        PER_LAYER[_prefix + _c] = "s"
PER_LAYER.update({
    "svc.jobs_per_s": "1/s",
    "svc.rss_peak_mib": "MiB",
    "svc.job_p90_s": "s",
    "svc.submit_p90_s": "s",
    "svc.gen_lag_p90_s": "s",
    "svc.gen_lag_max_s": "s",
    "svc.backpressure_retries": "count",
    "svc.cpu_util": "1",
    "sim.checkpoint_write_s": "s",
    "sim.checkpoint_read_s": "s",
    "sim.checkpoint_mib": "MiB",
    "bench.trace_overhead_frac": "1",
    "bench.cpus_available": "1",
})

MIB = 1024.0 * 1024.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def clean_env():
    """The environment without FLASHHP_* knobs, so nothing outside the
    checkout can change the program being measured."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("FLASHHP_")}


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(env):
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    logfile = build_dir() / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(logfile, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=env, timeout=800).returncode != 0:
                log(f"build failed: {' '.join(cmd)} (see {logfile})")
                sys.exit(1)
    return out / "perfbench"


def prepare(exe, env):
    cache = build_dir() / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    if all((cache / t).exists() for t in TABLES):
        return cache
    log("preparing Helm-table cache (untimed, once per checkout)")
    r = subprocess.run([str(exe), "prepare", "--cache", str(cache)],
                       stdout=subprocess.DEVNULL, env=env, timeout=800)
    if r.returncode != 0:
        log("table preparation failed")
        sys.exit(1)
    return cache


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return [int(x) for x in fields[1:]]


def read_text(path):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def fingerprint(exe, env, raw, steal):
    meminfo = {}
    for line in read_text("/proc/meminfo").splitlines():
        key, _, value = line.partition(":")
        if key.startswith("Huge"):
            meminfo[key] = value.strip()
    cache = (exe.parent / "CMakeCache.txt").read_text().splitlines()
    compiler = next((l.split("=", 1)[1] for l in cache
                     if l.startswith("CMAKE_CXX_COMPILER:")), "c++")
    build_type = next((l.split("=", 1)[1] for l in cache
                       if l.startswith("CMAKE_BUILD_TYPE:")), "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, env=env,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "thp_enabled": read_text("/sys/kernel/mm/transparent_hugepage/enabled"),
        "thp_defrag": read_text("/sys/kernel/mm/transparent_hugepage/defrag"),
        "hugetlb": meminfo,
        "compiler": version,
        "build_type": build_type,
        "layout": raw["config"]["layout"],
        "exec_mode": raw["config"]["exec_mode"],
        "policy": raw["config"]["policy"],
        "steal_frac": steal,
        "cpus_available": raw["cpus_available"],
        "spin1_s": raw["spin1_s"],
    }


# ------------------------------------------------------------ sim metrics

def window_of(raw, arm):
    return stats.window_median(raw["arms"][arm]["step_s"],
                               raw["window_start"], raw["window"])


def sim_end_to_end(raw):
    model = raw["model"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_s": stats.window_min(raw["arms"]["driver_1"]["step_s"],
                                      raw["window_start"], raw["window"]),
        "rss_peak_mib": raw["rss_peak_kib"] / 1024.0,
        "model_dtlb_miss_per_step": model["dtlb"] / model["steps"],
        "model_cycles_per_step": model["cycles"] / model["steps"],
    }


def per_step_layers(spans):
    """Per-step self time of every span name, one dict per "step" root,
    in step order. Self time is a span's duration minus the time its
    child spans cover."""
    child_time = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    steps, owner = [], [None] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            owner[i] = len(steps)
            steps.append({"step": (end - start) * 1e-9})
            continue
        owner[i] = owner[parent]
        layer = steps[owner[i]]
        self_s = (end - start - child_time[i]) * 1e-9
        layer[name] = layer.get(name, 0.0) + self_s
    return steps


def layer_metrics(raw, arm, suffix):
    start, window = raw["window_start"], raw["window"]
    steps = per_step_layers(raw["spans"][arm])[start:start + window]
    leaves = raw["arms"][arm]["leaves"][start:start + window]
    cfg = raw["config"]
    zones = cfg["cells_per_block"] * cfg["ndim"]

    def med(name):
        return statistics.median(s.get(name, 0.0) for s in steps)

    remesh = [s["mesh.remesh"] for s in steps if "mesh.remesh" in s]
    return {
        "mesh.guard_fill_s" + suffix: med("mesh.guard_fill"),
        "mesh.guard_fill_share" + suffix: statistics.median(
            s.get("mesh.guard_fill", 0.0) / s["step"] for s in steps),
        "hydro.sweep_s" + suffix: med("hydro.sweep"),
        "hydro.zone_updates_per_s" + suffix: statistics.median(
            n * zones / s["hydro.sweep"] for s, n in zip(steps, leaves)),
        "hydro.compute_dt_s" + suffix: med("hydro.compute_dt"),
        "eos.update_s" + suffix: med("eos.update"),
        "flame.advance_s" + suffix: med("flame.advance"),
        "gravity.solve_s" + suffix: med("gravity.solve"),
        "mesh.remesh_s" + suffix: statistics.median(remesh) if remesh else 0.0,
    }


def sim_per_layer(raw):
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(layer_metrics(raw, "copy_4", ""))
    m.update(layer_metrics(raw, "copy_1", "_1lane"))
    start, window = raw["window_start"], raw["window"]
    d4 = raw["arms"]["driver_4"]
    model = raw["copy_model"]
    replay = [s.get("tlb.replay", 0.0)
              for s in per_step_layers(raw["spans"]["copy_4"])[:start]]
    mem = raw["memory"]
    ckpt = raw["checkpoint"]
    m.update({
        "mesh.remesh_changes": raw["remesh_changes"],
        "mesh.leaves": raw["leaves"],
        "sim.steps_per_s_1lane": stats.cycle_rate(
            raw["arms"]["copy_1"]["step_s"], start, window,
            raw["remesh_interval"]),
        "par.step_s": window_of(raw, "driver_4"),
        "par.speedup": window_of(raw, "copy_1") / window_of(raw, "copy_4"),
        "par.cpu_util": sum(d4["cpu_s"][start:start + window]) /
                        (4 * sum(d4["step_s"][start:start + window])),
        "tlb.replay_s": statistics.median(replay),
        "mem.unk_mib": mem["unk_bytes"] / MIB,
        "mem.resident_mib": mem["rss_kib"] / 1024.0,
        "mem.huge_frac": mem["huge_resident_bytes"] / mem["mapped_bytes"],
        "mem.pool.hugetlb_mib": mem["hugetlb_bytes"] / MIB,
        "mem.pool.thp_mib": mem["thp_bytes"] / MIB,
        "mem.pool.base_mib": mem["base_bytes"] / MIB,
        "eos.table_load_s": raw.get("table_load_s", 0.0),
        "sim.checkpoint_write_s": ckpt["write_s"],
        "sim.checkpoint_read_s": ckpt["read_s"],
        "sim.checkpoint_mib": ckpt["bytes"] / MIB,
        "bench.trace_overhead_frac":
            window_of(raw, "copy_4") / window_of(raw, "driver_4") - 1.0,
        "bench.cpus_available": statistics.fmean(raw["cpus_available"]),
    })
    for r in _REGIONS:
        region = model["regions"][r]
        m["tlb.dtlb_miss_per_step." + r] = region["dtlb"] / model["steps"]
        m["tlb.cycles_per_step." + r] = region["cycles"] / model["steps"]
    return m


def sim_checks(raw, traced):
    checks = {"ok": raw["ok"], "checkpoint": raw["checkpoint"]["identical"],
              "model_regions_sum": raw["model_regions_sum"]}
    if traced:
        checks["lanes_identical"] = raw["lanes_identical"]
        checks["copy_state_identical"] = raw["copy_state_identical"]
        checks["copy_counters_identical"] = raw["copy_counters_identical"]
        regions = raw["copy_model"]["regions"].values()
        checks["tlb_regions_sum"] = (
            sum(r["dtlb"] for r in regions) == raw["model"]["dtlb"] and
            sum(r["cycles"] for r in regions) == raw["model"]["cycles"])
    checks["sedov_shock_within_12pct"] = abs(raw["shock_ratio"] - 1) <= 0.12
    checks["table_loaded_not_built"] = raw["table_untouched"]
    return checks


# -------------------------------------------------------- service metrics

def phase_a_latencies(raw):
    return [stats.job_latency(due, accepted, wall) for due, accepted, wall in
            zip(raw["phase_a_due_s"], raw["phase_a_accepted_s"],
                raw["phase_a"]["wall_s"])]


def class_medians(raw, values):
    """Per-class medians of one phase-A quantity, in CLASSES order."""
    cls = raw["phase_a"]["class"]
    return [statistics.median(v for v, c in zip(values, cls) if c == i)
            for i in range(len(CLASSES))]


def batch_rate(raw):
    """Phase B jobs per second: the batch over the sum of its rounds'
    makespans (release to last completion)."""
    return len(raw["phase_b"]["wall_s"]) / sum(raw["phase_b_round_s"])


def service_end_to_end(raw):
    setups = raw["tenant_setup_s"]
    per_rep = [sum(v) for v in zip(*(setups[c] for c in CLASSES))]
    model = raw["model"]
    return {
        "setup_s": statistics.median(per_rep),
        "latency_s": statistics.fmean(class_medians(raw, phase_a_latencies(raw))),
        "rss_peak_mib": raw["rss_peak_solo_kib"] / 1024.0,
        "model_dtlb_miss_per_step": sum(model["dtlb"]) / sum(model["steps"]),
        "model_cycles_per_step": sum(model["cycles"]) / sum(model["steps"]),
    }


def tail(values, q):
    p = stats.reportable_percentile(values, q)
    if p is None:
        raise RuntimeError(
            f"p{round(q * 100)} of {len(values)} samples has fewer than "
            f"{stats.MIN_BEYOND} beyond it; lengthen --seconds")
    log(f"p{round(q * 100)} = {p['value']:.4g} over n={p['n']} "
        f"({p['beyond']} beyond)")
    return p["value"]


def service_per_layer(raw):
    m = dict.fromkeys(PER_LAYER, 0.0)
    a = raw["phase_a"]
    lat = phase_a_latencies(raw)
    lag = [s - d for s, d in zip(raw["phase_a_first_try_s"],
                                 raw["phase_a_due_s"])]
    run = [w - q for w, q in zip(a["wall_s"], a["queue_s"])]
    for c, queue, run_s, job in zip(CLASSES, class_medians(raw, a["queue_s"]),
                                    class_medians(raw, run),
                                    class_medians(raw, lat)):
        m["svc.tenant_setup_s." + c] = statistics.median(
            raw["tenant_setup_s"][c])
        m["svc.queue_wait_p50_s." + c] = queue
        m["svc.run_p50_s." + c] = run_s
        m["svc.job_p50_s." + c] = job
    m.update({
        "svc.jobs_per_s": batch_rate(raw),
        "svc.rss_peak_mib": raw["rss_peak_kib"] / 1024.0,
        "svc.job_p90_s": tail(lat, 0.9),
        "svc.submit_p90_s": tail(raw["phase_a_submit_call_s"], 0.9),
        "svc.gen_lag_p90_s": tail(lag, 0.9),
        "svc.gen_lag_max_s": max(lag),
        "svc.backpressure_retries": raw["phase_a_retries"],
        "svc.cpu_util": raw["phase_a_cpu_s"] /
                        (raw["phase_a_wall_s"] * raw["workers"]),
        "mem.resident_mib": raw["rss_kib"] / 1024.0,
        "eos.table_load_s": raw["table_load_s"],
        "bench.cpus_available": statistics.fmean(raw["cpus_available"]),
    })
    return m


def service_checks(raw):
    return {
        "ok": raw["ok"],
        "all_jobs_done": raw["phase_a"]["done"] == len(raw["phase_a"]["wall_s"])
        and raw["phase_b"]["done"] == len(raw["phase_b"]["wall_s"]),
        "capture_identical_to_solo": raw["capture_identical"],
        "table_loaded_not_built": raw["table_untouched"],
    }


# ------------------------------------------------------------------- main

def run_workload(exe, cache, args, env):
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    if args.workload == "service_mix":
        cmd = [str(exe), "service", "--seconds", str(args.seconds)]
    else:
        cmd = [str(exe), "sim", "--workload", args.workload,
               "--work", str(work)]
    cmd += ["--seed", str(args.seed), "--trace", str(args.trace),
            "--cache", str(cache)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                       timeout=170)
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if r.returncode != 0 or not lines:
        log(f"workload process failed (exit {r.returncode})")
        sys.exit(1)
    # Keep the raw measurements of the last run for inspection.
    (work / f"raw_{args.workload}_{args.trace}.json").write_text(lines[-1])
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no flashhp sources under {ROOT}; nothing to build")
        return 2
    env = clean_env()
    exe = build(env)
    cache = prepare(exe, env)

    cpu0 = cpu_times()
    raw = run_workload(exe, cache, args, env)
    cpu1 = cpu_times()
    delta = [b - a for a, b in zip(cpu0, cpu1)]
    steal = delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0

    traced = args.trace == 1
    units = PER_LAYER if traced else END_TO_END
    if args.workload == "service_mix":
        checks = service_checks(raw)
        metrics = service_per_layer(raw) if traced else service_end_to_end(raw)
        attempted = len(raw["phase_a"]["wall_s"]) + len(raw["phase_b"]["wall_s"])
        failed = attempted - raw["phase_a"]["done"] - raw["phase_b"]["done"]
    else:
        checks = sim_checks(raw, traced)
        metrics = sim_per_layer(raw) if traced else sim_end_to_end(raw)
        attempted = sum(len(a["step_s"]) for a in raw["arms"].values())
        failed = 0
    correct = all(checks.values())
    if not correct:
        failed = max(failed, sum(1 for v in checks.values() if not v))

    print("# fingerprint " + json.dumps(
        fingerprint(exe, env, raw, steal), sort_keys=True))
    print("# checks " + json.dumps(checks, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    if not correct:
        log("correctness check failed: " +
            ", ".join(k for k, v in checks.items() if not v))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
