#!/usr/bin/env python3
"""The campaign benchmark: one command, four workloads, pooled coordinators.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --steadiness 10 [--workload W ...]
    python3 perfbench/run.py --validate [--update-goldens]

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (libloki from ../src plus campaign_bench.cpp) into
$CARGO_TARGET_DIR, or .bench_build when that is unset.

A run splits its T seconds over several coordinator processes, run one
after another. Each is a fresh campaign_bench process that repeats the
workload's campaign on procs:N (N = CPUs - 1) until its share of the time
is used. The numbers pool over all of them, because a process draws its
host speed mode once, at start (see README.md). Every campaign's times are
restated at the speed of a fixed reference pipeline timed around it, which
takes out most of the host's drift over minutes (README.md, "Host speed
reference"). With --trace 1, every second coordinator records spans; the
per-layer numbers come from those, and trace.overhead_ratio compares them
with the untraced ones of the same run.

The last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit status is 0 only when every index was delivered and matched.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import benchlib  # noqa: E402

# Every workload campaign_bench knows. BENCHMARK.json gates bulk-procs and
# cache-warm only; README.md says why the other two are not steady enough
# to gate on a shared host. --validate still checks all four.
WORKLOADS = ("bulk-procs", "many-studies-procs", "cache-cold", "cache-warm")
COORDINATORS = 12          # processes per run; an even number (see --trace)
# The reference pipeline's calm-host medians on the 4-vCPU VM the benchmark
# was built on (README.md, "Host speed reference"). They fix the unit of the
# time metrics: seconds on a host where the reference takes this long.
REFERENCE_WALL_S = 0.027
REFERENCE_CPU_S = 0.090
COORDINATOR_TIMEOUT = 150  # seconds; a run must end within 180
DEFAULT_SEED = 1           # the seed the goldens are for
GOLDEN_METRICS = (
    "runtime.result_bytes", "runtime.result_bytes.sync",
    "runtime.result_bytes.timelines", "runtime.result_bytes.rest",
    "sim.events_per_exp", "clocksync.samples_per_exp", "analysis.accept_ratio",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configure and build campaign_bench; returns its path."""
    bdir = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if (bdir / "CMakeCache.txt").exists():
        gen = []  # keep whatever generator the cache was made with
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "--target", "campaign_bench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return bdir / "campaign_bench"


def workers():
    return max(1, len(os.sched_getaffinity(0)) - 1)


def coordinator(binary, workload, seed, seconds, workdir, extra=()):
    """Run one campaign_bench process; returns its parsed JSON (or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:.3f}", "--procs", str(workers()),
           "--workdir", str(workdir), *extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=COORDINATOR_TIMEOUT)
    except subprocess.TimeoutExpired:
        log(f"perfbench: coordinator timed out: {' '.join(cmd)}")
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        log(f"perfbench: coordinator exited {p.returncode}: {' '.join(cmd)}")
        return None
    out = json.loads(lines[-1])
    out["exit"] = p.returncode
    return out


def run_once(binary, workload, seed, seconds, trace):
    """One benchmark run; returns the result object run.py prints."""
    work = build_dir() / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_once(binary, workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_once(binary, workload, seed, seconds, trace, work):
    extra = []
    bad_processes = 0
    if workload == "cache-warm":
        # One untimed cold campaign fills the cache every coordinator replays;
        # its per-index stream is the one every warm stream must equal.
        expect = work / "cold-stream.txt"
        pop = coordinator(binary, workload, seed, 0, work,
                          ["--populate", str(expect)])
        if pop is None or pop["exit"] != 0:
            bad_processes += 1
        extra = ["--expect", str(expect)]

    share = seconds / COORDINATORS
    untraced, traced = [], []
    for i in range(COORDINATORS):
        spans = None
        if trace and i % 2 == 1:
            spans = work / f"trace-{i}.jsonl"
        out = coordinator(binary, workload, seed, share, work,
                          extra + (["--trace", str(spans)] if spans else []))
        if out is None:
            bad_processes += 1
            continue
        if spans:
            out["spans"] = benchlib.load_spans(spans)
            traced.append(out)
        else:
            untraced.append(out)

    everything = untraced + traced
    attempted = sum(c["planned"] for c in everything) + bad_processes
    failed = sum(c["failed"] for c in everything) + bad_processes
    result = {"correct": failed == 0 and attempted > 0 and
              all(c["exit"] == 0 for c in everything),
              "attempted": max(attempted, 1), "failed": failed}
    if not untraced or (trace and not traced):
        result["correct"] = False
        result["metrics"] = {}
        return result
    if trace:
        result["metrics"] = layer_metrics(untraced, traced, failed, attempted)
    else:
        result["metrics"] = end_to_end_metrics(workload, untraced)
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload, cs):
    delivered = sum(c["delivered"] for c in cs)
    setup = [s for c in cs for s in benchlib.at_reference_speed(
        c["setup_s"], c["ref_wall_s"], REFERENCE_WALL_S)]
    cpu = sum(sum(benchlib.at_reference_speed(
        c["cpu_s"], c["ref_cpu_s"], REFERENCE_CPU_S)) for c in cs)
    rates = [benchlib.pooled_rate([c], REFERENCE_WALL_S) for c in cs]
    log(f"perfbench: {len(cs)} coordinators, {sum(len(c['wall_s']) for c in cs)}"
        f" campaigns, {delivered} experiments; as measured "
        f"{benchlib.pooled_rate(cs):.0f} exp/s, reference pipeline median "
        f"{reference_ms(cs):.1f} ms; per-process exp/s at reference speed "
        + " ".join(f"{r:.0f}" for r in rates))
    m = {
        "exp_per_s": metric(benchlib.pooled_rate(cs, REFERENCE_WALL_S), "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "cpu_us_per_exp": metric(cpu / delivered * 1e6, "us"),
        "peak_rss_mb": metric(max(c["maxrss_kb"] for c in cs) / 1024.0, "MB"),
    }
    if workload == "many-studies-procs":
        # Study latency means something only where a campaign has many
        # studies; this workload is not gated (README.md), so these two
        # are not in BENCHMARK.json.
        study = [s for c in cs for s in c["study_ms"]]
        p90, used, n = benchlib.tail_percentile(study, 0.90)
        log(f"perfbench: study_ms from {n} studies; p90 reported at "
            f"quantile {used:.3f}")
        m["study_ms.p50"] = metric(statistics.median(study), "ms")
        m["study_ms.p90"] = metric(p90, "ms")
    return m


def reference_ms(cs):
    return statistics.median(r for c in cs for r in c["ref_wall_s"]) * 1e3


def layer_metrics(untraced, traced, failed, attempted):
    spans = [s for c in traced for s in c["spans"]]
    sampled = [s for s in spans if s["exp"] >= 0]
    n_sampled = benchlib.sampled_experiments(sampled)
    self_ns = benchlib.self_times(sampled)

    def per_exp_us(name):
        return self_ns.get(name, 0) / n_sampled / 1e3

    def total(key):
        return sum(c["counts"][key] for c in traced)

    def layers(key):
        return sum(c["layers"][key] for c in traced)

    def median_ms(key):
        xs = [x for c in traced for x in c[key]]
        return statistics.median(xs) if xs else 0.0

    delivered = total("experiments")
    lookups = total("cache_lookups")
    le = layers("experiments")
    result_bytes = layers("result_bytes") / le
    sync_bytes = layers("sync_bytes") / le
    timeline_bytes = layers("timeline_bytes") / le
    counts = [c["counts"] for c in traced]
    sink_ns = sum(benchlib.span_durations(spans, "campaign.sink"))
    wait_ns = sum(benchlib.span_durations(spans, "campaign.emit_wait"))
    opens = [d / 1e6 for d in benchlib.span_durations(spans, "campaign.cache.open")]
    untraced_rate = benchlib.pooled_rate(untraced, REFERENCE_WALL_S)
    traced_rate = benchlib.pooled_rate(traced, REFERENCE_WALL_S)
    # Spans are as measured, so they are compared with the measured wall.
    traced_wall = 1e6 / benchlib.pooled_rate(traced)
    untraced_wall = 1e6 / benchlib.pooled_rate(untraced)
    log(f"perfbench: at reference speed traced {traced_rate:.0f} exp/s, "
        f"untraced {untraced_rate:.0f} exp/s; sink + emit_wait = "
        f"{(sink_ns + wait_ns) / delivered / 1e3:.1f} us/exp vs measured wall "
        f"{traced_wall:.1f} (traced), {untraced_wall:.1f} "
        f"(untraced) us/exp; {n_sampled} sampled experiments")
    us, count, ratio, byte = "us", "count", "ratio", "B"
    m = {
        "runtime.run_experiment_us": (per_exp_us("runtime.run_experiment"), us),
        "sim.events_per_exp": (layers("sim_events") / le, count),
        "runtime.control_msgs_per_exp":
            (total("control_messages") / delivered, count),
        "runtime.app_msgs_per_exp": (total("app_messages") / delivered, count),
        "runtime.dropped_notifications_per_exp":
            (total("dropped_notifications") / delivered, count),
        "runtime.encode_us": (per_exp_us("runtime.encode"), us),
        "runtime.decode_us": (per_exp_us("runtime.decode"), us),
        "runtime.result_bytes": (result_bytes, byte),
        "runtime.result_bytes.sync": (sync_bytes, byte),
        "runtime.result_bytes.timelines": (timeline_bytes, byte),
        "runtime.result_bytes.rest":
            (result_bytes - sync_bytes - timeline_bytes, byte),
        "clocksync.alphabeta_us": (per_exp_us("clocksync.alphabeta"), us),
        "clocksync.samples_per_exp": (total("sync_samples") / delivered, count),
        "analysis.global_timeline_us":
            (per_exp_us("analysis.global_timeline"), us),
        "analysis.verify_us": (per_exp_us("analysis.verify"), us),
        "measure.apply_us": (per_exp_us("measure.apply"), us),
        "analysis.accept_ratio": (total("accepted") / delivered, ratio),
        "analysis.injections_per_exp": (total("injections") / delivered, count),
        "analysis.missed_per_exp": (total("missed") / delivered, count),
        "campaign.sink_us_per_exp": (sink_ns / delivered / 1e3, us),
        "campaign.emit_wait_us_per_exp": (wait_ns / delivered / 1e3, us),
        "campaign.wire_bytes_per_exp": (total("wire_bytes") / delivered, byte),
        "campaign.batches_per_exp": (total("batches") / delivered, count),
        "campaign.final_lease_size":
            (statistics.median(c["final_lease_size"] for c in counts), count),
        "campaign.worker_exp_us.p50":
            (statistics.median(c["worker_exp_us_p50"] for c in counts), us),
        "campaign.worker_exp_us.p99":
            (statistics.median(c["worker_exp_us_p99"] for c in counts), us),
        "campaign.build_ms": (median_ms("build_ms"), "ms"),
        "campaign.first_result_ms":
            (statistics.median(s for c in traced for s in c["setup_s"]) * 1e3,
             "ms"),
        "campaign.study_first_result_ms": (median_ms("study_first_ms"), "ms"),
        "spec.parse_us": (per_exp_us("spec.parse"), us),
        "apps.make_params_us": (per_exp_us("apps.make_params"), us),
        "campaign.validate_us": (per_exp_us("campaign.validate"), us),
        "campaign.cache.store_us": (per_exp_us("campaign.cache.store"), us),
        "campaign.cache.entry_bytes": (layers("entry_bytes") / le, byte),
        "campaign.journal.index_done_us":
            (per_exp_us("campaign.journal.index_done"), us),
        "campaign.journal.flush_us": (per_exp_us("campaign.journal.flush"), us),
        "campaign.journal.bytes_per_exp": (layers("journal_bytes") / le, byte),
        "runtime.cache_key_us": (per_exp_us("runtime.cache_key"), us),
        "campaign.cache.lookup_us": (per_exp_us("campaign.cache.lookup"), us),
        "campaign.cache.contains_us":
            (per_exp_us("campaign.cache.contains"), us),
        "campaign.cache.open_ms": (statistics.median(opens), "ms"),
        "campaign.cache.hit_ratio":
            (total("cache_hits") / lookups if lookups else 0.0, ratio),
        "campaign.requeue_events": (total("requeue_events"), count),
        "campaign.requeued_indices": (total("requeued_indices"), count),
        "campaign.workers_lost": (total("workers_lost"), count),
        "campaign.reconnects": (total("reconnects"), count),
        "campaign.cache.corrupt": (total("cache_corrupt"), count),
        "campaign.cache.evictions": (total("cache_evictions"), count),
        "fail_frac": (failed / max(attempted, 1), ratio),
        "trace.overhead_ratio":
            ((untraced_rate - traced_rate) / untraced_rate, ratio),
        "host.reference_ms": (reference_ms(untraced + traced), "ms"),
        "host.measured_exp_per_s":
            (benchlib.pooled_rate(untraced + traced), "1/s"),
    }
    return {k: metric(v, u) for k, (v, u) in m.items()}


def bounds():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}, spec


def steadiness(binary, names, repeats):
    """Repeat each workload on seeds 1..repeats and report each metric's spread."""
    bound, spec = bounds()
    seconds = spec["run_seconds"]
    print(f"# steadiness: {repeats} runs per workload, seeds 1..{repeats}, "
          f"{seconds} s each, {COORDINATORS} coordinators per run, "
          f"procs:{workers()}, {os.cpu_count()} CPUs")
    print("workload metric median q1 q3 iqr/median bound flag")
    wide = 0
    for name in names:
        values = {}
        for seed in range(1, repeats + 1):
            r = run_once(binary, name, seed, seconds, False)
            if not r["correct"]:
                print(f"{name} seed {seed}: INCORRECT "
                      f"(failed {r['failed']} of {r['attempted']})")
                wide += 1
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, xs in values.items():
            s, q1, med, q3 = benchlib.spread(xs)
            flag = ""
            if k != "setup_s" and s > bound[k]:
                flag = "WIDER-THAN-BOUND"
                wide += 1
            elif s > bound[k] / 3:
                flag = "over-a-third"
            print(f"{name} {k} {med:.6g} {q1:.6g} {q3:.6g} {s:.4f} "
                  f"{bound[k]} {flag}".rstrip(), flush=True)
    return 1 if wide else 0


def validate(binary, update):
    """runAndValidate: deterministic counts at the default seed vs goldens."""
    path = HERE / "goldens.json"
    goldens = json.loads(path.read_text()) if path.exists() else {}
    bad = 0
    for name in WORKLOADS:
        r = run_once(binary, name, DEFAULT_SEED, 8, True)
        if not r["correct"]:
            print(f"{name}: INCORRECT run (failed {r['failed']})")
            bad += 1
            continue
        got = {k: r["metrics"][k]["value"] for k in GOLDEN_METRICS}
        if update:
            goldens[name] = got
            continue
        for k in GOLDEN_METRICS:
            want = goldens.get(name, {}).get(k)
            ok = want == got[k]
            bad += 0 if ok else 1
            print(f"{name} {k} expected {want!r} got {got[k]!r} "
                  f"{'ok' if ok else 'MISMATCH'}")
    if update:
        path.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS")
    ap.add_argument("--validate", action="store_true")
    ap.add_argument("--update-goldens", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.steadiness:
        gated = [w["name"] for w in bounds()[1]["workloads"]]
        return steadiness(binary, args.workload or gated, args.steadiness)
    if args.validate:
        return validate(binary, args.update_goldens)
    if not args.workload or len(args.workload) != 1:
        ap.error("exactly one --workload")
    t0 = time.monotonic()
    result = run_once(binary, args.workload[0], args.seed, args.seconds,
                      args.trace == 1)
    log(f"perfbench: run took {time.monotonic() - t0:.1f} s")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
