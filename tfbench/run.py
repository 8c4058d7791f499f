#!/usr/bin/env python3
"""tfcool benchmark: one command, four seeded workloads, checked outputs.

    python3 tfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a tfcool checkout. Builds tfbench/ (the harness plus
the library sources under src/) optimized into $CARGO_TARGET_DIR/tfbench
(default .bench_build/tfbench), runs the workload, prints one report line
per named metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload untraced for half the time and traced for the other half and
reports the per-layer metrics, including obs.trace_overhead. A wrong answer
makes the run exit 1; a typed numerical failure is counted, itemized with
its input, and the run carries on. See tfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402

WORKLOADS = ("design_table1", "highres_spec", "transient_dtm", "service_open")
HARNESS_TIMEOUT_S = 170


def die(msg, code=2):
    print("tfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "tfbench")


def build():
    """Configure (once) and build the harness; a no-op build is ~1 s."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        die("no tfcool sources here (run from the checkout root)")
    bdir = build_dir()
    tmp = os.path.abspath(os.path.join(bdir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay in the checkout
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "tfbench", "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                              timeout=880).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (" + " ".join(cmd) + ")", 1)
    return os.path.join(bdir, "tfbench")


def run_harness(binary, workload, seed, seconds, trace):
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    out = os.path.join(runs, "%s-%d-%s.json" % (workload, seed, "traced" if trace else "plain"))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--out", out] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("harness timed out after %d s" % HARNESS_TIMEOUT_S, 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        die("harness exited %d" % proc.returncode, 1)
    with open(out) as f:
        doc = json.load(f)
    doc["out_path"] = out
    return doc


def source_digest():
    """sha256 over src/ and tfbench/, for like-for-like comparison when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "tfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


# --- end-to-end -------------------------------------------------------------

def nominal_records(doc):
    return [p["records"] for p in doc["extra"]["phases"] if p["phase"] == "nominal"][0]


def ladder(doc):
    return [(p["rps"], p["records"]) for p in doc["extra"]["phases"] if p["phase"] == "ladder"]


def request_samples(doc):
    """Latency samples [ms] of the workload's request; a failed one is
    infinite (see tfbench/README.md)."""
    s, w = doc["samples"], doc["workload"]
    if w == "design_table1":
        return M.with_failures([x * 1e3 for x in s["design_s"]], s.get("design_failed_s", []))
    if w == "highres_spec":
        return M.with_failures([x * 1e3 for x in s["solve_s"]], s.get("solve_failed_s", []))
    if w == "transient_dtm":
        return [x * 1e3 for x in s["pair_s"]]
    return M.open_loop(nominal_records(doc))["latency_ms"]


def rate(doc):
    s, w = doc["samples"], doc["workload"]
    if w == "design_table1":
        return len(s["design_s"]) / sum(s["design_s"])
    if w == "highres_spec":
        return len(s["analysis_s"]) / sum(s["analysis_s"])
    if w == "transient_dtm":
        return sum(s["steps"]) / sum(s["pair_s"])
    return 1.0 / M.median(s["closed_loop_s"])


def end_to_end(doc):
    lat = request_samples(doc)
    value, pct, beyond = M.tail(lat)
    m = {
        "setup_s": M.median(doc["samples"]["setup_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "p50_ms": M.median(lat),
        "tail_ms": value,
        "rate_per_s": rate(doc),
    }
    return m, (pct, beyond, len(lat))


def named_report(doc, e2e, tail_info):
    """Each workload's own end-to-end metrics, one line each with its unit."""
    s, w = doc["samples"], doc["workload"]
    pct, beyond, n = tail_info
    lines = [("setup_s", e2e["setup_s"], "s"), ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
             ("error_ratio", doc["failed"] / max(doc["attempted"], 1), "failed/attempted")]
    tail_note = "p%.1f, %d beyond, n=%d" % (pct, beyond, n)
    if w == "design_table1":
        lines += [("table1_s", M.median(s["table1_s"]), "s"),
                  ("design_p50_s", e2e["p50_ms"] / 1e3, "s"),
                  ("design_tail_s", e2e["tail_ms"] / 1e3, "s (%s)" % tail_note)]
    elif w == "highres_spec":
        lines += [("highres_solve_s", e2e["p50_ms"] / 1e3, "s"),
                  ("highres_solve_tail_s", e2e["tail_ms"] / 1e3, "s (%s)" % tail_note),
                  ("highres_lambda_s", M.median(s.get("lambda_s", [])), "s")]
    elif w == "transient_dtm":
        lines += [("sim_steps_per_s", e2e["rate_per_s"], "1/s"),
                  ("scenario_pair_p50_ms", e2e["p50_ms"], "ms")]
    else:
        limit = doc["values"]["latency_limit_ms"]
        late = M.open_loop(nominal_records(doc))["late_ms"]
        v = doc["values"]
        lines += [("svc_capacity_est_rps", v["capacity_rps"],
                   "1/s (server workers / mix-weighted median back-to-back round trip)"),
                  ("svc_p50_ms", e2e["p50_ms"], "ms @ %.4g/s (%g of capacity)"
                   % (v["nominal_rps"], v["nominal_rps"] / v["capacity_rps"])),
                  ("svc_tail_ms", e2e["tail_ms"], "ms (%s)" % tail_note),
                  ("svc_max_rps", M.max_rps(ladder(doc), limit),
                   "1/s (tail <= %g ms, no growing backlog)" % limit),
                  ("svc_closed_loop_rps", e2e["rate_per_s"], "1/s (1 / median closed-loop solve, 1 client)"),
                  ("svc.generator_late_ms", M.tail(late)[0], "ms (tail)")]
    return lines


# --- per-layer ---------------------------------------------------------------

def counter(doc, name):
    return doc["extra"].get("metrics", {}).get("counters", {}).get(name, 0)


def histogram(doc, name):
    return doc["extra"].get("metrics", {}).get("histograms", {}).get(name, {})


def kernels(doc):
    return {k["name"]: k for k in doc["extra"].get("prof", {}).get("kernels", [])}


def per_layer(traced, plain):
    s, v = traced["samples"], traced["values"]
    med = lambda k: M.median(s.get(k, []))  # noqa: E731  (NaN when unmeasured)
    m = {
        "thermal.assemble_s": med("thermal.assemble_s"),
        "thermal.nodes": med("thermal.nodes"),
        "linalg.analyze_s": med("linalg.analyze_s"),
        "linalg.factor_nnz": med("linalg.factor_nnz"),
        "linalg.refactor_s": med("linalg.refactor_s"),
        "linalg.refactor_bytes": med("linalg.refactor_bytes"),
        "linalg.solve_s": med("linalg.solve_s"),
        "linalg.lanczos_iters": med("linalg.lanczos_iters"),
        "tec.runaway_schur_s": med("tec.runaway_schur_s"),
        "tec.runaway_sparse_s": med("tec.runaway_sparse_s"),
        "tec.runaway_attempts": v.get("tec.runaway_attempts", 0),
        "tec.runaway_failed": v.get("tec.runaway_failed", 0),
        "engine.probe_s": med("engine.probe_s"),
        "engine.extend_s": med("engine.extend_s"),
        "engine.audit_samples": counter(traced, "engine.audit.samples"),
        "engine.audit_violations": counter(traced, "engine.audit.violations"),
        "obs.trace_overhead": M.median(request_samples(traced))
        / M.median(request_samples(plain)),
    }
    return m


def layer_report(doc):
    """Workload-specific layer numbers (printed, not part of the JSON)."""
    s, v, w, k = doc["samples"], doc["values"], doc["workload"], kernels(doc)
    per_call = lambda name: (k[name]["total_ms"] / 1e3 / k[name]["count"]  # noqa: E731
                             if name in k and k[name]["count"] else 0.0)
    spans = [dict(id=r[0], parent=r[1], request=r[2], name=r[3], start=r[4], end=r[5])
             for r in doc.get("spans", [])]
    by_name = M.self_by_name(spans)
    lines = []
    if "power.worst_case_profile" in by_name:
        t, n = by_name["power.worst_case_profile"]
        lines.append(("power.synth_s", t / n, "s per chip"))
    if w == "design_table1":
        designs = k.get("design", {}).get("count", 0)  # every θ-limit attempt
        lines += [
            ("core.greedy_s", per_call("greedy_deploy"), "s per call"),
            ("core.full_cover_s", per_call("full_cover"), "s per call"),
            ("core.optimize_evals", v.get("core.optimize_evals", 0), "count (Alpha)"),
            ("core.fallback_attempts", M.median(s["fallback_attempts"]), "per chip (median)"),
            ("core.fallback_attempts_max", max(s["fallback_attempts"]), "per chip (max)"),
            ("core.fallback_waste", v.get("core.fallback_waste", 0), "share of design time"),
            ("engine.probe_s(design)", per_call("engine_probe"), "s per probe"),
            ("engine.probes_per_design",
             k.get("engine_probe", {}).get("count", 0) / max(designs, 1), "count"),
            ("linalg.refactor_s(design)", per_call("sparse_refactor"), "s per refactor"),
            ("tec.runaway_schur_s(design)", per_call("schur_reduction")
             + per_call("pencil_bisection"), "s per call"),
            ("par.greedy_speedup",
             M.median(s["par.greedy_1thread_s"]) / M.median(s["par.greedy_pool_s"]),
             "x (Alpha greedy, 1 vs %d threads)" % doc["fingerprint"]["load_threads"]),
        ]
    elif w == "transient_dtm":
        lines += [
            ("io.spec_load_s", M.median(s["io.spec_load_s"]), "s"),
            ("sim.setup_s", M.median(s["sim.setup_s"]), "s"),
            ("sim.step_s", per_call("sim.step"), "s per step"),
            ("sim.level_switches", M.median(s["level_switches"]), "per scenario pair"),
        ]
    elif w == "service_open":
        qw = histogram(doc, 'svc.queue_wait_ms{method="solve"}')
        lat = histogram(doc, 'svc.latency_ms{method="solve"}')
        hits, misses = counter(doc, "svc.cache.hits"), counter(doc, "svc.cache.misses")
        rejected = sum(counter(doc, "svc.rejected." + r)
                       for r in ("overloaded", "deadline", "shutting_down"))
        late = M.open_loop(nominal_records(doc))["late_ms"]
        lines += [
            ("svc.queue_wait_ms", qw.get("p50", 0), "ms p50 (solve)"),
            ("svc.queue_wait_tail_ms", qw.get("p99", 0), "ms p99 (solve)"),
            ("svc.service_ms", lat.get("p50", 0) - qw.get("p50", 0), "ms p50 (solve)"),
            ("svc.cache_hit_ratio", hits / max(hits + misses, 1), "hits/lookups"),
            ("svc.cache_evictions", counter(doc, "svc.cache.evictions"), "count"),
            ("svc.rejected", rejected, "count"),
            ("svc.requests", counter(doc, "svc.requests.received"), "count"),
            ("svc.generator_late_ms", M.median(late), "ms p50"),
        ]
    top = sorted(by_name.items(), key=lambda kv: -kv[1][0])[:8]
    for name, (t, n) in top:
        lines.append(("self:" + name, t, "s over %d spans" % n))
    return lines, spans


# --- main --------------------------------------------------------------------

def emit(lines):
    for name, value, unit in lines:
        print("  %-34s %14.6g  %s" % (name, value, unit))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        die("BENCHMARK.json not found (run from the checkout root)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = build()

    if args.trace:
        plain = run_harness(binary, args.workload, args.seed, args.seconds / 2, False)
        traced = run_harness(binary, args.workload, args.seed, args.seconds / 2, True)
        docs, wanted = [plain, traced], spec["per_layer"]
        values = per_layer(traced, plain)
    else:
        doc = run_harness(binary, args.workload, args.seed, args.seconds, False)
        docs, wanted = [doc], spec["end_to_end"]
        values, tail_info = end_to_end(doc)

    fp = dict(docs[-1]["fingerprint"], git_sha=git_sha(), source_digest=source_digest())
    print("tfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds,
                                                      args.trace))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if args.trace:
        lines, spans = layer_report(traced)
        selfs = M.self_times(spans)
        bad = M.tree_violations(spans, selfs)
        if bad:
            traced["check_errors"].append("trace: self time exceeds wall in %d trees" % len(bad))
        print("per-layer (traced run; spans and counters in %s)" % traced["out_path"])
        emit([(m["name"], values[m["name"]], m["unit"]) for m in wanted] + lines)
    else:
        print("end-to-end")
        emit(named_report(doc, values, tail_info))
        emit([(m["name"], values[m["name"]], m["unit"]) for m in wanted])

    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    errors = [e for d in docs for e in d["check_errors"]]
    for d in docs:
        for f in d["failures"]:
            print("failure %s %s: %s" % (f["kind"], json.dumps(f["input"], sort_keys=True),
                                         f["error"]))
    for e in errors:
        print("WRONG " + e)
    # A wrong answer counts as a failed operation.
    failed += len(errors)
    attempted += len(errors)

    out = {}
    for m in wanted:
        x = values.get(m["name"])
        if x is None or math.isnan(x):
            die("metric %s was not measured" % m["name"], 1)
        if math.isinf(x):
            die("metric %s is infinite: failed operations reach it" % m["name"], 1)
        out[m["name"]] = {"value": x, "unit": m["unit"]}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
