#!/usr/bin/env python3
"""Two-clock benchmark of the Captive DBT: host wall-clock and simulated cycles.

Run from the root of a source tree:

    python3 perfbench/run.py --workload spec-int --seed 1 --seconds 10 --trace 0

It builds the worker (perfbench/main.exe) from source with dune into
.bench_build/, produces and caches each workload's expected-output table
with the Reference interpreter, then measures the workload and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from a separate traced run.
See perfbench/README.md for what each metric means and why each workload
was chosen.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
DUNE_BUILD = os.path.join(BUILD, "dune")
WORKER = os.path.join(DUNE_BUILD, "default", "perfbench", "main.exe")
CACHE = os.path.join(BUILD, "perfbench")

WORKLOADS = ["spec-int", "spec-fp", "cold-code", "system"]
SEEDED = {"cold-code"}

# Untraced measurement is split over this many worker processes, so the
# process-once model build is sampled more than once per run.
MEASURE_WORKERS = 3

# Everything after the build must end within this many seconds, well
# inside the 180 s a run may take once the worker is built.
RUN_BUDGET_S = 170
DEADLINE = None  # set in main() once the build is done

END_TO_END = {
    "guest_mips": "MIPS",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "speedup_vs_qemu": "x",
    "ok_frac": "ratio",
}

# name -> unit; values are computed in per_layer_metrics below.
PER_LAYER = {
    "ssa.model_build_s": "s",
    "hvm.engine_create_s": "s",
    "workloads.image_s": "s",
    "hostir.exec_s": "s",
    "gc.minor_words_per_host_instr": "words/instr",
    "hostir.host_instrs_executed": "count",
    "hostir.rf_loads": "count",
    "hostir.rf_stores": "count",
    "core.exec_cycles": "cycles",
    "core.promotions": "count",
    "core.regions_formed": "count",
    "core.region_block_execs": "count",
    "core.chain_hit_ratio": "ratio",
    "adl.decode_s": "s",
    "hostir.template_s": "s",
    "hostir.templates_mined": "count",
    "hostir.pipeline_s": "s",
    "hostir.regalloc_s": "s",
    "hostir.encode_s": "s",
    "core.jit_cycles": "cycles",
    "hostir.translate_cpgi": "cycles/instr",
    "hostir.template_hit_ratio": "ratio",
    "hostir.host_instrs_per_guest": "instr/instr",
    "hostir.spills": "count",
    "hvm.tlb_hit_ratio": "ratio",
    "hvm.tlb_misses": "count",
    "hvm.tlb_flushes": "count",
    "hvm.faults": "count",
    "hvm.mem_ops": "count",
    "core.smc_invalidations": "count",
    "qemu.cycles": "cycles",
    "qemu.run_s": "s",
    "gc.major_collections": "count",
    "gc.top_heap_mb": "MB",
    "trace.guest_mips_traced": "MIPS",
    "trace.guest_mips_untraced": "MIPS",
    "trace.overhead_ratio": "ratio",
}


class Failure(Exception):
    """The benchmark cannot run here (missing tree, build error)."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def check_tree():
    for rel in ["dune-project", "lib", os.path.join("perfbench", "dune"),
                os.path.join("perfbench", "main.ml")]:
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise Failure("%s not found: run from the root of the source tree" % rel)


def build():
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", DUNE_BUILD,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure("build failed: %s" % e)
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stdout[-4000:])


def run_worker(args):
    """Run the worker to completion; return its JSON lines."""
    cmd = [WORKER] + args
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, DEADLINE - time.time()))
    except subprocess.TimeoutExpired:
        raise Failure("worker timed out: %s" % " ".join(args))
    if r.returncode != 0:
        raise Failure("worker failed (%d): %s\n%s" % (r.returncode, " ".join(args), r.stderr[-4000:]))
    return [json.loads(line) for line in r.stdout.splitlines() if line.startswith("{")]


def write_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def worker_digest():
    """Digest of the built worker, which links the engines, the workloads
    and the Reference interpreter."""
    h = hashlib.sha256()
    with open(WORKER, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def workload_dir(workload, seed, digest):
    """Cache directory of one input built by one worker.

    Keyed by the worker's digest, so the expected outputs, QEMU-style
    cycles and saved simulated counts are reused, and compared across
    invocations, only for the build that produced them."""
    name = "%s-seed%d" % (workload, seed) if workload in SEEDED else workload
    d = os.path.join(CACHE, "%s-%s" % (name, digest))
    os.makedirs(d, exist_ok=True)
    return d


def prepare(workload, seed, d):
    """Expected outputs (Reference) and QEMU-style cycles, once per input.

    Both are cached in the workload's directory, unless a QEMU-style run
    failed; nothing here is timed."""
    qemu_file = os.path.join(d, "qemu.json")
    if os.path.exists(qemu_file) and os.path.exists(os.path.join(d, "expected.tsv")):
        return read_json(qemu_file)
    t0 = time.time()
    lines = run_worker(["prepare", "--workload", workload, "--seed", str(seed), "--dir", d])
    qemu = {l["program"]: {"cycles": l["cycles"], "ok": l["ok"], "why": l["why"]}
            for l in lines if l["kind"] == "qemu"}
    if all(q["ok"] for q in qemu.values()):
        write_json(qemu_file, qemu)
    log("prepared %s in %.1f s (Reference oracle + QEMU-style cycles)" % (workload, time.time() - t0))
    return qemu


class Checker:
    """Counts failures and simulated-count drift over one invocation."""

    def __init__(self, sim_file):
        self.sim_file = sim_file
        self.first = {}  # program -> sim counts seen first in this invocation
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, rec):
        if rec["kind"] == "pass":
            self.attempted += rec["attempted"]
            self.failed += rec["failed"]
        elif rec["kind"] == "prog":
            self.program(rec)

    def program(self, rec):
        if not rec["ok"]:
            self.problems.append("%s: %s" % (rec["program"], rec["why"]))
        sim = rec.get("sim")
        if sim is None:
            return
        seen = self.first.setdefault(rec["program"], sim)
        if seen != sim:
            self.drift("%s: simulated counts differ between repeats in one invocation%s"
                       % (rec["program"], " (traced vs untraced)" if rec["traced"] else ""), seen, sim)

    def drift(self, what, a, b):
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        self.problems.append("determinism: %s: %s" % (what, ", ".join(
            "%s %s vs %s" % (k, a.get(k), b.get(k)) for k in diff)))

    def across_invocations(self):
        """Compare with the counts the first invocation on this input saved.

        Only an invocation without failures saves its counts."""
        if os.path.exists(self.sim_file):
            saved = read_json(self.sim_file)
            for prog, sim in self.first.items():
                if prog in saved and saved[prog] != sim:
                    self.drift("%s: simulated counts differ from an earlier invocation" % prog,
                               saved[prog], sim)
            saved.update({p: s for p, s in self.first.items() if p not in saved})
        else:
            saved = self.first
        if self.correct:
            write_json(self.sim_file, saved)

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def passes(records, traced):
    """Group per-program records into passes: (worker, pass) -> [records]."""
    out = {}
    for w, rec in records:
        if rec["kind"] == "prog" and rec["traced"] == traced:
            out.setdefault((w, rec["pass"]), []).append(rec)
    return out


def mips(recs):
    run = sum(r["run_s"] for r in recs)
    return sum(r["retired"] for r in recs) / run / 1e6


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def measure(workload, seed, seconds, d, qemu, checker):
    records, models, rss = [], {}, []
    for w in range(MEASURE_WORKERS):
        lines = run_worker(["measure", "--workload", workload, "--seed", str(seed),
                            "--seconds", repr(seconds / MEASURE_WORKERS), "--dir", d])
        models[w] = sum(l["build_s"] for l in lines if l["kind"] == "model")
        rss += [l["vmhwm_kb"] / 1024.0 for l in lines if l["kind"] == "end"]
        records += [(w, l) for l in lines]
    for _, rec in records:
        checker.record(rec)
    groups = passes(records, traced=False)
    complete = [recs for recs in groups.values() if all(r["ok"] for r in recs)]
    if not complete:
        return {}
    # Throughput over the whole measured window (all complete passes).
    # Host speed here drifts in phases of tens of seconds; a ratio of
    # totals averages over them, where a median would jump between them.
    retired = sum(r["retired"] for recs in complete for r in recs)
    run_s = sum(r["run_s"] for recs in complete for r in recs)
    # Set-up: the median of each part over its samples.
    progs = [r["program"] for r in complete[0]]
    setup_s = statistics.median(models.values()) + sum(
        statistics.median(r["image_s"] + r["create_s"] + r["install_s"]
                          for recs in groups.values() for r in recs if r["program"] == p)
        for p in progs)
    one = complete[0]
    speedup = geomean([qemu[r["program"]]["cycles"] / r["sim"]["cycles"] for r in one])
    log("%d complete passes in %d processes; guest_mips per pass: %s" % (
        len(complete), MEASURE_WORKERS, " ".join("%.3f" % mips(recs) for recs in complete)))
    return {
        "guest_mips": retired / run_s / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rss),
        "sim_cycles": sum(r["sim"]["cycles"] for r in one),
        "speedup_vs_qemu": speedup,
        "ok_frac": 1.0 - checker.failed / checker.attempted,
    }


def per_layer_metrics(recs, pass_line, model_s, qemu_lines):
    def total(key):
        return sum(r[key] for r in recs)

    def sim(key):
        return sum(r["sim"][key] for r in recs)

    def ratio(a, b):
        return a / b if b else 0.0

    translated = sim("guest_instrs_translated")
    return {
        "ssa.model_build_s": model_s,
        "hvm.engine_create_s": total("create_s"),
        "workloads.image_s": total("image_s") + total("install_s"),
        "hostir.exec_s": total("run_s") - total("jit_s"),
        "gc.minor_words_per_host_instr": ratio(total("minor_words"), sim("host_instrs")),
        "hostir.host_instrs_executed": sim("host_instrs"),
        "hostir.rf_loads": sim("rf_loads"),
        "hostir.rf_stores": sim("rf_stores"),
        "core.exec_cycles": sim("exec_cycles"),
        "core.promotions": sim("promotions"),
        "core.regions_formed": sim("regions_formed"),
        "core.region_block_execs": sim("region_block_execs"),
        "core.chain_hit_ratio": ratio(sim("chain_hits"), sim("blocks_executed")),
        "adl.decode_s": total("decode_s"),
        "hostir.template_s": total("template_s"),
        "hostir.templates_mined": sim("templates_mined"),
        "hostir.pipeline_s": total("tier0_s") + total("region_s"),
        "hostir.regalloc_s": total("regalloc_s"),
        "hostir.encode_s": total("encode_s"),
        "core.jit_cycles": sim("jit_cycles"),
        "hostir.translate_cpgi": ratio(sim("translate_cycles"), translated),
        "hostir.template_hit_ratio": ratio(sim("template_instrs"), translated),
        "hostir.host_instrs_per_guest": ratio(sim("host_instrs_emitted"), translated),
        "hostir.spills": sim("spills"),
        "hvm.tlb_hit_ratio": ratio(sim("tlb_hits"), sim("tlb_hits") + sim("tlb_misses")),
        "hvm.tlb_misses": sim("tlb_misses"),
        "hvm.tlb_flushes": sim("tlb_flushes"),
        "hvm.faults": sim("faults"),
        "hvm.mem_ops": sim("mem_ops"),
        "core.smc_invalidations": sim("smc_invalidations"),
        "qemu.cycles": sum(q["cycles"] for q in qemu_lines),
        "qemu.run_s": sum(q["run_s"] for q in qemu_lines),
        "gc.major_collections": pass_line["major_collections"],
        "gc.top_heap_mb": pass_line["top_heap_mb"],
    }


def span_table(trace_file):
    """Total and self time per span name from the Chrome trace."""
    table = {}
    for ev in read_json(trace_file)["traceEvents"]:
        row = table.setdefault(ev["name"], {"layer": ev["cat"], "count": 0, "total_s": 0.0,
                                            "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += ev["dur"] / 1e6
        row["self_s"] += ev["args"]["self_us"] / 1e6
    return table


def trace(workload, seed, seconds, d, qemu, checker):
    lines = run_worker(["trace", "--workload", workload, "--seed", str(seed),
                        "--seconds", repr(seconds), "--dir", d])
    records = [(0, l) for l in lines]
    for _, rec in records:
        checker.record(rec)
    qemu_lines = [l for l in lines if l["kind"] == "qemu"]
    for q in qemu_lines:
        if not q["ok"]:
            checker.problems.append("QEMU-style engine: %s: %s" % (q["program"], q["why"]))
        if q["cycles"] != qemu[q["program"]]["cycles"]:
            checker.problems.append("determinism: %s: QEMU-style cycles %d vs %d cached" % (
                q["program"], q["cycles"], qemu[q["program"]]["cycles"]))
    model_s = sum(l["build_s"] for l in lines if l["kind"] == "model")
    pass_lines = {l["pass"]: l for l in lines if l["kind"] == "pass"}
    traced = passes(records, traced=True)
    untraced = passes(records, traced=False)
    if not traced or not untraced or checker.failed:
        return {}
    samples = [per_layer_metrics(recs, pass_lines[p], model_s, qemu_lines)
               for (_, p), recs in sorted(traced.items())]
    metrics = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    mips_t = mips([r for recs in traced.values() for r in recs])
    mips_u = mips([r for recs in untraced.values() for r in recs])
    metrics["trace.guest_mips_traced"] = mips_t
    metrics["trace.guest_mips_untraced"] = mips_u
    metrics["trace.overhead_ratio"] = mips_u / mips_t
    trace_file = os.path.join(d, "trace-%d.json" % seed)
    write_json(os.path.join(d, "layers-%d.json" % seed), {
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()},
        "spans": span_table(trace_file),
    })
    log("trace: %d traced and %d untraced passes; spans in %s, per-layer table in %s" % (
        len(traced), len(untraced), trace_file, os.path.join(d, "layers-%d.json" % seed)))
    return metrics


def main():
    global DEADLINE
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    try:
        check_tree()
        build()
        DEADLINE = time.time() + RUN_BUDGET_S
        d = workload_dir(a.workload, a.seed, worker_digest())
        qemu = prepare(a.workload, a.seed, d)
    except Failure as e:
        log(str(e))
        return 2
    checker = Checker(os.path.join(d, "sim.json"))
    for prog, q in sorted(qemu.items()):
        if not q["ok"]:
            checker.problems.append("QEMU-style engine: %s: %s" % (prog, q["why"]))
    try:
        if a.trace:
            values, units = trace(a.workload, a.seed, a.seconds, d, qemu, checker), PER_LAYER
        else:
            values, units = measure(a.workload, a.seed, a.seconds, d, qemu, checker), END_TO_END
    except Failure as e:
        log(str(e))
        return 2
    checker.across_invocations()
    for p in checker.problems:
        log("FAIL " + p)
    if values and set(values) != set(units):
        log("FAIL metric set mismatch: %s" % sorted(set(values) ^ set(units)))
        checker.problems.append("metric set mismatch")
    for k in sorted(values):
        log("%-32s %16.6f %s" % (k, values[k], units[k]))
    if checker.attempted == 0:
        checker.problems.append("no guest program ran")
        checker.attempted = checker.failed = 1
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }
    print(json.dumps(result))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
