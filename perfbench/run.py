#!/usr/bin/env python3
"""perfbench: the repository benchmark, end to end through the `repwf` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds `repwf` and the
in-process probe (`perfbench/probe`) with cargo into `$CARGO_TARGET_DIR`
(default `.bench_build`), then:

* `--trace 0` runs the workload's command list ("a pass") as child
  processes at `--threads 2` until `--seconds` have passed, checks every
  output, and reports the end-to-end metrics as medians over passes;
* `--trace 1` runs the same passes at `--threads 1` through the CLI, then
  hands them to the probe, which replays them in process with a span
  around every layer call, and reports the per-layer metrics.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. See perfbench/README.md for the workloads, the
metrics and the layer-to-metric map.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Explicit caps, passed to the CLI and the probe alike (the CLI defaults).
TABLE2_CAP = 400_000
CAMPAIGN_CAP = 2_000_000
EXACT_CAP = 4_000_000

# Relative tolerance of the P̂ >= M_ct check.
MCT_TOL = 1e-9
# Paper optima of Example A (period of the best mapping).
EXAMPLE_A_OPTIMA = {"strict": 68.0, "overlap": 67.0}
TABLE2_PAPER_TOTAL = 5152

MIN_PASSES = 3


# --------------------------------------------------------------------------
# Arithmetic (unit-tested in test_run.py)
# --------------------------------------------------------------------------

def median(values):
    return statistics.median(values)


def tail_percentile(values, candidates=(99.9, 99.0, 90.0, 50.0)):
    """The highest candidate percentile with at least ten samples beyond
    it, as (percentile, value) by nearest rank; None below 20 samples."""
    xs = sorted(values)
    n = len(xs)
    for p in candidates:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def tally(results):
    """(attempted, failed) operations over command results. A command that
    exits non-zero or fails a check fails every operation it was given,
    however far it got."""
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["ops"] for r in results if r["errors"])
    return attempted, failed


def splitmix(x):
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def seed_base(seed, p):
    """Seed base of pass `p` of a run seeded `seed` (below 10^9, so every
    derived CLI `--seed` stays far from u64 overflow)."""
    return splitmix(seed * 1_000_003 + p) % 1_000_000_000


# --------------------------------------------------------------------------
# Commands and their output checks
# --------------------------------------------------------------------------

class Command:
    """One CLI launch of a pass. `ops` operations; `timed` commands count
    toward the throughput, the others only toward set-up."""

    progress = False  # writes per-experiment progress records on stderr
    timed = True
    kind = "experiments"

    def argv(self, repwf, threads):
        raise NotImplementedError

    def check(self, doc, ctx):
        raise NotImplementedError


class Table2(Command):
    progress = True

    def __init__(self, seed):
        self.seed = seed
        self.ops = TABLE2_PAPER_TOTAL

    def argv(self, repwf, threads):
        return [repwf, "table2", "--full", "--threads", str(threads), "--seed", str(self.seed),
                "--cap", str(TABLE2_CAP), "--json"]

    def plan(self):
        return f"table2 {self.seed} {TABLE2_CAP}"

    def check(self, doc, ctx):
        errors = []
        if doc.get("total_experiments") != TABLE2_PAPER_TOTAL:
            errors.append(f"table2 ran {doc.get('total_experiments')} experiments, "
                          f"paper has {TABLE2_PAPER_TOTAL}")
        for i, row in enumerate(doc.get("rows", [])):
            if row["total"] != row["paper_total"]:
                errors.append(f"table2 row {i}: {row['total']} experiments, paper {row['paper_total']}")
            if row["simulated"] != 0:
                errors.append(f"table2 row {i}: {row['simulated']} simulator fallbacks")
            if not (math.isfinite(row["max_gap_pct"]) and row["max_gap_pct"] >= 0
                    and 0 <= row["no_critical"] <= row["total"]):
                errors.append(f"table2 row {i}: gap {row['max_gap_pct']}%, "
                              f"{row['no_critical']} without critical resource")
        return errors


class Campaign(Command):
    progress = True

    def __init__(self, stages, procs, comp, comm, count, seed):
        self.stages, self.procs, self.comp, self.comm = stages, procs, comp, comm
        self.ops, self.seed = count, seed

    def argv(self, repwf, threads):
        return [repwf, "campaign", "--model", "strict", "--stages", str(self.stages),
                "--procs", str(self.procs), "--comp", self.comp, "--comm", self.comm,
                "--count", str(self.ops), "--seed", str(self.seed), "--threads", str(threads),
                "--cap", str(CAMPAIGN_CAP), "--json"]

    def plan(self):
        return (f"campaign {self.stages} {self.procs} {self.comp} {self.comm} "
                f"{self.ops} {self.seed} {CAMPAIGN_CAP}")

    def check(self, doc, ctx):
        errors = []
        outcomes = doc.get("outcomes", [])
        if len(outcomes) != self.ops or doc.get("simulated") != 0:
            errors.append(f"campaign: {len(outcomes)} outcomes of {self.ops}, "
                          f"{doc.get('simulated')} simulated")
        for k, o in enumerate(outcomes):
            mct, period = o["mct"], o["period"]
            if o["seed"] != self.seed + k or o["resolution"] != "exact":
                errors.append(f"campaign seed {o['seed']}: resolution {o['resolution']}")
            elif not (math.isfinite(period) and math.isfinite(mct) and mct > 0
                      and period >= mct * (1 - MCT_TOL)):
                errors.append(f"campaign seed {o['seed']}: period {period} vs M_ct {mct}")
            if len(errors) >= 5:
                break
        return errors


class Period(Command):
    timed = False
    kind = "period"

    def __init__(self, example, model):
        self.example, self.model, self.ops = example, model, 1

    def argv(self, repwf, threads):
        return [repwf, "period", "--example", self.example, "--model", self.model, "--json"]

    def check(self, doc, ctx):
        period, mct = doc.get("period"), doc.get("mct")
        if not (isinstance(period, (int, float)) and math.isfinite(period)
                and period >= mct * (1 - MCT_TOL)):
            return [f"period {self.example}/{self.model}: {period} vs M_ct {mct}"]
        return []


class MapExact(Command):
    kind = "exact"

    def __init__(self, example, model):
        self.example, self.model, self.ops = example, model, 1

    def argv(self, repwf, threads):
        return [repwf, "map", "--exact", "--example", self.example, "--model", self.model,
                "--threads", str(threads), "--cap", str(EXACT_CAP), "--json"]

    def plan(self):
        return f"exact {self.example} {self.model} {EXACT_CAP}"

    def check(self, doc, ctx):
        exact = doc.get("exact", {})
        period = exact.get("period")
        if not exact.get("feasible") or not math.isfinite(period):
            return [f"map --exact {self.example}/{self.model}: no optimum"]
        ctx[(self.example, self.model)] = period
        want = EXAMPLE_A_OPTIMA.get(self.model) if self.example == "a" else None
        if want is not None and abs(period - want) > 1e-9 * want:
            return [f"map --exact a/{self.model}: optimum {period}, paper {want}"]
        return []


class MapHeuristic(Command):
    kind = "heuristic"

    def __init__(self, example, model, steps, seed):
        self.example, self.model, self.steps, self.seed, self.ops = example, model, steps, seed, 1

    def argv(self, repwf, threads):
        return [repwf, "map", "--example", self.example, "--model", self.model,
                "--steps", str(self.steps), "--seed", str(self.seed), "--json"]

    def plan(self):
        return f"heuristic {self.example} {self.model} {self.steps} {self.seed}"

    def check(self, doc, ctx):
        period = doc.get("heuristic", {}).get("period")
        optimum = ctx.get((self.example, self.model))
        if optimum is None or not (isinstance(period, (int, float)) and math.isfinite(period)):
            return [f"map heuristic {self.example}/{self.model}: no period or no optimum"]
        if period < optimum * (1 - MCT_TOL):
            return [f"map heuristic {self.example}/{self.model}: {period} beats the optimum {optimum}"]
        ctx.setdefault("gaps", []).append(100.0 * (period / optimum - 1.0))
        return []


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

SHARED_COUNT = 40_000
DISTINCT_FAMILIES = [  # (stages, procs, comp = comm range, count)
    (10, 20, "5..15", 1000), (10, 20, "10..1000", 1000),
    (10, 30, "5..15", 1000), (10, 30, "10..1000", 1000),
    (20, 30, "5..15", 500), (20, 30, "10..1000", 500),
]
MAP_INSTANCES = [("a", "strict"), ("a", "overlap"), ("b", "strict"), ("b", "overlap")]
HEURISTIC_STEPS = 10_000
HEURISTIC_SEEDS = 4


def table2_pass(base):
    return [Table2(base)]


def shared_pass(base):
    return [Campaign(2, 7, "1", "5..10", SHARED_COUNT, base),
            Campaign(3, 7, "1", "10..50", SHARED_COUNT, base + SHARED_COUNT)]


def distinct_pass(base):
    cmds, seed = [], base
    for stages, procs, rng, count in DISTINCT_FAMILIES:
        cmds.append(Campaign(stages, procs, rng, rng, count, seed))
        seed += count
    return cmds


def mapping_pass(base):
    cmds = [Period(e, m) for e, m in MAP_INSTANCES]
    cmds += [MapExact(e, m) for e, m in MAP_INSTANCES]
    cmds += [MapHeuristic(e, m, HEURISTIC_STEPS, base + h)
             for e, m in MAP_INSTANCES for h in range(HEURISTIC_SEEDS)]
    return cmds


WORKLOADS = {
    "table2-full": table2_pass,
    "campaign-shared-shapes": shared_pass,
    "campaign-distinct-shapes": distinct_pass,
    "mapping-search": mapping_pass,
}

# The report's end-to-end metrics: name -> (unit, better, workloads it applies to).
ALL = tuple(WORKLOADS)
E2E = {
    "experiments_per_s": ("1/s", "higher", ALL),
    "exact_s": ("s", "lower", ("mapping-search",)),
    "heuristic_s": ("s", "lower", ("mapping-search",)),
    "heuristic_gap_pct": ("%", "lower", ("mapping-search",)),
    "setup_s": ("s", "lower", ALL),
    "peak_rss_mb": ("MB", "lower", ALL),
    "error_rate": ("ratio", "lower", ALL),
}

# Per-layer metric -> the end-to-end metrics and workloads it should move.
LAYER_MAP = [
    (("gen.sampler.calls", "gen.sampler.self_s", "core.mct.calls", "core.mct.self_s",
      "gen.routing.self_s", "gen.routing.shape_groups", "gen.routing.batch_hit_rate"),
     ("experiments_per_s",), ("campaign-shared-shapes",),
     "solves take microseconds there, so sampling, M_ct and routing are a large share; "
     "barely on campaign-distinct-shapes"),
    (("gen.routing.self_s",), ("setup_s",), ("campaign-shared-shapes", "campaign-distinct-shapes"),
     "routing runs before the first experiment completes"),
    (("core.overlap_poly.calls", "core.overlap_poly.self_s"), ("experiments_per_s",),
     ("table2-full",), "only table2 has overlap rows"),
    (("core.tpn_build.calls", "core.tpn_build.self_s", "core.tpn_build.transitions",
      "tpn.ratio_graph.self_s", "tpn.ratio_graph.edges", "maxplus.csr_tarjan.calls",
      "maxplus.csr_tarjan.self_s"),
     ("experiments_per_s",), ("campaign-distinct-shapes", "table2-full"),
     "near zero on campaign-shared-shapes (one build per chunk) and mapping-search (patched)"),
    (("maxplus.howard.calls", "maxplus.howard.self_s", "maxplus.howard.iters"),
     ("experiments_per_s",), ("table2-full", "campaign-distinct-shapes"), "cold solves"),
    (("maxplus.howard.calls", "maxplus.howard.self_s", "maxplus.howard.iters"),
     ("heuristic_s", "exact_s"), ("mapping-search",), "warm patched solves"),
    (("core.batch.passes", "core.batch.lanes_per_pass", "core.batch.stage_s", "core.batch.self_s"),
     ("experiments_per_s",), ("campaign-shared-shapes", "campaign-distinct-shapes"),
     "~16 lanes per pass on shared shapes, ~1 on distinct; predicted no change on table2-full"),
    (("core.engine.patched_share", "core.engine.self_s", "core.mct.stage_recomputes"),
     ("heuristic_s",), ("mapping-search",), "the MappingOracle patch path"),
    (("map.exact.nodes", "map.exact.evaluated", "map.exact.prune_ratio", "map.exact.self_s",
      "map.anneal.evals", "map.anneal.us_per_eval"),
     ("exact_s", "heuristic_s"), ("mapping-search",), "prune_ratio is the useful-work ratio"),
    (("par.busy_share",), ("experiments_per_s",), ("campaign-distinct-shapes",),
     "stragglers: p99 per experiment is ~15x p50"),
    (("par.busy_share",), ("exact_s",), ("mapping-search",), "B&B task imbalance"),
    (("cli.self_s",), ("experiments_per_s",), ("campaign-shared-shapes",),
     "progress writes, JSON render and process start"),
]


# --------------------------------------------------------------------------
# Running commands
# --------------------------------------------------------------------------

class SetupError(Exception):
    pass


def build(log_path):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise SetupError(f"no Cargo.toml at {ROOT}: not a repwf checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    with open(log_path, "wb") as log:
        for args in (["-p", "repwf-cli"],
                     ["--manifest-path", os.path.join("perfbench", "probe", "Cargo.toml")]):
            r = subprocess.run(["cargo", "build", "--release", "--offline", *args],
                               cwd=ROOT, env=env, stdout=log, stderr=log)
            if r.returncode != 0:
                raise SetupError(f"cargo build {' '.join(args)} failed; see {log_path}")
    release = os.path.join(target, "release")
    return os.path.join(release, "repwf"), os.path.join(release, "perfbench-probe")


def launch(argv, progress):
    """Runs one child with stdout and stderr on pipes and waits for it.
    stdout is read blocking: the CLI writes it in a few large chunks.
    stderr carries one record per experiment, so its reader polls instead
    of waking for every record and competing with the child for the CPUs:
    every 0.1 ms until the first record of a progress-writing command,
    every 2 ms after. (Files would add disk writeback to the timing.)
    Returns the output, wall seconds, seconds to the first stderr record
    (None if none), max RSS in MB, the exit code and the last stderr
    record."""
    chunks, first, tail = [], [], bytearray()
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def read_stdout():
        while chunk := os.read(child.stdout.fileno(), 1 << 20):
            chunks.append(chunk)

    def read_stderr():
        fd = child.stderr.fileno()
        os.set_blocking(fd, False)
        while True:
            try:
                chunk = os.read(fd, 1 << 20)
            except BlockingIOError:
                time.sleep(1e-4 if progress and not first else 2e-3)
                continue
            if not chunk:
                return
            if not first:
                first.append(time.perf_counter() - t0)
            tail.extend(chunk)
            del tail[:-2048]

    readers = [threading.Thread(target=read_stdout), threading.Thread(target=read_stderr)]
    for t in readers:
        t.start()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    child.stdout.close()
    child.stderr.close()
    return {
        "stdout": b"".join(chunks),
        "wall": wall,
        "first": first[0] if first else None,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": child.returncode,
        "stderr": tail.decode(errors="replace").strip().split("\r")[-1][-300:],
    }


def run_pass(cmds, repwf, threads):
    """Launches every command of a pass in order and checks its output
    (outside the timing). Returns per-command results, output digests and
    the heuristic gaps the checks saw."""
    ctx, results, digests = {}, [], []
    for cmd in cmds:
        r = launch(cmd.argv(repwf, threads), cmd.progress)
        raw = r.pop("stdout")
        r["ops"], r["kind"], r["timed"], r["progress"] = cmd.ops, cmd.kind, cmd.timed, cmd.progress
        r["errors"] = []
        digests.append(hashlib.sha256(raw).hexdigest())
        if r["code"] != 0:
            r["errors"].append(f"{' '.join(cmd.argv('repwf', threads)[:3])}... exited "
                               f"{r['code']}: {r['stderr']}")
        else:
            try:
                r["errors"] += cmd.check(json.loads(raw), ctx)
            except (ValueError, KeyError, TypeError) as e:
                r["errors"].append(f"unreadable output of {cmd.argv('repwf', threads)[1]}: {e}")
        if cmd.progress and r["first"] is None and not r["errors"]:
            r["errors"].append("no progress record on stderr")
        results.append(r)
    return results, digests, ctx.get("gaps", [])


def pass_figures(results):
    """Throughput, set-up and per-kind walls of one pass. Set-up is launch
    to first progress record of each progress-writing command, plus the
    whole wall of the untimed set-up commands."""
    timed = [r for r in results if r["timed"]]
    setup = sum(r["first"] for r in results if r["progress"] and r["first"] is not None)
    setup += sum(r["wall"] for r in results if not r["timed"])
    by_kind = {}
    for r in timed:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0.0) + r["wall"]
    return {"ops_per_s": sum(r["ops"] for r in timed) / sum(r["wall"] for r in timed),
            "setup": setup, "by_kind": by_kind}


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def describe(values, unit):
    """`median (n=…, pXX …)` per the percentile rule."""
    tail = tail_percentile(values)
    extra = f", p{tail[0]:g} {tail[1]:.6g}" if tail and tail[0] > 50 else ""
    return f"{median(values):.6g} {unit} (median of n={len(values)}{extra})"


def calibrate(probe):
    r = subprocess.run([probe, "calibrate"], capture_output=True, text=True, check=True)
    return json.loads(r.stdout)


def end_to_end(name, seconds, repwf, probe, out_dir, seed, manifest):
    make = WORKLOADS[name]
    calib = calibrate(probe)
    all_results = []
    # Determinism: pass 0 at one thread must match pass 0 at two threads
    # byte for byte; it also warms the page cache before timing.
    cmds0 = make(seed_base(seed, 0))
    ref_results, ref_digests, _ = run_pass(cmds0, repwf, 1)
    all_results += ref_results
    figures, gaps, rss = [], [], []
    start = time.perf_counter()
    p = 0
    while p < MIN_PASSES or time.perf_counter() - start < seconds:
        cmds = make(seed_base(seed, p))
        results, digests, pass_gaps = run_pass(cmds, repwf, 2)
        if p == 0 and digests != ref_digests:
            for r, a, b in zip(results, digests, ref_digests):
                if a != b:
                    r["errors"].append("--json output differs between --threads 1 and 2")
        all_results += results
        figures.append(pass_figures(results))
        gaps += pass_gaps
        rss += [r["rss_mb"] for r in results]
        p += 1
    attempted, failed = tally(all_results)
    errors = [e for r in all_results for e in r["errors"]]

    rate = [f["ops_per_s"] for f in figures]
    setup = [f["setup"] for f in figures]
    values = {
        "experiments_per_s": median(rate),
        "setup_s": median(setup),
        "peak_rss_mb": max(rss),
        "error_rate": failed / attempted,
    }
    lines = [f"perfbench {name}: seed {seed}, {len(figures)} passes in "
             f"{time.perf_counter() - start:.1f} s, --threads 2 (end to end through repwf)",
             f"  calibration: effective parallelism {calib['parallelism']:.3f} of 2 threads "
             f"(context, not gated)",
             f"  experiments_per_s = {describe(rate, '1/s')}"
             + ("  [map commands per second]" if name == "mapping-search" else ""),
             f"  setup_s = {describe(setup, 's')}",
             f"  peak_rss_mb = {values['peak_rss_mb']:.6g} MB (max over {len(rss)} launches)",
             f"  error_rate = {values['error_rate']:.6g} ({failed} of {attempted} operations failed)"]
    if name == "mapping-search":
        exact = [f["by_kind"]["exact"] for f in figures]
        heur = [f["by_kind"]["heuristic"] for f in figures]
        values["exact_s"], values["heuristic_s"] = median(exact), median(heur)
        values["heuristic_gap_pct"] = statistics.fmean(gaps) if gaps else float("nan")
        lines += [f"  exact_s = {describe(exact, 's')}",
                  f"  heuristic_s = {describe(heur, 's')}",
                  f"  heuristic_gap_pct = {values['heuristic_gap_pct']:.6g} % "
                  f"(mean over {len(gaps)} heuristic runs)"]
    for e in errors[:20]:
        lines.append(f"  FAILED: {e}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in manifest["end_to_end"]}
    return lines, attempted, failed, metrics


def per_layer(name, seconds, repwf, probe, out_dir, seed, manifest):
    make = WORKLOADS[name]
    calib = calibrate(probe)
    # CLI passes at one thread: the base of cli.self_s, and checked outputs.
    all_results, cli_walls, gaps, plans = [], [], [], []
    start = time.perf_counter()
    p = 0
    while p < 1 or (time.perf_counter() - start < seconds / 3 and p < 8):
        cmds = make(seed_base(seed, p))
        results, _, pass_gaps = run_pass(cmds, repwf, 1)
        all_results += results
        gaps += pass_gaps
        cli_walls.append(sum(r["wall"] for r in results if r["timed"]))
        plans.append("pass\n" + "".join(c.plan() + "\n" for c in cmds if c.timed))
        p += 1
    plan_path = os.path.join(out_dir, "plan.txt")
    with open(plan_path, "w") as f:
        f.write("".join(plans))
    r = subprocess.run([probe, "trace", plan_path], capture_output=True, text=True)
    probe_errors = [] if r.returncode == 0 else [f"probe failed: {r.stderr.strip()[-300:]}"]
    trace = json.loads(r.stdout) if r.returncode == 0 else None
    if trace and trace["replay_mismatched_passes"]:
        probe_errors.append(f"replay disagrees with the library on "
                            f"{trace['replay_mismatched_passes']} passes")
    probe_ops = sum(c.ops for c in make(0) if c.timed) * len(plans)
    all_results.append({"ops": probe_ops, "errors": probe_errors})
    attempted, failed = tally(all_results)
    errors = [e for r in all_results for e in r["errors"]]

    lines = [f"perfbench {name} --trace 1: seed {seed}, {len(plans)} passes, one thread, "
             f"in-process replay with a span around each layer call",
             f"  calibration: effective parallelism {calib['parallelism']:.3f} of 2 threads "
             f"(spin 1 thread {calib['spin_1_thread_s']:.4f} s, 2 threads "
             f"{calib['spin_2_threads_s']:.4f} s; context, not gated)"]
    values = {}
    if trace:
        values = layer_values(trace, cli_walls, gaps, calib)
        lines += layer_table(trace)
        traced = sum(p["traced_s"] for p in trace["passes"])
        untraced = sum(p["untraced_s"] for p in trace["passes"])
        lines.append(f"  tracing overhead over {len(plans)} passes: traced {traced:.4f} s - untraced "
                     f"{untraced:.4f} s = {traced - untraced:.4f} s, "
                     f"{100 * (traced - untraced) / untraced:.1f}% of the untraced base "
                     f"(the library calls the CLI makes, one thread)")
        lines.append(f"  TPN build + ratio graph + CSR/Tarjan + Howard: "
                     f"{100 * values['trace.solver_share']:.1f}% of traced self time; "
                     f"{100 * values['trace.solver_share_cli']:.1f}% of the CLI wall at one thread")
    if name == "mapping-search":
        lines.append("  not separable here: the search loop calls the engine and the ratio graph "
                     "itself, so core.engine.self_s and tpn.ratio_graph.* read 0 and that time "
                     "is in map.exact / map.anneal self time")
    for e in errors[:20]:
        lines.append(f"  FAILED: {e}")
    metrics = {}
    for m in manifest["per_layer"]:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    return lines, attempted, failed, metrics


def layer_values(trace, cli_walls, gaps, calib):
    passes = trace["passes"]

    def per_pass(f):
        return median([f(p) for p in passes])

    def self_s(layer):
        return per_pass(lambda p: p["layers"][layer]["self_s"])

    def calls(layer):
        return per_pass(lambda p: p["layers"][layer]["calls"])

    def count(key, default=0.0):
        return per_pass(lambda p: p["counts"].get(key, default))

    mapping = any("obs.howard_solves" in p["counts"] for p in passes)
    v = {}
    v["gen.sampler.calls"], v["gen.sampler.self_s"] = calls("gen.sampler"), self_s("gen.sampler")
    v["core.mct.calls"] = count("obs.mct_evals") if mapping else calls("core.mct")
    v["core.mct.self_s"] = self_s("core.mct")
    v["core.mct.stage_recomputes"] = count("obs.mct_stage_recomputes")
    v["gen.routing.self_s"] = self_s("gen.routing")
    v["gen.routing.shape_groups"] = count("gen.routing.shape_groups")
    v["gen.routing.batch_hit_rate"] = per_pass(
        lambda p: 1 - p["counts"]["gen.routing.shape_groups"] / p["counts"]["gen.routing.experiments"]
        if p["counts"].get("gen.routing.experiments") else 0.0)
    v["core.overlap_poly.calls"] = calls("core.overlap_poly")
    v["core.overlap_poly.self_s"] = self_s("core.overlap_poly")
    v["core.tpn_build.calls"] = (count("obs.tpn_builds") + count("obs.patched_solves")
                                 if mapping else calls("core.tpn_build"))
    v["core.tpn_build.self_s"] = self_s("core.tpn_build")
    v["core.tpn_build.transitions"] = count("core.tpn_build.transitions")
    v["tpn.ratio_graph.self_s"] = self_s("tpn.ratio_graph")
    v["tpn.ratio_graph.edges"] = count("tpn.ratio_graph.edges")
    v["maxplus.csr_tarjan.calls"] = count("obs.csr_builds" if mapping else "maxplus.csr_tarjan.calls")
    v["maxplus.csr_tarjan.self_s"] = self_s("maxplus.csr_tarjan")
    v["maxplus.howard.calls"] = count("obs.howard_solves" if mapping else "maxplus.howard.calls")
    v["maxplus.howard.self_s"] = self_s("maxplus.howard")
    v["maxplus.howard.iters"] = count("maxplus.howard.iters")
    v["core.batch.passes"] = calls("core.batch")
    v["core.batch.lanes_per_pass"] = per_pass(
        lambda p: p["counts"].get("core.batch.lanes", 0.0) / p["layers"]["core.batch"]["calls"]
        if p["layers"]["core.batch"]["calls"] else 0.0)
    v["core.batch.stage_s"] = self_s("core.batch.stage")
    v["core.batch.self_s"] = self_s("core.batch")
    patched = "obs.patched_solves" if mapping else "core.engine.patched"
    rebuilt = "obs.tpn_builds" if mapping else "core.engine.rebuilt"
    v["core.engine.patched_share"] = per_pass(
        lambda p: p["counts"].get(patched, 0.0)
        / max(1.0, p["counts"].get(patched, 0.0) + p["counts"].get(rebuilt, 0.0)))
    v["core.engine.self_s"] = self_s("core.engine")
    v["map.exact.nodes"] = count("map.exact.nodes")
    v["map.exact.evaluated"] = count("map.exact.evaluated")
    v["map.exact.prune_ratio"] = per_pass(
        lambda p: 1 - p["counts"]["map.exact.evaluated"] / p["counts"]["map.exact.space"]
        if p["counts"].get("map.exact.space") else 0.0)
    v["map.exact.self_s"] = self_s("map.exact")
    v["map.anneal.evals"] = count("map.anneal.evals")
    v["map.anneal.us_per_eval"] = per_pass(
        lambda p: 1e6 * p["counts"]["map.anneal.wall_s"] / p["counts"]["map.anneal.evals"]
        if p["counts"].get("map.anneal.evals") else 0.0)
    v["map.anneal.gap_pct"] = statistics.fmean(gaps) if gaps else 0.0
    v["par.busy_share"] = trace["busy_s"] / trace["busy_capacity_s"] if trace["busy_capacity_s"] else 0.0
    v["cli.self_s"] = median([c - p["untraced_s"] for c, p in zip(cli_walls, passes)])
    samples = [ns / 1000.0 for ns in trace["experiment_ns"]]
    v["gen.experiment.samples"] = len(samples)
    v["gen.experiment.p50_us"] = median(samples) if samples else 0.0
    tail = tail_percentile(samples, candidates=(99.0, 90.0, 50.0))
    v["gen.experiment.p99_us"], v["gen.experiment.tail_pct"] = (tail[1], tail[0]) if tail else (0.0, 0.0)
    v["sim.fallbacks"] = count("sim.fallbacks")
    v["trace.traced_s"] = per_pass(lambda p: p["traced_s"])
    v["trace.untraced_s"] = per_pass(lambda p: p["untraced_s"])
    v["trace.overhead_s"] = per_pass(lambda p: p["traced_s"] - p["untraced_s"])
    v["trace.unattributed_s"] = per_pass(lambda p: p["unattributed_s"])
    solver = ("core.tpn_build", "tpn.ratio_graph", "maxplus.csr_tarjan", "maxplus.howard")
    v["trace.solver_share"] = per_pass(
        lambda p: sum(p["layers"][l]["self_s"] for l in solver) / p["traced_s"])
    v["trace.solver_share_cli"] = median(
        [sum(p["layers"][l]["self_s"] for l in solver) / c for c, p in zip(cli_walls, passes)])
    v["calib.parallelism"] = calib["parallelism"]
    return v


def layer_table(trace):
    """Self time per layer summed over the traced passes; each parent's
    own row is its unattributed remainder, so the rows sum to the wall."""
    passes = trace["passes"]
    total = sum(p["traced_s"] for p in passes)
    rows = {}
    for p in passes:
        for layer, d in p["layers"].items():
            rows[layer] = rows.get(layer, 0.0) + d["self_s"]
    rows["(pass, outside any span)"] = sum(p["unattributed_s"] for p in passes)
    lines = [f"  self time by layer over {len(passes)} traced passes "
             f"(a parent's row is its unattributed remainder):"]
    for layer, s in sorted(rows.items(), key=lambda kv: -kv[1]):
        if s > 0:
            lines.append(f"    {layer:<28} {s:10.4f} s  {100 * s / total:5.1f}%")
    lines.append(f"    {'total = traced wall':<28} {sum(rows.values()):10.4f} s  (wall {total:.4f} s)")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        repwf, probe = build(os.path.join(out_dir, "build.log"))
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    run = per_layer if args.trace else end_to_end
    lines, attempted, failed, metrics = run(args.workload, args.seconds, repwf, probe, out_dir,
                                            args.seed, manifest)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
