#!/usr/bin/env python3
"""End-to-end benchmark of the eiotrace CLI, with per-layer attribution.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the repository's
`eiotrace` and the traced runner (Release) under .bench_build, or under
$CARGO_TARGET_DIR when that is set. With --trace 0 the real CLI binary is
timed with tracing off and the end-to-end metrics are printed; with
--trace 1 a separate traced pass gives the per-layer metrics. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See e2ebench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

# Ledger layers: every module that owns spans in the traced runner. The
# lustre layer runs inside sim.execute and is reported by its counters.
LEDGER_LAYERS = [layer for layer in stats.LAYERS if layer != "lustre"]


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure and build eiotrace + e2e_traced; returns their paths."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail("no ensembleio sources next to e2ebench/ (run from a full checkout)")
    cmake_dir = bdir / "cmake"
    log = bdir / "build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "eiotrace",
                  "e2e_traced", "-j", jobs])
    with open(log, "wb") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=str(ROOT)).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-15:]
                fail("build failed (%s):\n%s" % (log, "\n".join(tail)))
    return cmake_dir / "eio" / "tools" / "eiotrace", cmake_dir / "e2e_traced"


def source_digest():
    """Digest of the sources the benchmark builds, for checkouts without
    git history."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "e2ebench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def provenance(args, eiotrace, nproc, workload):
    version = subprocess.run([str(eiotrace), "version"], capture_output=True,
                             text=True).stdout
    info = dict(line.strip().split(":", 1) for line in version.splitlines()[1:]
                if ":" in line)
    parallel = {"j1": 1, "jN": nproc}
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        ("workers" if isinstance(workload, workloads.CampaignWorkload) else "jobs"): parallel,
        "scaling_data": nproc > 1,
        "build_type": info.get("build_type", "").strip(),
        "compiler": info.get("compiler", "").strip(),
        "git_sha": info.get("git_sha", "").strip(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }


class Run:
    """Operation accounting for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                self.problem("%s: %s" % (label, p))
        return not problems

    def problem(self, text):
        self.problems.append(text)
        print("e2ebench: CHECK FAILED: " + text, file=sys.stderr)


def prepare(w, env, run, reps):
    """Set the inputs up `reps` times (timed); every repetition must write
    byte-identical inputs for the seed. Returns (inputs, setup seconds)."""
    times, inputs, digests = [], None, None
    for k in range(reps):
        dest = workloads.fresh_dir(env.work / ("setup%d" % k))
        start = time.perf_counter()
        made = w.setup(env, dest)
        times.append(time.perf_counter() - start)
        got = {name: workloads.sha256_file(path) for name, path in made.items()}
        if inputs is None:
            inputs, digests = made, got
        else:
            if got != digests:
                run.problem("set-up %d wrote different inputs for seed %d" % (k, env.seed))
            shutil.rmtree(dest)
    return inputs, times


def invoke(w, env, run, inputs, expected, variant, refs):
    """Run one timed CLI invocation and check it. Returns the Proc and
    whether it passed."""
    out_dir = workloads.fresh_dir(env.work / ("run-" + variant))
    proc = env.time(w.command(env, inputs, variant, out_dir), out_dir / "stdout")
    problems = []
    if proc.returncode != 0:
        problems.append(proc.describe())
    else:
        fp, found = w.check(env, inputs, expected, variant, out_dir,
                            (out_dir / "stdout").read_bytes())
        problems += found
        if variant not in refs:
            refs[variant] = fp
        elif fp != refs[variant]:
            problems.append("output differs from the first repetition")
        other = "jN" if variant == "j1" else "j1"
        if other in refs and w.normalize(refs[other]) != w.normalize(fp):
            problems.append("j1 and jN outputs differ")
    ok = run.op("%s %s" % (w.name, variant), problems)
    return proc, ok


def measure(w, env, seconds, run):
    """End-to-end metrics: set-up, then timed j1 invocations until
    `seconds`. One jN invocation per run checks that the output does not
    depend on the thread or worker count; its wall time is recorded in the
    results file but is not a metric (see NOTES.md, Steadiness)."""
    inputs, setup_times = prepare(w, env, run, w.setup_reps)
    expected = w.expect(env, inputs)
    for p in w.self_test(env, inputs):
        run.problem(p)
    items = w.items(expected)
    walls = {"j1": [], "jN": []}
    rss = []
    refs = {}

    def timed(variant):
        proc, ok = invoke(w, env, run, inputs, expected, variant, refs)
        rss.append(proc.rss_mb)
        if ok:
            walls[variant].append(proc.wall)

    start = time.perf_counter()
    timed("j1")
    timed("jN")
    while time.perf_counter() - start < seconds:
        timed("j1")
    rates = [items / wall for wall in walls["j1"]]
    metrics = {
        "setup_s": stats.median(setup_times),
        "j1_items_per_s": stats.median(rates) if rates else 0.0,
        "peak_rss_mb": max(rss),
        "success_frac": (run.attempted - run.failed) / run.attempted,
    }
    samples = {"setup_s": setup_times, "j1_wall_s": walls["j1"],
               "jN_wall_s": walls["jN"], "items_per_invocation": items}
    return metrics, samples


def traced(w, env, seconds, run, per_layer_names):
    """Per-layer metrics. For a third of `seconds`, untraced j1 and jN
    invocations alternate: they give the reference wall time of the j1
    command and the CLI's parallel speed-up. Traced passes fill the rest
    of the time; each metric is the median over the passes."""
    inputs, _ = prepare(w, env, run, 1)
    expected = w.expect(env, inputs)
    for p in w.self_test(env, inputs):
        run.problem(p)
    refs = {}
    walls = {"j1": [], "jN": []}
    start = time.perf_counter()
    while True:
        for variant in ("j1", "jN"):
            proc, ok = invoke(w, env, run, inputs, expected, variant, refs)
            if ok:
                walls[variant].append(proc.wall)
        if time.perf_counter() - start >= seconds / 3:
            break
    j1_wall = stats.median(walls["j1"]) if walls["j1"] else 0.0
    speedup = j1_wall / stats.median(walls["jN"]) if j1_wall and walls["jN"] else 0.0
    passes = []
    while True:
        try:
            layer, problems, doc, replay = w.traced(env, inputs, expected, refs.get("j1"))
        except RuntimeError as e:  # the traced runner failed: a failed operation
            run.op("%s traced pass" % w.name, [str(e)])
            break
        run.op("%s traced pass" % w.name, problems)
        led = stats.ledger(doc["spans"])
        layer["cli.jN_speedup"] = speedup
        layer["traced.wall_s"] = led["wall_s"]
        layer["traced.unattributed_frac"] = led["unattributed_frac"]
        layer["traced.overhead_frac"] = replay / j1_wall - 1.0 if j1_wall else 0.0
        for name in LEDGER_LAYERS:
            layer["traced.%s_self_s" % name] = led["layers"][name]
        passes.append(layer)
        if time.perf_counter() - start >= seconds:
            break
    # The ledger (traced.*) comes whole from the pass of median wall time,
    # so its layer self times and unattributed share add up to its wall
    # time exactly; every other metric is the median over passes.
    ranked = sorted(passes, key=lambda p: p["traced.wall_s"])
    ledger_pass = ranked[(len(ranked) - 1) // 2] if ranked else {}
    metrics = {}
    for name in per_layer_names:
        if name.startswith("traced."):
            metrics[name] = ledger_pass.get(name, 0.0)
            continue
        values = [p[name] for p in passes if name in p]
        # A layer this workload does not run reads 0 (see NOTES.md).
        metrics[name] = stats.median(values) if values else 0.0
    return metrics, {"passes": passes, "j1_wall_s": walls["j1"], "jN_wall_s": walls["jN"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("no BENCHMARK.json at the repository root")
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    bdir = build_dir()
    # Compilers and children keep their temporary files inside the checkout.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    eiotrace, traced_exe = build(bdir)
    w = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    work = workloads.fresh_dir(bdir / "work" / w.name)
    env = workloads.Env(eiotrace, traced_exe, args.seed, nproc, work)
    prov = provenance(args, eiotrace, nproc, w)
    run = Run()
    try:
        if args.trace:
            values, samples = traced(w, env, args.seconds, run, list(units))
        else:
            values, samples = measure(w, env, args.seconds, run)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        fail("%s could not run: %s" % (w.name, e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in units if name not in values]
    if missing:
        fail("metrics not produced: %s" % ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    results = bdir / "results"
    results.mkdir(exist_ok=True)
    record = {"provenance": prov, "metrics": metrics, "samples": samples,
              "attempted": run.attempted, "failed": run.failed, "problems": run.problems}
    workloads.write_json(results / ("%s-seed%d-trace%d.json" % (w.name, args.seed, args.trace)),
                         record)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    if nproc == 1:
        print("note: nproc is 1, so the jN invocations run one thread or worker "
              "and cli.jN_speedup is not scaling data")
    if not args.trace:
        print("items: %s, %d per invocation" % (w.items_unit, samples["items_per_invocation"]))
        for key in ("setup_s", "j1_wall_s", "jN_wall_s"):
            if samples[key]:
                s = stats.summarize(samples[key])
                tail = "  p%d %.4f" % s["tail"] if s["tail"] else ""
                print("%-16s n=%-3d median %.4f  p25 %.4f  p75 %.4f  min %.4f  max %.4f%s"
                      % (key, s["n"], s["median"], s["p25"], s["p75"], s["min"], s["max"], tail))
    for name, m in metrics.items():
        print("%-34s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
