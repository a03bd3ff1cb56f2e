"""The benchmark's workloads: inputs made from the seed, the eiotrace
commands timed at one and at N threads or workers, the checks on their
outputs, and the traced pass that splits the time by layer.

Each workload is a closed loop: one benchmark process runs one eiotrace
invocation at a time. "j1" runs the command with one thread or worker,
"jN" with one per CPU. See NOTES.md for why each workload exists.
"""

import hashlib
import json
import re
import shutil
import subprocess
from pathlib import Path

import stats

# Machine presets of the campaign grid (seed x calls_per_block x machine).
CAMPAIGN_MACHINES = ["franklin", "franklin-patched", "jaguar"]
CAMPAIGN_CALLS = [1, 2, 4, 8]
CAMPAIGN_SEEDS = 8
CAMPAIGN_TASKS = 128
CAMPAIGN_BLOCK_MIB = 64
CAMPAIGN_SEGMENTS = 2

TRACE_RANKS = 1024
TRACE_PHASES = 10
TRACE_CALLS = 388  # data calls per rank per phase: ~4M events in all
OST_COUNT = 48


class Proc:
    """One finished child process, timed from spawn to reap."""

    def __init__(self, argv, wall, rss_mb, returncode, stderr):
        self.argv = argv
        self.wall = wall
        self.rss_mb = rss_mb
        self.returncode = returncode
        self.stderr = stderr

    @property
    def outcome(self):
        return stats.outcome(self.returncode)

    def describe(self):
        tail = self.stderr.strip().splitlines()[-1:] if self.stderr else []
        return "%s exited %d (%s)%s" % (
            " ".join(str(a) for a in self.argv[:3]), self.returncode, self.outcome,
            ": " + tail[0] if tail else "")


def run_process(argv, stdout_path, cwd):
    """Run an untimed step (set-up, traced pass) with stdout to a file."""
    err_path = Path(str(stdout_path) + ".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        returncode = subprocess.run([str(a) for a in argv], stdout=out, stderr=err,
                                    cwd=str(cwd)).returncode
    return Proc(argv, None, None, returncode, err_path.read_text(errors="replace"))


def time_process(spawner, argv, stdout_path, cwd):
    """Run argv through `e2e_traced spawn`, which times it from spawn to
    reap and reports its peak RSS, including reaped children (campaign
    workers). Spawning from Python would put the interpreter's own
    resident set under every child's ru_maxrss (see traced.cpp)."""
    err_path = Path(str(stdout_path) + ".err")
    done = subprocess.run([str(spawner), "spawn", str(stdout_path), str(err_path)]
                          + [str(a) for a in argv], capture_output=True, text=True,
                          cwd=str(cwd))
    if done.returncode != 0:
        raise RuntimeError("spawn helper failed: " + done.stderr.strip())
    r = json.loads(done.stdout)
    return Proc(argv, r["wall_s"], r["maxrss_kb"] / 1024.0, r["returncode"],
                err_path.read_text(errors="replace"))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Env:
    """What a workload needs from the run: binaries, seed, parallelism
    and a scratch directory inside the checkout."""

    def __init__(self, eiotrace, traced, seed, nproc, work):
        self.eiotrace = eiotrace
        self.traced = traced
        self.seed = seed
        self.nproc = nproc
        self.work = work

    def time(self, argv, stdout_path):
        return time_process(self.traced, argv, stdout_path, self.work)

    def traced_json(self, argv, name):
        proc = run_process([self.traced] + argv, self.work / (name + ".json"), self.work)
        if proc.returncode != 0:
            raise RuntimeError(proc.describe())
        return json.loads((self.work / (name + ".json")).read_text())


def span_totals(doc):
    totals = {}
    for s in doc["spans"]:
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"])
    return totals


def span_durations(doc, name):
    return [s["end"] - s["start"] for s in doc["spans"] if s["name"] == name]


class Workload:
    name = ""
    why = ""
    setup_reps = 21  # cheap set-ups: many repetitions for a steady median
    items_unit = ""

    def setup(self, env, dest):
        """Write the inputs into dest; returns {name: path}. Timed."""
        raise NotImplementedError

    def expect(self, env, inputs):
        """What the inputs imply (counts the outputs must match)."""
        raise NotImplementedError

    def command(self, env, inputs, variant, out_dir):
        raise NotImplementedError

    def items(self, expected):
        """Work items one invocation processes (the rate numerator)."""
        raise NotImplementedError

    def check(self, env, inputs, expected, variant, out_dir, stdout):
        """Problems with one invocation's output, and the bytes that must
        repeat exactly across repetitions (after normalize)."""
        raise NotImplementedError

    def normalize(self, fingerprint):
        """The part of the output that must not depend on the variant."""
        return fingerprint

    def self_test(self, env, inputs):
        """Problems found by feeding the program a broken input."""
        return []

    def traced(self, env, inputs, expected, reference):
        """Run one traced pass. `reference` is the checked output of one
        untraced j1 invocation. Returns (layer metrics, problems, the
        pass's span document, seconds of the spans that replay the j1
        command)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# simulate


SIM_ROW = re.compile(r"^\s+(\d+)\s+([0-9.]+)\s+(\d+)\s+[0-9.]+\s+[0-9.]+\s*$")


class SimulateWorkload(Workload):
    items_unit = "traced calls"

    def __init__(self, name, why, workload, runs):
        self.name = name
        self.why = why
        self.workload = workload
        self.runs = runs

    def setup(self, env, dest):
        scenario = {
            "schema_version": 1,
            "name": self.name,
            "machine": "franklin",
            "seed": env.seed,
            "runs": self.runs,
            "workload": self.workload,
        }
        path = dest / "scenario.json"
        write_json(path, scenario)
        # Validate through the program, as a user would before a long run.
        proc = run_process([env.eiotrace, "campaign", path, "--plan-only",
                            "--out", dest / "plan"], dest / "plan.out", dest)
        if proc.returncode != 0:
            raise RuntimeError("scenario rejected: " + proc.describe())
        return {"scenario": path}

    def expect(self, env, inputs):
        doc = env.traced_json(["expect", "--scenario", inputs["scenario"]], "expect")
        exp = {"runs": doc["runs"], "calls_per_run": doc["calls_per_run"]}
        if self.workload["kind"] == "ior":
            w = self.workload
            closed_form = w["tasks"] * (2 + w["segments"] * (1 + w["calls_per_block"]))
            if closed_form != exp["calls_per_run"]:
                raise RuntimeError("IOR program has %d calls per run, shape implies %d"
                                   % (exp["calls_per_run"], closed_form))
        return exp

    def command(self, env, inputs, variant, out_dir):
        jobs = 1 if variant == "j1" else env.nproc
        return [env.eiotrace, "simulate", "--scenario", inputs["scenario"],
                "--jobs=%d" % jobs]

    def items(self, expected):
        return expected["runs"] * expected["calls_per_run"]

    def check(self, env, inputs, expected, variant, out_dir, stdout):
        text = stdout.decode(errors="replace")
        rows = [SIM_ROW.match(line) for line in text.splitlines()]
        events = [int(m.group(3)) for m in rows if m]
        problems = []
        if len(events) != expected["runs"]:
            problems.append("%d run rows, expected %d" % (len(events), expected["runs"]))
        bad = [e for e in events if e != expected["calls_per_run"]]
        if bad:
            problems.append("runs traced %s calls, inputs imply %d"
                            % (bad[:3], expected["calls_per_run"]))
        return stdout, problems

    def normalize(self, fingerprint):
        # The banner names the worker count; nothing else may differ.
        return re.sub(rb" with \d+ worker\(s\)", b"", fingerprint, count=1)

    def traced(self, env, inputs, expected, reference):
        doc = env.traced_json(["simulate", "--scenario", inputs["scenario"]], "traced")
        c = doc["counts"]
        t = span_totals(doc)
        problems = []
        if c["ipm.calls_recorded"] != self.items(expected):
            problems.append("traced run recorded %d calls, inputs imply %d"
                            % (c["ipm.calls_recorded"], self.items(expected)))
        calls = c["ipm.calls_recorded"]
        events = c["sim.engine_events"]
        execute = t.get("sim.execute", 0.0)
        m = {
            "workloads.build_s": t.get("workloads.build", 0.0),
            "workloads.instance_s": t.get("workloads.instance", 0.0),
            "workloads.instance_rss_mb": c["workloads.instance_rss_mb"],
            "workloads.program_ops": c["workloads.program_ops"],
            "sim.execute_s": execute,
            "sim.engine_events": events,
            "sim.engine_events_per_call": events / calls if calls else 0.0,
            "sim.us_per_engine_event": 1e6 * execute / events if events else 0.0,
            "sim.execute_rss_mb": c["sim.execute_rss_mb"],
            "lustre.writes": c["lustre.writes"],
            "lustre.reads": c["lustre.reads"],
            "lustre.small_ops": c["lustre.small_ops"],
            "lustre.absorbed_frac": c["lustre.absorbed_frac"],
            "ipm.calls_recorded": calls,
        }
        led = stats.ledger(doc["spans"])
        return m, problems, doc, led["wall_s"]


# ---------------------------------------------------------------------------
# analyze / monitor over the synthetic v3 trace


class AnalyzeWorkload(Workload):
    setup_reps = 3
    items_unit = "trace events"

    def __init__(self, name, why, monitored):
        self.name = name
        self.why = why
        self.monitored = monitored

    def slow_ost(self, env):
        return env.seed % OST_COUNT

    def setup(self, env, dest):
        path = dest / "trace.v3"
        doc_path = dest / "gen.json"
        proc = run_process([env.traced, "gen-trace", "--out", path, "--seed", env.seed,
                            "--ranks", TRACE_RANKS, "--phases", TRACE_PHASES,
                            "--calls", TRACE_CALLS, "--ost-count", OST_COUNT,
                            "--slow-ost", self.slow_ost(env)], doc_path, dest)
        if proc.returncode != 0:
            raise RuntimeError("trace generation failed: " + proc.describe())
        return {"trace": path}

    def expect(self, env, inputs):
        per_phase = TRACE_RANKS * TRACE_CALLS
        return {
            "events": TRACE_PHASES * TRACE_RANKS * (TRACE_CALLS + 2),
            "data_events": TRACE_PHASES * per_phase,
            "phases": TRACE_PHASES,
            "slow_ost": self.slow_ost(env),
        }

    def command(self, env, inputs, variant, out_dir):
        jobs = 1 if variant == "j1" else env.nproc
        argv = [env.eiotrace, "analyze", inputs["trace"], "--json", "--jobs=%d" % jobs]
        if self.monitored:
            argv.append("--monitor")
        return argv

    def items(self, expected):
        return expected["events"]

    def check(self, env, inputs, expected, variant, out_dir, stdout):
        try:
            doc = json.loads(stdout)
        except ValueError as e:
            return stdout, ["analyze output is not JSON: %s" % e]
        problems = []
        data = doc["write"]["count"] + doc["read"]["count"]
        if data != expected["data_events"]:
            problems.append("analyze counted %d transfers, inputs imply %d"
                            % (data, expected["data_events"]))
        if len(doc["phases"]) != expected["phases"]:
            problems.append("%d phases, inputs imply %d"
                            % (len(doc["phases"]), expected["phases"]))
        if self.monitored:
            named = [i for i in doc.get("monitor", {}).get("incidents", [])
                     if i["kind"] == "degraded-ost" and i["subject"] == expected["slow_ost"]]
            if not named:
                problems.append("monitor reported no incident on slow OST %d"
                                % expected["slow_ost"])
        return stdout, problems

    def self_test(self, env, inputs):
        """A truncated trace must be a clean failure: counted as failed,
        neither a crash nor a silent success."""
        cut = env.work / "truncated.v3"
        with open(inputs["trace"], "rb") as src, open(cut, "wb") as dst:
            dst.write(src.read(1 << 20))
        proc = env.time(self.command(env, {"trace": cut}, "j1", env.work),
                        env.work / "truncated.out")
        cut.unlink()
        if proc.outcome != "error":
            return ["truncated trace was a %s (exit %d), not a clean failure"
                    % (proc.outcome, proc.returncode)]
        return []

    def traced(self, env, inputs, expected, reference):
        argv = ["analyze", "--trace", inputs["trace"], "--work", env.work,
                "--jobs", env.nproc, "--slow-ost", expected["slow_ost"]]
        if self.monitored:
            argv.append("--monitor")
        doc = env.traced_json(argv, "traced")
        c = doc["counts"]
        t = span_totals(doc)
        problems = []
        for key in ("data_events_j1", "data_events_jN", "data_events_fold"):
            if c[key] != expected["data_events"]:
                problems.append("%s = %d, inputs imply %d"
                                % (key, c[key], expected["data_events"]))
        if c["rewrite_identical"] != 1:
            problems.append("v3 re-encode of the decoded trace differs from the input")
        if c["cli.rc"] != 0:
            problems.append("in-process analyze exited %d" % c["cli.rc"])
        elif (env.work / "cli.json").read_bytes() != reference:
            problems.append("in-process analyze output differs from the CLI's")
        if c["monitor.scan_incidents"] != c["monitor.incidents"]:
            problems.append("chunk-parallel monitor opened %d incidents, serial replay %d"
                            % (c["monitor.scan_incidents"], c["monitor.incidents"]))
        if c["monitor.slow_ost_incidents"] < 1:
            problems.append("monitor replay named no incident on slow OST %d"
                            % expected["slow_ost"])
        fold = span_durations(doc, "core.fold")
        merge = span_durations(doc, "core.merge")
        events = c["events"]
        write_s = t.get("ipm.write", 0.0)
        scan_j1 = t.get("core.scan_j1", 0.0)
        scan_jn = t.get("core.scan_jN", 0.0)
        command = t.get("cli.command", 0.0)
        m = {
            "ipm.write_s": write_s,
            "ipm.write_events_per_s": events / write_s if write_s else 0.0,
            "ipm.bytes_per_event": c["ipm.bytes_per_event"],
            "ipm.open_s": t.get("ipm.open", 0.0),
            "ipm.decode_s": t.get("ipm.decode", 0.0),
            "core.scan_j1_s": scan_j1,
            "core.scan_jN_s": scan_jn,
            "core.fold_us_per_chunk": 1e6 * stats.median(fold),
            "core.merge_us_per_chunk": 1e6 * stats.median(merge),
            "core.merge_frac": sum(merge) / (sum(fold) + sum(merge)),
            "core.scan_speedup_jN": scan_j1 / scan_jn if scan_jn else 0.0,
            "monitor.scan_j1_s": t.get("monitor.scan_j1", 0.0),
            "monitor.merge_us_per_chunk": 1e6 * stats.median(span_durations(doc, "monitor.merge")),
            "monitor.incidents": c["monitor.incidents"],
            "cli.command_s": command,
            "cli.self_s": command - t.get("ipm.open", 0.0) - scan_j1,
        }
        return m, problems, doc, command


# ---------------------------------------------------------------------------
# campaign


class CampaignWorkload(Workload):
    items_unit = "campaign runs"

    def __init__(self, name, why):
        self.name = name
        self.why = why

    def manifest(self, env):
        seeds = [env.seed * 1000 + i + 1 for i in range(CAMPAIGN_SEEDS)]
        return {
            "schema_version": 1,
            "name": "e2e-sweep",
            "base": {
                "schema_version": 1,
                "name": "e2e-sweep-base",
                "machine": "franklin",
                "runs": 1,
                "workload": {"kind": "ior", "tasks": CAMPAIGN_TASKS,
                             "block_mib": CAMPAIGN_BLOCK_MIB,
                             "segments": CAMPAIGN_SEGMENTS},
            },
            "sweep": {"mode": "grid", "axes": {
                "seed": seeds,
                "workload.calls_per_block": CAMPAIGN_CALLS,
                "machine": CAMPAIGN_MACHINES,
            }},
        }

    def setup(self, env, dest):
        path = dest / "sweep.json"
        write_json(path, self.manifest(env))
        proc = run_process([env.eiotrace, "campaign", path, "--plan-only",
                            "--out", dest / "plan"], dest / "plan.out", dest)
        if proc.returncode != 0:
            raise RuntimeError("manifest rejected: " + proc.describe())
        return {"manifest": path}

    def expect(self, env, inputs):
        runs = CAMPAIGN_SEEDS * len(CAMPAIGN_CALLS) * len(CAMPAIGN_MACHINES)
        per_seed_machine = sum(CAMPAIGN_TASKS * (2 + CAMPAIGN_SEGMENTS * (1 + k))
                               for k in CAMPAIGN_CALLS)
        events = per_seed_machine * CAMPAIGN_SEEDS * len(CAMPAIGN_MACHINES)
        return {"runs": runs, "events": events}

    def workers(self, env, variant):
        return 1 if variant == "j1" else env.nproc

    def command(self, env, inputs, variant, out_dir):
        return [env.eiotrace, "campaign", inputs["manifest"], "--out", out_dir,
                "--workers=%d" % self.workers(env, variant)]

    def items(self, expected):
        return expected["runs"]

    def check(self, env, inputs, expected, variant, out_dir, stdout):
        problems = []
        try:
            store = (out_dir / "campaign.jsonl").read_bytes()
            report = (out_dir / "report.json").read_bytes()
            doc = json.loads(report)
        except (OSError, ValueError) as e:
            return b"", ["campaign artifacts missing or unreadable: %s" % e]
        records = store.count(b"\n")
        if records != expected["runs"] or doc["records"] != expected["runs"]:
            problems.append("store holds %d records (report %d), the grid has %d"
                            % (records, doc["records"], expected["runs"]))
        if doc["events"] != expected["events"]:
            problems.append("report counts %d events, inputs imply %d"
                            % (doc["events"], expected["events"]))
        return store + b"\0" + report, problems

    def traced(self, env, inputs, expected, reference):
        out = fresh_dir(env.work / "traced-campaign")
        doc = env.traced_json(["campaign", "--manifest", inputs["manifest"], "--out", out,
                               "--eiotrace", env.eiotrace, "--workers", env.nproc], "traced")
        c = doc["counts"]
        t = span_totals(doc)
        problems = []
        if c["runs"] != expected["runs"]:
            problems.append("traced expansion gave %d runs, the grid has %d"
                            % (c["runs"], expected["runs"]))
        if c["campaign.failed_runs"] != 0:
            problems.append("%d traced campaign runs failed" % c["campaign.failed_runs"])
        if c["stores_identical"] != 1:
            problems.append("traced stores differ between 1 and N workers")
        if c["serial_matches_store"] != 1:
            problems.append("in-process records differ from the workers' store")
        traced_bytes = (out / "campaign.jsonl").read_bytes() + b"\0" + \
            (out / "report.json").read_bytes()
        if traced_bytes != reference:
            problems.append("traced campaign artifacts differ from the CLI's")
        dispatch_wn = t.get("campaign.dispatch_wN", 0.0)
        run_work = t.get("campaign.run_work", 0.0)
        merges = span_durations(doc, "campaign.merge")
        reports = span_durations(doc, "campaign.report")
        m = {
            "workloads.expand_s": t.get("workloads.expand", 0.0),
            "campaign.dispatch_w1_s": t.get("campaign.dispatch_w1", 0.0),
            "campaign.dispatch_wN_s": dispatch_wn,
            "campaign.run_work_s": run_work,
            "campaign.efficiency_wN": run_work / (env.nproc * dispatch_wn) if dispatch_wn else 0.0,
            "campaign.merge_s": merges[0],
            "campaign.report_s": reports[0],
            "campaign.spawns": c["campaign.spawns"],
            "campaign.respawns": c["campaign.respawns"],
            "campaign.crashes": c["campaign.crashes"],
            "campaign.timeouts": c["campaign.timeouts"],
        }
        # The replay of `campaign --workers=1`: expand, plan, dispatch,
        # merge and report of the one-worker pass.
        replay = (t.get("workloads.expand", 0.0) + t.get("workloads.plan_write", 0.0)
                  + t.get("campaign.dispatch_w1", 0.0) + merges[0] + reports[0])
        return m, problems, doc, replay


WORKLOADS = {w.name: w for w in [
    SimulateWorkload(
        "ior_contended",
        "N-to-1 IOR, 1024 tasks x 2 calls per block on 48 OSTs: fluid-network "
        "fair-share recomputation dominates, per-call layers are negligible",
        {"kind": "ior", "tasks": 1024, "block_mib": 512, "segments": 1,
         "calls_per_block": 2},
        runs=1),
    SimulateWorkload(
        "gcrm_10k",
        "GCRM collective preset, 10,240 ranks, 80 writers: program build, run "
        "construction, per-call and MDS layers dominate",
        {"kind": "gcrm", "preset": "collective"},
        runs=2),
    AnalyzeWorkload(
        "analyze_v3",
        "analyze --json at 1 and N threads on a seeded ~4M-event v3 trace: ipm "
        "decode and core fold/merge",
        monitored=False),
    AnalyzeWorkload(
        "monitor_v3",
        "analyze --json --monitor at 1 and N threads on the same trace with a "
        "planted slow OST: the health monitor's fold and serial replay",
        monitored=True),
    CampaignWorkload(
        "campaign_sweep",
        "96-run IOR grid at 1 and N worker processes: spawn, dispatch, store "
        "merge and report weigh against tens of ms of simulation per run"),
]}
