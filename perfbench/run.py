"""The prism benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a checkout; the benchmark imports prism from ``src/``.
Each workload is a closed loop with one client: one process runs the
operation list, one operation after the other, pass after pass, until
``--seconds`` have gone by (at least two passes).  The checks run after the
timed section.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  The line before it carries the detail (sample counts, the
tail percentile, input sizes, interpreter, commit).  Spans of a traced run
go to ``perfbench/out/``.  The exit code is 0 only when every operation
succeeded and every answer was right.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

WORKLOADS = ("catalog-cold", "synthetic-heights", "point-queries", "cli-cold")

# The tail percentile is fixed per workload, so that a run with more passes
# estimates the same percentile rather than a higher one.  Each was chosen at
# the commit that added the benchmark, in a run of 22 s: near the highest
# with at least ten samples beyond it, and in the middle of the repeats of
# one operation (catalog-cold: the sixth slowest of 17 rungs), so that the
# number of passes does not decide which operation it reads.  On
# point-queries it sits among the generalization closures of the 150-chain,
# below the handful of whole-space operations, whose order changes with the
# seed.
TAIL_QUANTILE = {
    "catalog-cold": 11.5 / 17,
    "synthetic-heights": 0.85,
    "point-queries": 0.995,
    "cli-cold": 0.85,
}
# Calibration.  On a shared host the same Python code runs up to 40% slower
# for minutes at a time as neighbours come and go.  A run therefore also
# times a fixed computation (``calibration``) every CAL_EVERY seconds between
# operations, and multiplies its times by CAL_REF / (mean calibration time):
# the end-to-end times read as seconds on a host where the calibration takes
# CAL_REF.  Over 30-second windows this cut the drift of a point-queries
# workload from 1.3-2.2 s to within 7% of its median.  The raw times and the
# factor are in the detail line; per-layer times are raw.
CAL_EVERY = 0.5
CAL_REF = 0.02
# per-operation time budget in seconds; an operation over it counts as failed
OP_BUDGET = {"catalog-cold": 60, "synthetic-heights": 30, "point-queries": 20, "cli-cold": 30}
# Operations shorter than this are run repeatedly, caches cleared before
# each run, and their sample is the mean: catalog-cold has only a few passes,
# and one run of a 4 ms rung swings by half on a shared host.
MIN_SAMPLE = {"catalog-cold": 0.05}
MIN_PASSES = 2
# set-up is timed in fresh processes, at least SETUP_MIN times and until they
# add up to SETUP_SPAN seconds (at most SETUP_MAX times): importing prism
# alone takes under 0.1 s and swings by a third between processes
SETUP_MIN, SETUP_SPAN, SETUP_MAX = 3, 1.0, 10
RUN_LIMIT = 150  # seconds for the whole run; what is not done by then fails
CHECK_RESERVE = 25  # seconds kept free for the checks after the timed section
# Hash randomization changes set iteration order and with it the number of
# rounds the height fixed point takes; one fixed hash seed keeps a run
# reproducible from --seed alone.
HASH_SEED = "0"


def units(section):
    """Metric name -> unit for one section of BENCHMARK.json (``end_to_end``
    or ``per_layer``), the one list of the metrics a run reports."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[section]}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# context recorded with every result


def git_commit():
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "prism").glob("*.py")))


def context():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "package.src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# the timed loop


def calibration():
    """Time one run of a fixed computation shaped like prism's hot loops:
    tuples in sets, membership tests, dict updates and small calls."""
    start = time.perf_counter()
    pairs = set()
    counts = {}
    for i in range(1500):
        for j in range(i % 17, 60, 3):
            pairs.add(("p%d" % (i % 97), j))
    for a, b in sorted(pairs):
        if (a, b + 3) in pairs:
            counts[a] = counts.get(a, 0) + max(b, len(a))
    return time.perf_counter() - start


def cal_factor(samples):
    return CAL_REF / statistics.fmean(samples)


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation overruns its budget."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def find_caches():
    """Every cache_clear-bearing attribute of the loaded prism modules (and
    of their classes), found by scanning so that a renamed or added cache
    is cleared too."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name != "prism" and not name.startswith("prism."):
            continue
        for val in list(vars(mod).values()):
            holders = [val] + (list(vars(val).values()) if isinstance(val, type) else [])
            for obj in holders:
                if callable(getattr(obj, "cache_clear", None)):
                    seen[id(obj)] = obj
    return list(seen.values())


def clear_caches():
    """Clear every cache; returns the names of any that stay non-empty."""
    caches = find_caches()
    for c in caches:
        c.cache_clear()
    return [getattr(c, "__qualname__", repr(c)) for c in caches
            if hasattr(c, "cache_info") and c.cache_info().currsize]


class Run:
    """Passes over one operation list, with their latencies and answers."""

    def __init__(self, workload, ops, summarize, deadline, state, tracer=None, reference=None):
        self.workload = workload
        # counts in a traced run must not depend on timing, so it runs each
        # operation once, in one pass
        self.min_sample = MIN_SAMPLE.get(workload, 0.0) if tracer is None else 0.0
        self.ops = ops
        self.summarize = summarize
        self.deadline = deadline
        self.state = state
        self.tracer = tracer
        # answers of the first pass, or of the run this one must agree with
        self.reference = reference
        self.records = list(reference) if reference else [None] * len(ops)
        self.failed = set()  # (pass, op index)
        self.errors = {}  # op index -> first failure message
        self.walls = []
        self.latencies = []
        self.by_op = [[] for _ in ops]
        self.attempted = 0
        self.cal = []
        self.last_cal = 0.0

    def calibrate(self):
        """Time the calibration if CAL_EVERY has passed since the last time;
        returns the time this took."""
        now = time.perf_counter()
        if now - self.last_cal < CAL_EVERY:
            return 0.0
        self.cal.append(calibration())
        self.last_cal = time.perf_counter()
        return self.last_cal - now

    def fail(self, p, i, message):
        self.failed.add((p, i))
        self.errors.setdefault(i, message)

    def one_pass(self):
        p = len(self.walls)
        state = dict(self.state)
        excluded = 0.0
        start = time.perf_counter()
        for i, (label, kind, arg, fn) in enumerate(self.ops):
            self.attempted += 1
            if time.perf_counter() > self.deadline:
                self.fail(p, i, "not run: the run's time limit was reached")
                continue
            excluded += self.calibrate()
            sample, result, skipped = self.execute(p, i, label, kind, fn, state)
            excluded += skipped
            if sample is None:
                continue
            self.latencies.append(sample)
            self.by_op[i].append(sample)
            x = time.perf_counter()
            record = self.summarize(kind, result)
            if p == 0 and self.reference is None:
                self.records[i] = record
            elif record != self.records[i]:
                self.fail(p, i, "%s %s: answer differs from the first pass" % (label, kind))
            excluded += time.perf_counter() - x
        self.walls.append(time.perf_counter() - start - excluded)

    def execute(self, p, i, label, kind, fn, state):
        """Run one operation, again and again until the runs add up to
        ``min_sample`` seconds; returns (mean time per run, result, time
        spent outside the operation), with a time of None if it failed."""
        budget = OP_BUDGET[self.workload]
        spent, runs, excluded = 0.0, 0, 0.0
        while True:
            if self.workload == "catalog-cold":
                x = time.perf_counter()
                warm = clear_caches()
                excluded += time.perf_counter() - x
                if warm:
                    self.fail(p, i, "caches not empty after clearing: %s" % ", ".join(warm))
                    return None, None, excluded
            if self.tracer is not None:
                self.tracer.op = i
            t = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                try:
                    result = fn(state)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                self.fail(p, i, "%s %s: over its %d s budget" % (label, kind, budget))
            except Exception as err:  # a failed operation is counted, the run goes on
                self.fail(p, i, "%s %s: %s: %s" % (label, kind, type(err).__name__, err))
            if (p, i) in self.failed:
                if self.tracer is not None:
                    self.tracer.reset_stack()
                return None, None, excluded
            spent += time.perf_counter() - t
            runs += 1
            if spent >= self.min_sample:
                return spent / runs, result, excluded

    def run(self, seconds, min_passes):
        begin = time.perf_counter()
        while True:
            self.one_pass()
            now = time.perf_counter()
            if now > self.deadline:
                return
            if len(self.walls) >= min_passes and now - begin >= seconds:
                return

    def pass_time(self):
        """One pass as the sum of each operation's median latency: a burst
        of load from outside that slows a few passes moves this less than it
        moves the median pass."""
        return sum(median(x) for x in self.by_op if x)

    def mark_wrong(self, i, message):
        """A check found op i's answer wrong: it is wrong in every pass."""
        for p in range(len(self.walls)):
            self.fail(p, i, message)


# ---------------------------------------------------------------------------
# workload adapters: summaries, checks, sizes


def summarize(workload):
    import checks

    def catalog(kind, result):
        space, heights, cb, disp, diagram, exports = result
        digest = hashlib.sha256("\0".join(exports).encode()).hexdigest()
        return space, heights, cb, disp, len(diagram.nodes), json.loads(exports[0])["n"], digest

    def synthetic(kind, result):
        if kind in ("heights", "cb"):
            return checks.flat_heights(result)
        if kind == "derivative":
            return frozenset(result.concrete) | frozenset(result.family_ids())
        if kind == "strata":
            level, report = result
            return level, frozenset(report.at_level.concrete)
        return result

    return {
        "catalog-cold": catalog,
        "synthetic-heights": synthetic,
        "point-queries": checks.summarize_point,
        "cli-cold": lambda kind, result: result,
    }[workload]


def run_checks(workload, inputs, run):
    """Check every answer of the first pass; wrong answers fail their op."""
    import checks
    import prism

    ops, records = run.ops, run.records
    by_space = {}
    if workload == "synthetic-heights":
        for label, space in inputs["spaces"]:
            by_space[label] = (space, (checks.reference_heights(space), checks.descending_reach(space)))
    if workload == "point-queries":
        for label, space, catalog in inputs["spaces"]:
            by_space[label] = (space, prism.inverse(space), catalog, checks.points_above(space))
    heights_of = {}
    for i, (label, kind, arg, _) in enumerate(ops):
        record = records[i]
        if not run.by_op[i]:
            continue
        if workload == "catalog-cold":
            errors = checks.check_catalog(arg[0], arg[1], record[:6])
        elif workload == "synthetic-heights":
            space, reference = by_space[label]
            if kind == "heights":
                heights_of[label] = record
            errors = checks.check_synthetic(space, kind, arg, record, reference, heights_of.get(label))
        elif workload == "point-queries":
            space, inverse, catalog, above = by_space[label]
            errors = checks.check_point(space, kind, arg, record, inverse, catalog, above)
        else:
            errors = checks.check_cli(arg, record[1], inputs["file_heights"])
        if errors:
            run.mark_wrong(i, "%s %s: %s" % (label, kind, "; ".join(errors)))


def input_sizes(workload, inputs, run):
    import workloads

    if workload == "catalog-cold":
        spaces = [r[0] for r in run.records if r is not None]
    elif workload == "synthetic-heights":
        spaces = [s for _, s in inputs["spaces"]]
    elif workload == "point-queries":
        spaces = [s for _, s, _ in inputs["spaces"]]
    else:
        spaces = [inputs["space"]]
    return workloads.input_sizes(spaces)


# ---------------------------------------------------------------------------
# subprocesses: CLI commands and start-up probes


class CliLauncher:
    """Runs one CLI command as a child process and reaps it with wait4, so
    its peak memory is known; SIGALRM during the wait kills the child."""

    def __init__(self, workdir, tracer=None):
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.peak_kb = 0
        self.env = child_env()

    def __call__(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "prism.cli", *argv]
        else:
            spans = self.workdir / "child-trace.json"
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans), *argv]
        with open(self.workdir / "stdout", "w+b") as out, open(self.workdir / "stderr", "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr = err.read()
        if proc.returncode != 0:
            raise RuntimeError("exit code %d: %s" % (proc.returncode, stderr.decode()[-300:]))
        if self.tracer is not None:
            data = json.loads(spans.read_text())
            self.tracer.merge(data["summary"], data["spans"])
        return proc.returncode, stdout


def startup_ms(code, repeats=5):
    """Median wall time of ``python3 -c pass`` (code is None) or the import
    time a child reports for ``code``, in ms."""
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code or "pass"], env=child_env(), cwd=ROOT,
                             capture_output=True, timeout=60, check=True)
        wall = time.perf_counter() - t
        samples.append(wall if code is None else float(out.stdout))
    return median(samples) * 1e3


IMPORT_PROBE = "import time; t = time.perf_counter(); import prism.cli; print(time.perf_counter() - t)"


# ---------------------------------------------------------------------------
# roles


def timed_setup(workload, seed, workdir):
    """``import prism``, input generation and pre-building, timed from a
    process that has not imported prism yet."""
    t = time.perf_counter()
    import workloads

    inputs = workloads.setup(workload, seed, workdir)
    return time.perf_counter() - t, inputs


def role_setup(args):
    seconds, _ = timed_setup(args.workload, args.seed, args.workdir)
    factor = cal_factor([calibration() for _ in range(5)])
    print(json.dumps({"setup_s": seconds, "factor": factor}))


def role_worker(args):
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    deadline = t0 + args.budget - CHECK_RESERVE
    setup_s, inputs = timed_setup(args.workload, args.seed, args.workdir)
    import workloads

    ops = workloads.operations(args.workload, inputs)
    cli = args.workload == "cli-cold"
    launcher = CliLauncher(args.workdir) if cli else None
    seconds = args.seconds / 2 if args.trace else args.seconds
    run = Run(args.workload, ops, summarize(args.workload), deadline, {"launch": launcher})
    run.run(seconds, 1 if args.trace else MIN_PASSES)
    peak_kb = launcher.peak_kb if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t = time.perf_counter()
    run_checks(args.workload, inputs, run)
    check_ms = (time.perf_counter() - t) * 1e3
    result = {
        "setup_s": setup_s,
        "walls": run.walls,
        "pass_time": run.pass_time(),
        "factor": cal_factor(run.cal),
        "calibrations": len(run.cal),
        "latencies": run.latencies,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "errors": sorted(run.errors.values())[:20],
        "peak_rss_mb": peak_kb / 1024,
        "sizes": input_sizes(args.workload, inputs, run),
        "check_ms": check_ms,
    }
    if args.trace:
        result["layers"] = traced_layers(args, run, check_ms, deadline)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def traced_layers(args, untraced, check_ms, deadline):
    """The separate traced run: set-up and exactly one pass again, with
    every layer call wrapped; its answers must equal the untraced run's.
    One pass, whatever the host's speed, so its counts and times are those
    of one set-up and one pass."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracing.install(tracer)
    clear_caches()
    tracer.op = "setup"
    inputs = workloads.setup(args.workload, args.seed, args.workdir)
    ops = workloads.operations(args.workload, inputs)
    launcher = CliLauncher(args.workdir, tracer) if args.workload == "cli-cold" else None
    traced = Run(args.workload, ops, summarize(args.workload), deadline, {"launch": launcher},
                 tracer, reference=untraced.records)
    traced.one_pass()
    out = tracing.layer_metrics(tracer)
    out["cli.interp_ms"] = startup_ms(None)
    out["cli.import_ms"] = startup_ms(IMPORT_PROBE)
    subs = {}
    for (label, kind, arg, _), lat in zip(untraced.ops, untraced.by_op):
        if kind == "cli":
            subs.setdefault(arg[0], []).extend(lat)
    for name in units("per_layer"):
        if name.startswith("cli.") and name not in out and name not in ("cli.self_ms", "cli.calls"):
            out[name] = median(subs.get(name[4:-3], [])) * 1e3
    out["oracles.check_ms"] = check_ms
    out["package.src_lines"] = src_lines()
    out["trace.overhead_ratio"] = (traced.pass_time() * cal_factor(traced.cal)) / (
        untraced.pass_time() * cal_factor(untraced.cal))
    out["trace.passes"] = len(traced.walls)
    out["trace.attempted"] = traced.attempted
    out["trace.failed"] = len(traced.failed)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.json.gz" % (args.workload, args.seed))
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    out["trace.errors"] = sorted(traced.errors.values())[:20]
    return out


# ---------------------------------------------------------------------------
# the run: set-up repeats, then the worker, then the result lines


def spawn(role, args, workdir, extra=(), timeout=RUN_LIMIT):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), *extra]
    return subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1))


def measure(args):
    """Set-up repeats, then the worker; returns the detail and the final line."""
    begin = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("run-%d" % os.getpid())
    workdir.mkdir()
    try:
        setups = []
        while not args.trace and len(setups) < SETUP_MAX and (
                len(setups) < SETUP_MIN or sum(s for s, _ in setups) < SETUP_SPAN):
            proc = spawn("setup", args, workdir, timeout=60)
            if proc.returncode != 0:
                raise RuntimeError("set-up failed:\n" + proc.stderr[-2000:])
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            setups.append((out["setup_s"], out["factor"]))
        result_path = workdir / "result.json"
        budget = RUN_LIMIT - (time.perf_counter() - begin)
        proc = spawn("worker", args, workdir, ["--result", str(result_path), "--budget", str(budget)],
                     timeout=budget + 10)
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError("worker failed:\n" + proc.stderr[-2000:])
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.insert(0, (res["setup_s"], res["factor"]))
    lat_ms = [x * 1e3 for x in res["latencies"]]
    q = TAIL_QUANTILE[args.workload]
    tail = quantile(lat_ms, q)
    detail = dict(context(), workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, sizes=res["sizes"], passes=len(res["walls"]), pass_walls=res["walls"],
                  attempted=res["attempted"], failed=res["failed"],
                  fail_ratio=res["failed"] / max(res["attempted"], 1), errors=res["errors"],
                  samples=len(lat_ms), tail_percentile=q * 100,
                  samples_beyond_tail=sum(1 for x in lat_ms if x > tail),
                  setup_samples=[s for s, _ in setups], check_ms=res["check_ms"])
    if args.trace:
        layers = res["layers"]
        detail["trace_errors"] = layers.pop("trace.errors")
        detail["trace_passes"] = layers.pop("trace.passes")
        attempted = res["attempted"] + layers.pop("trace.attempted")
        failed = res["failed"] + layers.pop("trace.failed")
        unit = units("per_layer")
        values = {name: layers[name] for name in unit}
    else:
        attempted, failed = res["attempted"], res["failed"]
        raw = {"wall_s": res["pass_time"], "op_p50_ms": median(lat_ms), "op_tail_ms": tail}
        detail.update(raw_times=dict(raw, setup_s=median(s for s, _ in setups)),
                      cal_factor=res["factor"], calibrations=res["calibrations"])
        values = {k: v * res["factor"] for k, v in raw.items()}
        values["setup_s"] = median(s * f for s, f in setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        unit = units("end_to_end")
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }
    return detail, final


def print_result(detail, final):
    m = final["metrics"]
    if "wall_s" in m:
        print("workload %s, seed %d: %d passes, %d operations sampled"
              % (detail["workload"], detail["seed"], detail["passes"], detail["samples"]))
        print("  wall_s      %10.4f s   (per-operation medians over %d passes, summed)"
              % (m["wall_s"]["value"], detail["passes"]))
        print("  op_p50_ms   %10.4f ms  (%d samples)" % (m["op_p50_ms"]["value"], detail["samples"]))
        print("  op_tail_ms  %10.4f ms  (p%g, %d samples, %d beyond)"
              % (m["op_tail_ms"]["value"], detail["tail_percentile"], detail["samples"],
                 detail["samples_beyond_tail"]))
        print("  setup_s     %10.4f s   (median of %d set-ups)" % (m["setup_s"]["value"], len(detail["setup_samples"])))
        print("  peak_rss_mb %10.4f MB" % m["peak_rss_mb"]["value"])
    else:
        for name, v in m.items():
            print("  %-34s %14.4f %s" % (name, v["value"], v["unit"]))
    print("  fail_ratio  %10.4f     (%d of %d operations failed)"
          % (detail["fail_ratio"], final["failed"], final["attempted"]))
    for e in detail["errors"] + detail.get("trace_errors", []):
        print("  FAILED: %s" % e)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(final))


def run_all(args):
    """Every workload at --trace 0, one after the other, as one table."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2 or not lines[-2].startswith("detail "):
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit("workload %s produced no result" % w)
        detail, final = json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])
        rows.append((w, detail, final))
        total["correct"] &= final["correct"]
        total["attempted"] += final["attempted"]
        total["failed"] += final["failed"]
        for k, v in final["metrics"].items():
            total["metrics"]["%s.%s" % (w, k)] = v
    print("%-18s %10s %16s %24s %9s %12s %10s" % ("workload", "wall_s", "op_p50_ms (n)",
                                                 "op_tail_ms (pct, n)", "setup_s", "peak_rss_mb",
                                                 "fail_ratio"))
    for w, d, f in rows:
        m = {k: v["value"] for k, v in f["metrics"].items()}
        print("%-18s %8.3f s %9.3f (%d) %11.3f (p%g, %d) %7.3f s %9.1f MB %10.4f"
              % (w, m["wall_s"], m["op_p50_ms"], d["samples"], m["op_tail_ms"], d["tail_percentile"],
                 d["samples"], m["setup_s"], m["peak_rss_mb"], d["fail_ratio"]))
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="prism benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "worker"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "prism" / "__init__.py").is_file():
        sys.stderr.write("no prism package under %s: run from the root of a prism checkout\n" % SRC)
        return 2
    if args.role == "setup":
        role_setup(args)
        return 0
    if args.role == "worker":
        role_worker(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        detail, final = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("benchmark run failed: %s\n" % err)
        return 1
    print_result(detail, final)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
