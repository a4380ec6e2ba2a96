#!/usr/bin/env python3
"""Benchmark of the mutate -> optimize -> verify loop (see README.md).

    python3 perfbench/run.py --workload campaign-slice --seed 1 --seconds 25 --trace 0

Builds the repository's commands from source into .bench_build/, runs one
workload (workloads.json) through fuzz-campaign or alive-mutate, checks
each invocation's result, and prints one JSON line last: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --refresh-reference

re-records the campaign workloads' reference tables and censuses.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
TMP = os.path.join(BUILD, "tmp")

TOOLS = ["fuzz-campaign", "alive-mutate", "gen-corpus"]
DISCRETE_TOOLS = ["mutate-tool", "opt", "alive-tv"]
SETUP_PROBES = 5  # zero-mutant alive-mutate runs per files-decided run
SETUP_REPEAT = 100  # file-set repetitions per probe
DISCRETE_MUTANTS = 20  # per file in the traced files-decided run


class BenchError(Exception):
    """A failure that leaves no result to publish."""


def env():
    """The environment for go and the commands: every cache, temporary and
    config directory inside .bench_build, no toolchain download, no cgo."""
    e = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": "gopath/pkg/mod",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/.config",
        "XDG_CACHE_HOME": "home/.cache",
    }
    for key, sub in dirs.items():
        e[key] = os.path.join(BUILD, sub)
        os.makedirs(e[key], exist_ok=True)
    e.update(GOTOOLCHAIN="local", GOFLAGS="-buildvcs=false", GOWORK="off", GOENV="off", CGO_ENABLED="0")
    return e


def build(trace):
    """Builds the commands (and, for a traced run, the discrete tools and
    the replay) before anything is timed."""
    tools = TOOLS + (DISCRETE_TOOLS if trace else [])
    steps = [(ROOT, ["go", "build", "-o", BIN + os.sep] + ["./cmd/" + t for t in tools])]
    if trace:
        steps.append((HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench-trace"), "./trace"]))
    for cwd, argv in steps:
        try:
            p = subprocess.run(argv, cwd=cwd, env=env(), capture_output=True, text=True)
        except OSError as err:
            raise BenchError("build: %s" % err)
        if p.returncode != 0:
            raise BenchError("build failed: %s\n%s" % (" ".join(argv), p.stdout + p.stderr))


def invoke(argv):
    """Runs one command to completion. Returns (exit code, output, wall
    seconds, peak resident set in MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------- parsing

_DURATION = re.compile(r"([0-9.]+)(ns|us|µs|ms|s|m|h)")
_UNIT_S = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}


def go_duration(text):
    """Seconds in a Go time.Duration string such as 1m2.5s or 812µs."""
    parts = _DURATION.findall(text)
    if not parts or "".join(n + u for n, u in parts) != text:
        raise ValueError("not a Go duration: %r" % text)
    return sum(float(n) * _UNIT_S[u] for n, u in parts)


CENSUS_KEYS = ("mutants", "checks", "valid", "invalid", "unsupported", "unknown", "crashes")

_GROUP = re.compile(r"units=\d+\s+mutants=(\d+)\s+checks=(\d+)\s+valid=(\d+)\s+invalid=(\d+)\s+"
                    r"unsupported=(\d+)\s+unknown=(\d+)\s+crashes=(\d+)")
_STAGE = re.compile(r"^(\w+)\s+(\d+)\s+(\S+)\s+\S+\s+[0-9.]+%$", re.M)
_FILE = re.compile(r": (\d+) mutants in \S+ \| checks: (\d+) valid, (\d+) invalid, "
                   r"(\d+) unsupported, (\d+) unknown \| crashes: (\d+)")


def parse_campaign(out):
    """Splits `fuzz-campaign -stats` output into its result table, its
    verdict census, and its set-up seconds (module parse plus the
    preprocessing gate, summed over the campaign's units)."""
    start = out.find("LLVM BUGS FOUND")
    end = out.find("\nPer-bug loop statistics")
    if start < 0 or end < start:
        raise BenchError("fuzz-campaign printed no table and statistics")
    census = dict.fromkeys(CENSUS_KEYS, 0)
    for m in _GROUP.finditer(out):
        for key, val in zip(CENSUS_KEYS, m.groups()):
            census[key] += int(val)
    stages = {m.group(1): (int(m.group(2)), go_duration(m.group(3))) for m in _STAGE.finditer(out)}
    census["fastpath"] = census["checks"] - stages.get("tv", (0, 0.0))[0]
    setup = stages.get("parse", (0, 0.0))[1] + stages.get("preprocess", (0, 0.0))[1]
    return out[start:end], census, setup


def parse_files(out):
    """The summed census of alive-mutate's per-file summary lines."""
    census = dict.fromkeys(CENSUS_KEYS, 0)
    lines = _FILE.findall(out)
    if not lines:
        raise BenchError("alive-mutate printed no summary")
    for mutants, valid, invalid, unsupported, unknown, crashes in lines:
        census["mutants"] += int(mutants)
        census["valid"] += int(valid)
        census["invalid"] += int(invalid)
        census["unsupported"] += int(unsupported)
        census["unknown"] += int(unknown)
        census["crashes"] += int(crashes)
    census["checks"] = census["valid"] + census["invalid"] + census["unsupported"] + census["unknown"]
    return census


# ---------------------------------------------------------------- workloads

def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def reference_path(name):
    return os.path.join(HERE, "reference", name + ".json")


def load_reference(name):
    """Reference entries of a campaign workload, keyed by command line."""
    if not os.path.exists(reference_path(name)):
        return {}
    with open(reference_path(name)) as f:
        return {tuple(e["argv"]): e for e in json.load(f)}


class Workload:
    """One workload's command line, at its committed seed."""

    def __init__(self, name, spec, smoke):
        self.name = name
        self.tool = spec["tool"]
        self.flags = spec["smoke_flags" if smoke else "flags"]
        self.seed = spec["seed"]
        self.campaign = self.tool == "fuzz-campaign"
        if self.campaign:
            self.reference = load_reference(name)
        else:
            self.corpus_seed = spec["corpus_seed"]
            self.files = [os.path.join(BUILD, "files", f) for f in spec["files"]]

    def prepare(self):
        """Writes the generated input files (files-decided only)."""
        if self.campaign:
            return
        code, out, _, _ = invoke([os.path.join(BIN, "gen-corpus"), "-seed", str(self.corpus_seed),
                                  "-n", "9", "-dir", os.path.join(BUILD, "files")])
        if code != 0:
            raise BenchError("gen-corpus failed:\n" + out)

    def argv(self):
        tool = os.path.join(BIN, self.tool)
        if self.campaign:
            return [tool] + self.flags + ["-seed", str(self.seed), "-stats"]
        return [tool] + self.flags + ["-seed", str(self.seed)] + self.files

    def key(self):
        """The argv a reference entry is stored under (no binary path)."""
        return tuple([self.tool] + self.flags + ["-seed", str(self.seed)])

    def setup_probe(self):
        """Seconds of module load plus the preprocessing gate for the
        workload's files: one alive-mutate run that stops before its first
        mutant, over the files repeated SETUP_REPEAT times, divided by
        SETUP_REPEAT so that process start-up is amortized."""
        code, out, wall, _ = invoke([os.path.join(BIN, "alive-mutate"), "-t", "1e-9",
                                     "-seed", str(self.seed)] + self.files * SETUP_REPEAT)
        if code != 0:
            raise BenchError("alive-mutate set-up probe failed:\n" + out)
        return wall / SETUP_REPEAT


class Run:
    """The outcome of one command invocation."""

    def __init__(self, wall, rss):
        self.wall, self.rss = wall, rss
        self.census, self.setup, self.errors = None, None, []


def execute(wl):
    """Runs one invocation and checks its result: a campaign's table must
    equal the committed reference; files-decided must see no Invalid
    verdict and no crash, because no seeded bug is enabled."""
    code, out, wall, rss = invoke(wl.argv())
    r = Run(wall, rss)
    try:
        if wl.campaign:
            table, r.census, r.setup = parse_campaign(out)
            r.errors += check_table(table, wl.reference.get(wl.key()))
        else:
            r.census = parse_files(out)
            r.errors += check_files(r.census)
    except BenchError as err:
        r.errors.append(str(err))
    if code != 0:
        r.errors.append("exit code %d" % code)
    if r.errors:
        sys.stderr.write("%s: %s\n%s\n" % (wl.name, "; ".join(r.errors), out[-2000:]))
    return r


def check_table(table, ref):
    if ref is None:
        return ["no reference table for this command line (run --refresh-reference)"]
    if table != ref["table"]:
        return ["result table differs from the reference"]
    return []


def check_files(census):
    errors = []
    if census["invalid"]:
        errors.append("%d Invalid verdict(s) with no seeded bug" % census["invalid"])
    if census["crashes"]:
        errors.append("%d optimizer crash(es) with no seeded bug" % census["crashes"])
    return errors


def check_census(replayed, command, keys):
    """Differences between the replay's census and the command's."""
    return ["%s: replay %d, command %d" % (k, replayed[k], command[k])
            for k in keys if replayed[k] != command[k]]


# ---------------------------------------------------------------- metrics

def unknown_share(census):
    """Refinement checks that ended Unknown, over checks attempted."""
    return census["unknown"] / census["checks"] if census["checks"] else 0.0


def mutants_per_s(runs):
    """Median over invocations of mutants / the invocation's wall time."""
    return statistics.median(r.census["mutants"] / r.wall for r in runs)


def total(censuses):
    out = dict.fromkeys(CENSUS_KEYS, 0)
    for c in censuses:
        for k in out:
            out[k] += c[k]
    return out


def tail_percentile(samples, p):
    """The nearest-rank p-th percentile, or None unless at least ten
    samples lie beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def repeat(wl, seconds):
    """Repeats the workload's invocation until the next one would end well
    past `seconds`; always at least once. Returns every invocation and
    those that produced a census."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(execute(wl))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(runs) >= seconds:
            break
    measured = [r for r in runs if r.census]
    if not measured:
        raise BenchError("no invocation printed a census")
    return runs, measured


def result(runs, metrics):
    failed = sum(1 for r in runs if r.errors)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def timed(wl, seconds):
    """The end-to-end metrics, telemetry off."""
    setups = [] if wl.campaign else [wl.setup_probe() for _ in range(SETUP_PROBES)]
    runs, measured = repeat(wl, seconds)
    if wl.campaign:
        setups = [r.setup for r in measured]
    c = total(r.census for r in measured)
    sys.stderr.write("%s: %d invocation(s), %d mutants in %.2fs, %d checks, %d unknown "
                     "(unknown_share %.5f)\n" % (wl.name, len(runs), c["mutants"],
                                                 sum(r.wall for r in measured), c["checks"],
                                                 c["unknown"], unknown_share(c)))
    return result(runs, {
        "mutants_per_s": {"value": mutants_per_s(measured), "unit": "mutants/s"},
        "decided_share": {"value": 1.0 - unknown_share(c), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.rss for r in measured), "unit": "MB"},
    })


def replay(wl, invocations, smoke):
    """Runs the in-process replay of the workload's invocation, repeated."""
    argv = [os.path.join(BIN, "perfbench-trace"), "-seeds", ",".join([str(wl.seed)] * invocations)]
    flags = dict(zip(wl.flags[::2], wl.flags[1::2]))
    if wl.campaign:
        argv += ["-mode", "campaign", "-only", flags["-only"], "-budget", flags["-budget"],
                 "-tvbudget", flags["-tvbudget"]]
    else:
        tmp = os.path.join(TMP, "discrete")
        os.makedirs(tmp, exist_ok=True)
        argv += ["-mode", "files", "-n", flags["-n"], "-passes", flags["-passes"],
                 "-discrete-bin", BIN, "-tmp", tmp,
                 "-discrete-n", str(3 if smoke else DISCRETE_MUTANTS)] + wl.files
    code, out, _, _ = invoke(argv)
    if code != 0:
        raise BenchError("replay failed:\n" + out)
    return json.loads(out)


def layer_metrics(doc, untraced_rate):
    """The per-layer metrics of a replay document; untraced_rate is the
    command's mutants_per_s on the same invocations. A metric that does
    not apply to the workload (or a percentile without ten samples beyond
    it) reads 0 and is named on standard error."""
    L = doc["layers"]
    c = total(e["census"] for e in doc["entries"])
    fastpath = sum(e["census"]["fastpath"] for e in doc["entries"])
    q = L["query_ns"]
    nq = len(q)
    withheld = []

    def ratio(a, b):
        return a / b if b else 0.0

    def pct(p):
        v = tail_percentile(q, p)
        if v is None:
            withheld.append("tv.query_us_p%d (%d queries)" % (p, nq))
            return 0.0
        return v / 1e3

    m = {
        "core.preprocess_ms": (L["core_new_ns"] / 1e6 / len(doc["entries"]), "ms"),
        "core.fastpath_share": (ratio(fastpath, c["checks"]), "ratio"),
        "mutate.us_per_mutant": (ratio(L["mutate_ns"] / 1e3, c["mutants"]), "us"),
        "opt.us_per_mutant": (ratio(L["opt_ns"] / 1e3, c["mutants"]), "us"),
        "opt.crashes": (L["opt_crashes"], "count"),
        "tv.queries": (nq, "count"),
        "tv.time_share": (ratio(L["verify_ns"], L["loop_ns"]), "ratio"),
        "tv.query_us_p50": (pct(50), "us"),
        "tv.query_us_p90": (pct(90), "us"),
        "tv.nosearch_share": (ratio(L["nosearch"], nq), "ratio"),
        "tv.unknown_share": (unknown_share(c), "ratio"),
        "tv.unknown_time_share": (ratio(L["unknown_ns"], L["verify_ns"]), "ratio"),
    }
    for s, st in sorted(L["steps"].items()):
        m["tv.step.%s.queries" % s] = (st["queries"], "count")
        m["tv.step.%s.ms" % s] = (st["ns"] / 1e6, "ms")
    m["tv.step.portfolio.rescued"] = (L["portfolio_rescued"], "count")
    m["sat.conflicts"] = (L["conflicts"], "count")
    m["sat.propagations"] = (L["propagations"], "count")
    m["sat.mprops_per_s"] = (ratio(L["propagations"] / 1e6, L["search_ns"] / 1e9), "Mprops/s")
    d = doc.get("discrete") or []
    if d:
        speedups = [f["discrete_ns"] / f["integrated_ns"] for f in d]
        m["discrete.ms_per_mutant"] = (sum(f["discrete_ns"] for f in d) / 1e6 / sum(f["mutants"] for f in d), "ms")
        m["discrete.speedup_geomean"] = (math.exp(statistics.fmean(math.log(s) for s in speedups)), "x")
        m["discrete.speedup_min"] = (min(speedups), "x")
    else:
        withheld.append("discrete.* (files-decided only)")
        for name, unit in (("ms_per_mutant", "ms"), ("speedup_geomean", "x"), ("speedup_min", "x")):
            m["discrete." + name] = (0.0, unit)
    traced_rate = statistics.median(e["census"]["mutants"] / (e["wall_ns"] / 1e9) for e in doc["entries"])
    m["trace.overhead"] = (ratio(traced_rate, untraced_rate), "ratio")
    if withheld:
        sys.stderr.write("not applicable, reported as 0: %s\n" % ", ".join(withheld))
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced(wl, seconds, smoke):
    """The per-layer metrics: untraced invocations for half the run, then
    their in-process replay, whose census must equal the command's before
    any number is published."""
    runs, measured = repeat(wl, seconds / 2)
    res = result(runs, {})
    if not res["correct"]:
        return res
    doc = replay(wl, len(runs), smoke)
    keys = CENSUS_KEYS + (("fastpath",) if wl.campaign else ())
    errors = []
    for r, e in zip(runs, doc["entries"]):
        errors += check_census(e["census"], r.census, keys)
    if errors:
        raise BenchError("the replay no longer mirrors the command's configuration:\n  "
                         + "\n  ".join(errors))
    ref = wl.reference.get(wl.key()) if wl.campaign else None
    if ref and ref["census"] != runs[0].census:
        sys.stderr.write("note: census %s differs from the reference %s\n" % (runs[0].census, ref["census"]))
    res["metrics"] = layer_metrics(doc, mutants_per_s(measured))
    return res


def refresh_reference():
    """Re-records every campaign workload's reference table and census,
    for its full and smoke command lines."""
    for name, spec in load_workloads().items():
        if spec["tool"] != "fuzz-campaign":
            continue
        entries = []
        for smoke in (False, True):
            wl = Workload(name, spec, smoke)
            code, out, wall, _ = invoke(wl.argv())
            if code != 0:
                raise BenchError("%s: exit code %d\n%s" % (name, code, out))
            table, census, _ = parse_campaign(out)
            entries.append({"argv": list(wl.key()), "table": table, "census": census})
            sys.stderr.write("%s %s: %.1fs %s\n" % (name, " ".join(wl.key()), wall, census))
        with open(reference_path(name), "w") as f:
            json.dump(entries, f, indent=1)
            f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1,
                    help="accepted, but every seed runs the committed inputs (see README.md)")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smoke-size command lines (tests)")
    ap.add_argument("--refresh-reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        build(trace=args.trace == 1)
        if args.refresh_reference:
            refresh_reference()
            return 0
        specs = load_workloads()
        if args.workload not in specs:
            ap.error("--workload must be one of: " + ", ".join(specs))
        wl = Workload(args.workload, specs[args.workload], args.smoke)
        wl.prepare()
        res = traced(wl, args.seconds, args.smoke) if args.trace else timed(wl, args.seconds)
    except BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
