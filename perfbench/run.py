"""End-to-end and per-layer benchmark of the indres command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each timed run starts a fresh
interpreter (``perfbench/launch.py``) on one fixed ``indres`` command, so
the module-level caches start empty, as they do for a user of the CLI.
One process runs one child at a time in a closed loop with one client,
until the next child would end after ``--seconds``.  Every child's exit
code and ``-o`` report digest are checked against the values recorded
from the reference implementation.

``--trace 0`` prints the end-to-end metrics (medians over the children).
``--trace 1`` alternates untraced and traced children and prints the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is the result as one JSON object; a fuller record
(every child, the environment) goes to ``.perfbench_out/``.

The seed sets each child's ``PYTHONHASHSEED`` (hash randomisation stays
on, as users get it, but every child can be replayed) and which of a
traced/untraced pair runs first.  The inputs themselves are fixed.
"""

import argparse
import compileall
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_CHILDREN = 3  # a median needs at least three samples ...
HARD_SECONDS = 150.0  # ... unless that would run past this point

# Spans that each workload must fire in a traced run; a span that stops
# firing (a renamed function, a changed call path) fails the traced run
# instead of silently reporting zero.
NAMED_SPANS = (
    "groupcore.PermGroup.rows_in", "groupcore.PermGroup.elements",
    "groupcore.conjugacy_classes", "groupcore.centralizer",
    "groupcore.normalizer", "groupcore.sylow_subgroup",
    "groupcore.intersection_set_maxima",
    "groupcore.qualifying_elementary_subgroups",
    "chartab.character_table", "chartab.verify_table",
    "classfun.restriction_matrix", "classfun.induce", "classfun.product_table",
    "blocks.block_partition", "blocks.defect_group",
    "blocks.some_defect_group_inside", "blocks.brauer_correspondent",
    "lattice.IntLattice.insert", "lattice.IntLattice.contains",
    "lattice.quotient_shape",
    "correspondence.table_for", "correspondence.build_induced_lattice",
    "correspondence.check_property", "correspondence.quotients_q1_q2",
    "correspondence.check_property_G_with_witness",
    "cli.load_group", "cli.emit", "catalog.build",
)
FIXTURE_ONLY = {"classfun.product_table",
                "correspondence.check_property_G_with_witness"}


class Workload:
    """One fixed ``indres`` command and the outputs it must produce."""

    def __init__(self, name, args, exit_code, digest, stdout_has=None,
                 not_fired=FIXTURE_ONLY):
        self.name = name
        self.args = args
        self.exit_code = exit_code
        self.digest = digest  # SHA-256 of the -o report
        self.stdout_has = stdout_has
        self.spans = [s for s in NAMED_SPANS if s not in not_fired]


WORKLOADS = {w.name: w for w in [
    Workload(
        "m12-verify", ["verify", "M12", "-p", "2"], 0,
        "1311b9a48dccbcdf573d0431cd3fdbcaf869edbcf624f09706e09fba10ad31aa"),
    Workload(
        "pind-sl2_13", ["verify", "SL2_13", "-p", "2", "--props", "pind"], 0,
        "4a30f55a5614d738197ae6c22331ef5fd71369ae27b27662b1c3b27abb7c750c"),
    Workload(
        "fixture-g",
        ["verify", "fixtures/fixture_group.json", "-p", "2",
         "--subgroup-mode", "block:1", "--props", "irc,wirc,pres,pind,g",
         "--witness", "fixtures/fixture_witness.json"], 1,
        "a0af3ec96a3f5e5c391170c140f03494b953af9e892bc5f8aec5db95609ee84b",
        not_fired={"catalog.build"}),
    # Not in BENCHMARK.json: one child takes about 38 s, more than a run's
    # share of the time the whole benchmark may take.  Run it by hand.
    Workload(
        "suite-small", ["paper-table", "small"], 0,
        "0389587b3f06790f507912ac947d52151a024cc34cca9386eea06ba11a3f4a2f",
        stdout_has="27 of 27 rows match",
        not_fired=FIXTURE_ONLY | {"cli.load_group"}),
]}

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# "<span or prefix>.<stat>".  self_s of a prefix (a module or a class) is
# the sum over the spans under it.
MODULES = ("groupcore", "chartab", "classfun", "blocks", "lattice",
           "correspondence", "cli", "catalog")
PER_LAYER = [(f"{m}.self_s", "s", "lower") for m in MODULES] + [
    (name, {"self_s": "s", "hit_ratio": "ratio", "useful_ratio": "ratio"}
     .get(name.rsplit(".", 1)[1], "count"),
     "higher" if name.endswith("_ratio") else "lower")
    for name in (
        "groupcore.PermGroup.self_s",
        "groupcore.PermGroup.rows_in.self_s",
        "groupcore.PermGroup.rows_in.rows",
        "groupcore.PermGroup.elements.rows",
        "groupcore.conjugacy_classes.self_s",
        "groupcore.centralizer.self_s",
        "groupcore.centralizer.calls",
        "groupcore.normalizer.self_s",
        "groupcore.sylow_subgroup.self_s",
        "groupcore.sylow_subgroup.calls",
        "groupcore.intersection_set_maxima.self_s",
        "groupcore.qualifying_elementary_subgroups.self_s",
        "groupcore.qualifying_elementary_subgroups.subgroups",
        "chartab.character_table.self_s",
        "chartab.character_table.calls",
        "chartab.verify_table.self_s",
        "classfun.restriction_matrix.self_s",
        "classfun.restriction_matrix.calls",
        "classfun.restriction_matrix.misses",
        "classfun.restriction_matrix.cyclo_products",
        "classfun.induce.calls",
        "classfun.product_table.self_s",
        "blocks.block_partition.self_s",
        "blocks.defect_group.self_s",
        "blocks.some_defect_group_inside.self_s",
        "blocks.brauer_correspondent.self_s",
        "lattice.IntLattice.insert.self_s",
        "lattice.IntLattice.insert.calls",
        "lattice.IntLattice.insert.useful_ratio",
        "lattice.IntLattice.contains.self_s",
        "lattice.IntLattice.contains.calls",
        "lattice.quotient_shape.self_s",
        "correspondence.table_for.calls",
        "correspondence.table_for.hit_ratio",
        "correspondence.build_induced_lattice.self_s",
        "correspondence.check_property.self_s",
        "correspondence.quotients_q1_q2.self_s",
        "correspondence.check_property_G_with_witness.self_s",
        "cli.load_group.self_s",
        "cli.emit.self_s",
        "catalog.build.self_s",
    )
] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("fail_frac", "ratio", "lower"),
]


def layer_metrics(trace):
    """Per-layer values from one traced child's spans and counters."""
    spans, counters = trace["spans"], trace["counters"]

    def total(prefix, stat):
        return sum(v[stat] for k, v in spans.items()
                   if k == prefix or k.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace.") or name == "fail_frac":
            continue
        span, stat = name.rsplit(".", 1)
        if stat in ("self_s", "calls"):
            values[name] = total(span, stat)
        elif stat == "hit_ratio":
            values[name] = ratio(counters.get(f"{span}.hits", 0), total(span, "calls"))
        elif stat == "useful_ratio":
            values[name] = ratio(counters.get(f"{span}.raised_rank", 0),
                                 total(span, "calls"))
        else:
            values[name] = counters.get(name, 0)
    return values


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def child_env(hashseed):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def run_child(workload, hashseed, work, trace=False, timeout=HARD_SECONDS):
    """Run the workload's command once in a fresh interpreter; one sample."""
    report, stamp = work / "report.json", work / "stamp.json"
    trace_file = work / "trace.json"
    out, err = work / "stdout.txt", work / "stderr.txt"
    for f in (report, stamp, trace_file):
        f.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "launch.py"), str(stamp),
           str(trace_file) if trace else "-", "--",
           *workload.args, "-o", str(report)]
    with open(out, "w") as fo, open(err, "w") as fe:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(hashseed),
                                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "pythonhashseed": hashseed,
        "traced": trace,
        "exit_code": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    problems = []
    if proc.returncode != workload.exit_code:
        problems.append(f"exit code {proc.returncode}, expected {workload.exit_code}")
    digest = sha256(report) if report.exists() else None
    if digest != workload.digest:
        sample["report_sha256"] = digest
        problems.append("report digest differs from the reference" if digest
                        else "no -o report")
    if workload.stdout_has and workload.stdout_has not in out.read_text():
        problems.append(f"stdout lacks {workload.stdout_has!r}")
    if stamp.exists():
        info = json.loads(stamp.read_text())
        ready, done = info.pop("ready"), info.pop("done")
        sample["setup_s"] = ready - t0
        sample["exit_s"] = t1 - done
        sample["env"] = info
        if not Path(info["indres_file"]).resolve().is_relative_to(ROOT / "src"):
            problems.append(f"imported indres from {info['indres_file']}")
    else:
        problems.append("the launcher wrote no stamp")
    if trace and not problems:
        spans = json.loads(trace_file.read_text())
        missing = [s for s in workload.spans
                   if spans["spans"].get(s, {}).get("calls", 0) == 0]
        if missing:
            problems.append(f"expected spans did not fire: {missing}")
        sample["layers"] = layer_metrics(spans)
        sample["unattributed_s"] = (done - ready
                                    - sum(v["self_s"] for v in spans["spans"].values()))
    if problems:
        tail = err.read_text()[-2000:]
        print(f"[{workload.name}] child failed: {'; '.join(problems)}\n{tail}",
              file=sys.stderr)
    sample["problems"] = problems
    return sample


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def measure(workload, seed, seconds, trace, work):
    """The closed loop: children one after another until time runs out."""
    rng = random.Random(seed)
    order = ((True, False) if rng.random() < 0.5 else (False, True)) if trace else (False,)
    min_steps = 1 if trace else MIN_CHILDREN
    samples = []
    steps = 0
    start = time.monotonic()
    while True:
        for traced in order:
            left = HARD_SECONDS + 10 - (time.monotonic() - start)
            samples.append(run_child(workload, rng.randrange(1, 2**32), work,
                                     trace=traced, timeout=max(left, 1.0)))
        steps += 1
        elapsed = time.monotonic() - start
        # stop before a step that would end after the requested time
        step = elapsed / steps
        if elapsed + step > seconds and (steps >= min_steps
                                         or elapsed + step > HARD_SECONDS):
            break
    return samples


def summarize(samples, trace, fail_frac):
    """The result's metrics: medians over the children that passed."""
    ok = [s for s in samples if not s["problems"]]
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    if not untraced or (trace and not traced):
        return {}

    def med(key, rows):
        return statistics.median(s[key] for s in rows)

    if trace:
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        values["trace.wall_s"] = med("wall_s", traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - med("wall_s", untraced)
        values["trace.unattributed_s"] = med("unattributed_s", traced)
        values["fail_frac"] = fail_frac
        metrics = PER_LAYER
    else:
        values = {name: med(name, untraced) for name, _, _ in END_TO_END}
        metrics = END_TO_END
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in metrics}


def run_workload(workload, seed, seconds, trace, work):
    """One benchmark run: its result line and the record of every child."""
    load_start = os.getloadavg()
    samples = measure(workload, seed, seconds, trace, work)
    failed = sum(1 for s in samples if s["problems"])
    fail_frac = failed / len(samples)
    metrics = summarize(samples, trace, fail_frac)
    return {
        "workload": workload.name,
        "command": ["indres", *workload.args, "-o", "REPORT"],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fail_frac": fail_frac,
        "environment": {
            "git_rev": git_rev(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "child": next((s["env"] for s in samples if "env" in s), None),
        },
        "samples": samples,
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": len(samples),
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]

    needed = [ROOT / "src" / "indres" / "cli.py",
              *(ROOT / a for a in workload.args if a.startswith("fixtures/"))]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a source checkout of indres (missing {', '.join(absent)})",
              file=sys.stderr)
        return 2

    work = OUT_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(str(ROOT / "src" / "indres"), quiet=1)
    # warm the file cache and the bytecode, which a CLI user does not pay
    # for on every call, before the first timed child
    subprocess.run([sys.executable, str(HERE / "launch.py"), str(work / "warm.json"),
                    "-", "--", "--help"], cwd=ROOT, env=child_env(1),
                   stdout=subprocess.DEVNULL, check=True, timeout=15)

    record = run_workload(workload, args.seed, args.seconds, args.trace == 1, work)
    name = f"{workload.name}_seed{args.seed}_trace{args.trace}_{time.time_ns()}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
