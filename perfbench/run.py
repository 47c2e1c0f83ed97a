"""The enriques-bn benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep|destab|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports ``enriques_bn`` from that
checkout's ``src/`` (in this process and in every child) and refuses to run
if the import resolves anywhere else.  All load comes from this process and
at most one child at a time; every workload is a closed loop with one
caller.

``--trace 0`` measures the end-to-end metrics over a fixed number of whole
passes over the workload's item set (see workloads.py), scaled from
``--seconds``, so every run measures the same items however fast the code
or the host; the seed orders each pass.
Every item's answer is compared with its golden answer.  Drift correction:
between items the runner times a fixed stdlib reference loop (in a fresh
child when the items are child processes) and scales each item's time by
nominal/measured for the loops on either side of it, so a host that runs
slower for a while does not read as a slower program.  Items are also
probed with short runs of the loop while they run (refloop.Probes; CLI
items in the child, through cli_child.py), and those probes correct them
when there are enough.

``--trace 1`` runs one pass in the seed's order once untraced and twice
traced, and reports the per-layer metrics of the first traced pass, with
each item's layer self times drift-corrected by that item's factor.  Both
traced passes must give identical counts, every answer must match, and the
layer self times must cover the item spans to within COVERAGE_TOLERANCE.

The last line of stdout is the result object; the full report (raw and
corrected seconds, the reference loop's spread, the tail percentile and its
sample count, the per-layer seconds, provenance) goes to stderr as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refloop import ITERATIONS, PROBE_ITERATIONS, Probes, reference_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "enriques_bn"

WORKLOADS = ("sweep", "destab", "cli")
SETUP_PROBES = 3
COVERAGE_TOLERANCE = 0.05  # share of item time outside every layer span
CHILD_TIMEOUT_S = 120
WALL_GUARD = 4  # stop starting passes after this many times --seconds of wall time
TAIL_BEYOND = 10  # items beyond the reported tail percentile

# refloop.reference_loop is the drift reference.  NOMINAL_REF_S is its median
# time on the machine the bounds were set on (2 vCPU, Python 3.11); corrected
# times are in that machine's seconds.  After each timed call the loop runs
# for about REF_SHARE of the call's time (at least REF_MIN_LOOPS times), so
# long items get a steadier estimate.
NOMINAL_REF_S = 0.0085
REF_SHARE = 0.05
REF_MIN_LOOPS = 3
# Timed calls that start a child process are corrected by a child that runs
# the loop once: a loop timed in this process does not track how fast a new
# process runs (it made the spread of CLI item times larger, not smaller).
REF_CHILD = [sys.executable, "-c", "import refloop; refloop.reference_loop()"]
NOMINAL_REF_CHILD_S = 0.060
# The host's speed can change within one item.  So items are also probed
# while they run (refloop.Probes), and the probes' time is taken out of the
# item's time.  An item with at least MIN_PROBES probes is corrected by them
# alone; a shorter one by the references just before and after it.  On the
# 2-vCPU host this cut the spread of repeated destab items from 12% to 8%.
MIN_PROBES = 5
# CLI items run the CLI through this file, which probes it in the child.
CLI_CHILD = str(Path(__file__).resolve().parent / "cli_child.py")


class CheckoutError(RuntimeError):
    pass


def use_checkout():
    """Import enriques_bn from this checkout's src/, or refuse."""
    sys.path.insert(0, str(SRC))
    try:
        import enriques_bn
    except ImportError as ex:
        raise CheckoutError(f"cannot import enriques_bn from {SRC}: {ex}") from ex
    _check_package_path(enriques_bn.__file__)
    return enriques_bn


def _check_package_path(path: str) -> None:
    if Path(path).resolve().parent != PACKAGE:
        raise CheckoutError(f"enriques_bn resolved to {path}, not under {PACKAGE}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_command(argv) -> list[str]:
    return [sys.executable, "-m", "enriques_bn.cli", *argv]


def provenance() -> dict:
    files = sorted(PACKAGE.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        git = []
    # a checkout that is not a repository may sit inside one that is
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else None
    return {
        "package": str(PACKAGE / "__init__.py"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Drift-corrected timing.
# ---------------------------------------------------------------------------


def reference_gap(seconds: float) -> float:
    """Mean reference-loop time over a gap of about REF_SHARE * seconds."""
    loops = max(REF_MIN_LOOPS, math.ceil(REF_SHARE * seconds / NOMINAL_REF_S))
    return statistics.fmean(reference_loop() for _ in range(loops))


def reference_child(seconds: float) -> float:
    """Seconds for a fresh interpreter to start and run the reference loop."""
    start = time.perf_counter()
    subprocess.run(REF_CHILD, cwd=Path(__file__).resolve().parent, check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


class DriftClock:
    """Times calls; each gets raw seconds and seconds scaled by the ratio of
    the reference's nominal time to its time measured with the call (see
    MIN_PROBES).  ``children`` selects the reference for calls that start a
    child process.  Those calls return (answer, probes), where probes is
    the child's report of its own probes, or None."""

    def __init__(self, children: bool = False):
        self.children = children
        self.gap = reference_child if children else reference_gap
        self.nominal = NOMINAL_REF_CHILD_S if children else NOMINAL_REF_S
        self.refs = [self.gap(0.0)]
        self.probes = Probes()  # the probes of the last call

    def time(self, fn):
        self.probes = probes = Probes()
        start = time.perf_counter()
        try:
            if self.children:
                out, report = fn()
                if report:
                    probes.times, probes.seconds = report["times"], report["seconds"]
            else:
                with probes:
                    out = fn()
            err = None
        except Exception as ex:  # an item that raises counts as failed
            out, err = None, f"{type(ex).__name__}: {ex}"
        raw = time.perf_counter() - start - probes.seconds
        before = self.refs[-1]
        self.refs.append(self.gap(raw))
        if len(probes.times) >= MIN_PROBES:
            ref = statistics.fmean(probes.times) * ITERATIONS / PROBE_ITERATIONS
            return raw, raw * NOMINAL_REF_S / ref, out, err
        return raw, raw * self.nominal / ((before + self.refs[-1]) / 2), out, err

    def spread(self) -> dict:
        q1, med, q3 = statistics.quantiles(self.refs, n=4)
        return {"samples": len(self.refs), "nominal_s": self.nominal, "median_s": med,
                "q1_s": q1, "q3_s": q3, "iqr_over_median": (q3 - q1) / med}


# ---------------------------------------------------------------------------
# Items.
# ---------------------------------------------------------------------------


def make_runner(workload: str, golden: dict, in_process_cli: bool = False):
    """(compute, check): compute(item) runs one item and is what gets timed;
    check(item, answer) compares its answer with the golden one."""
    import workloads as wl

    answers = {rec["key"]: rec for rec in golden[workload]}
    if workload in ("sweep", "destab"):
        compute = (lambda item: wl.sweep_answer(item.payload)) if workload == "sweep" \
            else (lambda item: wl.destab_answer(*item.payload))
        return compute, lambda item, answer: wl.canonical(answer) == answers[item.key]["answer"]
    if in_process_cli:
        import enriques_bn.cli as cli

        def compute(item):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(list(item.payload))
            return code, buf.getvalue().encode()
    else:
        env = child_env()

        def compute(item):
            proc = subprocess.run([sys.executable, CLI_CHILD, *item.payload], env=env,
                                  cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stderr.splitlines()
            try:
                report = json.loads(lines[-1]) if lines else None
            except ValueError:
                report = None  # the child died before it reported
            return (proc.returncode, proc.stdout), report

    def check(item, answer):
        rec = answers[item.key]
        return answer == (rec["exit"], rec["stdout"].encode())

    return compute, check


def prepare(workload: str):
    """Everything before the first item: import, inputs, embeddings."""
    use_checkout()
    import workloads as wl

    golden = wl.load_golden()
    return golden, wl.build_items(workload, golden)


def run_items(clock: DriftClock, items, runner, records: list) -> None:
    compute, check = runner
    for item in items:
        raw, corrected, answer, err = clock.time(lambda: compute(item))
        records.append({"group": item.group, "key": item.key, "raw_s": raw, "s": corrected,
                        "probes": len(clock.probes.times), "probe_s": clock.probes.seconds,
                        "ok": err is None and check(item, answer), "error": err})


# ---------------------------------------------------------------------------
# Set-up time.
# ---------------------------------------------------------------------------


def _probe_command(workload: str) -> list[str]:
    if workload == "cli":
        # a bare import, as every CLI call pays it; also proves the children
        # import this checkout
        return [sys.executable, "-c",
                "import enriques_bn, sys; sys.stdout.write(enriques_bn.__file__)"]
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", "0", "--setup-probe"]


def measure_setup(clock: DriftClock, workload: str, count: int) -> list[dict]:
    """Time ``count`` fresh interpreters from start until the first item is ready."""
    cmd, env = _probe_command(workload), child_env()
    out = []
    for _ in range(count):
        raw, corrected, proc, err = clock.time(
            lambda: (subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                    timeout=CHILD_TIMEOUT_S, check=True), None))
        if err:
            raise CheckoutError(f"set-up probe failed: {err}")
        if workload == "cli":
            _check_package_path(proc.stdout.decode())
        out.append({"raw_s": raw, "s": corrected})
    return out


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value
    (the minimum, at percentile 0, when there are too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 0.0, ordered[0]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import workloads as wl

    setup_clock = DriftClock(children=True)
    setup = measure_setup(setup_clock, workload, SETUP_PROBES)
    clock = setup_clock if workload == "cli" else DriftClock()
    golden, items = prepare(workload)
    runner = make_runner(workload, golden)
    order = wl.passes(items, seed)
    records: list[dict] = []
    wall_start = time.perf_counter()
    planned = max(1, round(wl.PASSES[workload] * seconds / wl.RUN_SECONDS))
    for n_passes in range(1, planned + 1):
        run_items(clock, next(order), runner, records)
        if time.perf_counter() - wall_start > WALL_GUARD * seconds:
            break  # far slower than nominal; report the passes that ran
    total = sum(r["s"] for r in records)
    times = [r["s"] for r in records]
    failed = [r for r in records if not r["ok"]]
    pct, tail_s = tail(times)
    setup_s = statistics.median(p["s"] for p in setup)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(records) / total, "1/s"),
        "item_p50_s": (statistics.median(times), "s"),
        "item_tail_s": (tail_s, "s"),
        "correct_ratio": ((len(records) - len(failed)) / len(records), "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r["group"], []).append(r["s"])
    report = {
        "passes": n_passes,
        "passes_planned": planned,
        "items_per_pass": len(items),
        "items": len(records),
        "item_s_raw_total": sum(r["raw_s"] for r in records),
        "item_s_corrected_total": total,
        "wall_s": time.perf_counter() - wall_start,
        "reference_loop": clock.spread(),
        "setup_reference_loop": setup_clock.spread(),
        "setup_probes": setup,
        "tail_percentile": pct,
        "tail_samples": len(times),
        "failed_ratio": len(failed) / len(records),
        "failed_items": [{"key": r["key"], "error": r["error"]} for r in failed],
        "groups": {k: {"n": len(v), "p50_s": statistics.median(v)} for k, v in groups.items()},
        "item_records": records,
        "reference_gaps_s": clock.refs,
    }
    if workload == "sweep":
        report["random_sample"] = golden["sweep_sample"]
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}, report


def trace(workload: str, seed: int) -> tuple[dict, dict]:
    import tracer as tr
    import workloads as wl

    startup = measure_setup(DriftClock(children=True), "cli", SETUP_PROBES)
    clock = DriftClock()
    golden, items = prepare(workload)
    items = next(wl.passes(items, seed))
    runner = make_runner(workload, golden, in_process_cli=True)

    untraced: list[dict] = []
    run_items(clock, items, runner, untraced)
    passes = []
    for _ in range(2):
        t = tr.Tracer()
        records: list[dict] = []

        def traced(item, t=t, compute=runner[0]):
            with t.item():
                return compute(item)

        with t.installed():
            run_items(clock, items, (traced, runner[1]), records)
        passes.append((t, records))

    t, records = passes[0]
    all_records = untraced + passes[0][1] + passes[1][1]
    failed = [r for r in all_records if not r["ok"]]
    coverage = [1 - p.item_self_s / p.item_s for p, _ in passes]
    checks = {
        "counts_repeat": passes[0][0].counts() == passes[1][0].counts(),
        "answers_match": not failed,
        "self_times_cover_items": all(c >= 1 - COVERAGE_TOLERANCE for c in coverage),
    }
    untraced_s = sum(r["s"] for r in untraced)
    traced_s = sum(r["s"] for r in records)

    # each item's layer self times, scaled by that item's drift correction;
    # they include the item's probes, so those are taken out in proportion
    self_s = {layer: 0.0 for layer in tr.LAYERS}
    for r, layers in zip(records, t.per_item):
        for layer, own in layers.items():
            self_s[layer] += own * r["s"] / (r["raw_s"] + r["probe_s"])

    metrics: dict[str, tuple[float, str]] = {}
    for layer in tr.LAYERS:
        metrics[f"{layer}.calls"] = (t.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for layer in ("shortvec.fiber", "shortvec.fiber_min"):
        metrics[f"{layer}.points"] = (t.points[layer], "count")
    kernel_s = self_s["shortvec.fiber"] + self_s["shortvec.fiber_min"]
    metrics["shortvec.points_per_s"] = (
        (t.points["shortvec.fiber"] + t.points["shortvec.fiber_min"]) / kernel_s, "1/s")
    metrics["invariants.gonality.calls_per_item"] = (
        t.calls["invariants.gonality"] / t.items, "calls/item")
    scanned = t.points["shortvec.fiber_min"]
    metrics["brill_noether.destab.kept_ratio"] = (
        t.points["brill_noether.destab"] / scanned if scanned else 0.0, "ratio")
    metrics["cli.startup_s"] = (statistics.median(p["s"] for p in startup), "s")
    by_command = {argv[0]: 0.0 for argv in wl.CLI_COMMANDS}
    if workload == "cli":
        for r in records:
            by_command[r["group"]] += r["s"]
    for command in sorted(by_command):
        metrics[f"cli.{command}.s"] = (by_command[command], "s")

    report = {
        "items_per_pass": len(items),
        "checks": checks,
        "coverage": coverage,
        "coverage_tolerance": COVERAGE_TOLERANCE,
        "tracing_overhead": traced_s / untraced_s - 1,
        "untraced_item_s": untraced_s,
        "traced_item_s": traced_s,
        "reference_loop": clock.spread(),
        "layers": {layer: {"calls": t.calls[layer], "self_s_raw": t.self_s[layer],
                           "self_s": self_s[layer]} for layer in tr.LAYERS},
        "points": t.points,
        "item_s_traced_raw": t.item_s,
        "item_self_s": t.item_self_s,
        "cli_command_s": by_command,
        "cli_startup_probes": startup,
        "failed_items": [{"key": r["key"], "error": r["error"]} for r in failed],
    }
    result = {"correct": all(checks.values()), "attempted": len(all_records),
              "failed": len(failed), "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as wl

    try:
        if args.setup_probe:
            prepare(args.workload)
            return 0
        use_checkout()
        if args.trace:
            result, report = trace(args.workload, args.seed)
        else:
            result, report = measure(args.workload, args.seed, args.seconds)
    except (CheckoutError, wl.StaleGolden, wl.SamplerExhausted) as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(), **report}
    json.dump(report, sys.stderr, indent=1)
    sys.stderr.write("\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
