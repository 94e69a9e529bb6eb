"""econorder benchmark: one workload per process, metrics on the last line.

    python3 bench/run.py --workload exact-orders --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` the run measures the workload untraced and prints the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it measures a
shorter untraced pass, replays the same ops under the span tracer, runs the
fixed layer suite, and prints the per-layer metrics.  Before the last line it
prints one ``report`` JSON line with extra metrics, the failure fraction and
the provenance of the run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
sys.path.insert(0, str(BENCH_DIR))
from tracer import LAYERS, Tracer, write_spans  # noqa: E402

SETUP_REPEATS = 5
NAMES = ("exact-orders", "sampling", "solve-sweep", "cli-cold")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    return parser.parse_args(argv)


def metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


# metrics the report line adds; cli.*_s only on cli-cold
REPORT_METRICS = {
    "failed_frac": ("fraction", "lower"),
    "op_count": ("count", "higher"),
    **{"cli.%s_s" % c: ("s", "lower") for c in ("enumerate", "solve", "sample", "macro", "check", "fit")},
}


# -- provenance ----------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, traced: bool) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "traced": traced,
    }


# -- measuring -----------------------------------------------------------------


class Pass:
    """Ops run, their latencies and the failures their gates found."""

    def __init__(self):
        self.ops = []
        self.latencies: list[float] = []
        self.failed = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def per_op(self, deck_len: int) -> list[float]:
        """Latency of each op of the deck: the fastest of its repeats, which
        drops the time other tenants of a shared machine stole from it."""
        return [min(self.latencies[i::deck_len]) for i in range(deck_len)]


def run_op(workload, op, gated: bool, tracer=None):
    """Time one op; return (seconds, passed)."""
    start = perf_counter()
    try:
        result = workload.run(op) if tracer is None else workload.run_traced(op, tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - start, False
    elapsed = perf_counter() - start
    if not gated:
        return elapsed, True
    try:
        passed = bool(workload.gate(op, result))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        passed = False
    return elapsed, passed


def untraced_pass(workload, seconds: float, min_decks: int) -> Pass:
    """Whole decks for about ``seconds`` of op time.

    The deck count is fixed after the first deck, rounded to the nearest
    whole number, so that a deck lasting about as long as the run does not
    flip between one and two decks from run to run.
    """
    measured = Pass()
    deck = workload.ops
    decks = done = 1
    while done <= decks:
        for op in deck:
            elapsed, passed = run_op(workload, op, done == 1 or workload.gate_replay)
            measured.ops.append(op)
            measured.latencies.append(elapsed)
            measured.failed += not passed
        if done == 1:
            decks = max(min_decks, round(seconds / measured.busy))
        done += 1
    measured.failed += workload.close()
    return measured


def traced_pass(workload, ops, tracer) -> tuple[Pass, list[dict]]:
    """Replay ``ops`` under the tracer; also return each op's layer self times."""
    measured = Pass()
    per_op = []
    for op_id, op in enumerate(ops):
        tracer.op_id = op_id
        before = {layer: tracer.layer_self[layer] for layer in LAYERS}
        with tracer.span(workload.name + "." + op.kind, "op"):
            elapsed, passed = run_op(workload, op, workload.gate_replay, tracer)
        measured.latencies.append(elapsed)
        measured.failed += not passed
        per_op.append({layer: tracer.layer_self[layer] - before[layer] for layer in LAYERS})
    return measured, per_op


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def setup_seconds(args, workdir: Path) -> list[float]:
    """Set-up time, measured SETUP_REPEATS times.

    In-process workloads: a fresh process that imports econorder and builds
    the workload's inputs, timed from spawn to exit.  cli-cold: writing the
    seeded CSV, which is its only input generation.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        if args.workload == "cli-cold":
            from workloads import CliCold

            start = perf_counter()
            CliCold.write_inputs(workdir, args.seed, args.tiny)
            times.append(perf_counter() - start)
            continue
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        if args.tiny:
            cmd.append("--tiny")
        start = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def end_to_end(workload, measured: Pass, setups: list[float]) -> tuple[dict, dict]:
    """Latency metrics use each op's fastest time over the run's decks."""
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    deck = workload.ops
    per_op = measured.per_op(len(deck))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": quantile(per_op, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    extra = {}
    if workload.name == "cli-cold":
        extra = {"cli.%s_s" % op.kind: t for op, t in zip(deck, per_op)}
    return metrics, extra


def per_layer(args, workload, workdir: Path) -> tuple[dict, list[Pass]]:
    """Untraced half-run, traced replay of the same ops, then the layer suite."""
    from suite import layer_suite

    # one untraced deck is enough; on cli-cold the traced replay is the repeat
    plain = untraced_pass(workload, args.seconds / 2, min_decks=1)
    tracer = Tracer(claimed=workload.claimed)
    if workload.name == "cli-cold":
        traced, per_op = traced_pass(workload, plain.ops, tracer)
    else:
        with tracer:
            traced, per_op = traced_pass(workload, plain.ops, tracer)
    op_time = tracer.layer_cover["op"]
    metrics = {
        "trace.overhead_frac": traced.busy / plain.busy - 1.0,
        "trace.claimed_cover_frac": tracer.claimed_cover / op_time,
        "import.largest_op_frac": sum(
            shares["import"] > 0 and max(shares, key=shares.get) == "import" for shares in per_op
        )
        / len(per_op),
    }
    for layer in LAYERS:
        metrics["%s.op_cover_frac" % layer] = tracer.layer_cover[layer] / op_time
    suite_metrics, suite_tracers = layer_suite(workdir)
    metrics.update(suite_metrics)
    write_spans(RUN_DIR / ("spans-%s-seed%d.jsonl.gz" % (workload.name, args.seed)), [tracer] + suite_tracers)
    return metrics, [plain, traced]


def run_workload(args) -> int:
    from workloads import WORKLOADS

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=RUN_DIR))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
            return 0
        table = metric_table()
        if args.trace:
            workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
            metrics, passes = per_layer(args, workload, workdir)
            extra = {}
            wanted = table["per_layer"]
        else:
            setups = setup_seconds(args, workdir)
            workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
            measured = untraced_pass(workload, args.seconds, workload.min_decks)
            metrics, extra = end_to_end(workload, measured, setups)
            passes = [measured]
            wanted = table["end_to_end"]
        missing = sorted(set(wanted) - set(metrics))
        if missing:
            print("benchmark error: metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
            return 3
        attempted = sum(len(p.latencies) for p in passes)
        failed = sum(p.failed for p in passes)
        extra.update(failed_frac=failed / attempted, op_count=attempted)
        shown = {k: (wanted[k]["unit"], wanted[k]["better"]) for k in wanted}
        shown.update(REPORT_METRICS)
        report = {
            "report": args.workload,
            "metrics": {
                k: {"value": v, "unit": shown[k][0], "better": shown[k][1]}
                for k, v in {**{k: metrics[k] for k in wanted}, **extra}.items()
            },
            "provenance": provenance(args.seed, bool(args.trace)),
        }
        if isinstance(workload, WORKLOADS["sampling"]):
            report["chi_square_pvalue"] = workload.pooled_pvalue()
        print(json.dumps(report, sort_keys=True))
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": wanted[k]["unit"]} for k in wanted},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        code = subprocess.run(cmd, check=False).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "econorder" / "__init__.py").is_file():
        print("benchmark error: no econorder sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
