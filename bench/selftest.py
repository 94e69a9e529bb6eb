"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

1. Runs every workload untraced, and one traced, at ``--tiny`` sizes, and
   checks that every metric named in BENCHMARK.json is printed with its
   unit, that the report line gives each a direction, and that nothing
   failed.
2. Feeds one deliberately wrong result to each gate and checks that the gate
   counts it as failed.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from workloads import WORKLOADS  # noqa: E402

from econorder.enumeration import CatalogEntry, MicroOutcome  # noqa: E402

failures: list[str] = []


def check(label: str, ok: bool) -> None:
    print("%s %s" % ("PASS" if ok else "FAIL", label))
    if not ok:
        failures.append(label)


def run(workload: str, trace: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=False,
    )
    label = "%s trace=%d" % (workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        check(label + " runs (exit %d): %s" % (proc.returncode, proc.stderr[-500:]), False)
        return
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    check(label + " result keys", set(result) == {"correct", "attempted", "failed", "metrics"})
    check(label + " correct, failed 0", result["correct"] and result["failed"] == 0)
    check(label + " failed_frac 0", report["metrics"]["failed_frac"]["value"] == 0)
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        shown = report["metrics"].get(metric["name"], {})
        check(
            "%s %s present with unit and direction" % (label, metric["name"]),
            got is not None
            and got["unit"] == metric["unit"]
            and shown.get("better") in ("lower", "higher")
            and isinstance(got["value"], (int, float)),
        )
    check(label + " provenance", {"python", "numpy", "scipy", "nproc", "cpu", "commit", "seed", "traced"} <= set(report["provenance"]))


def first_result(workload, kind: str):
    op = next(op for op in workload.ops if op.kind == kind)
    result = workload.run(op)
    check("%s gate: accepts a correct %s result" % (workload.name, kind), workload.gate(op, result))
    return op, result


def gates_reject_wrong_results(workdir: Path) -> None:
    exact = WORKLOADS["exact-orders"](3, workdir, tiny=True)
    op, (cat, top, ties) = first_result(exact, "catalog")
    e0 = cat.entries[0]
    skewed = dataclasses.replace(cat, entries=(CatalogEntry(e0.order, e0.multiplicity, e0.probability + Fraction(1, cat.total_outcomes)),) + cat.entries[1:])
    check("exact-orders gate: probabilities off by 1/total", not exact.gate(op, (skewed, top, ties)))
    bad_order = type(e0.order)(tuple(a + 1 for a in e0.order.occupancy))
    infeasible = dataclasses.replace(cat, entries=(CatalogEntry(bad_order, e0.multiplicity, e0.probability),) + cat.entries[1:])
    check("exact-orders gate: infeasible order", not exact.gate(op, (infeasible, bad_order, (bad_order,))))
    op, count = first_result(exact, "multiplicity")
    check("exact-orders gate: doubled big count", not exact.gate(op, count * 2))

    sampling = WORKLOADS["sampling"](3, workdir, tiny=True)
    op, (outcomes, freqs, cat, missing) = first_result(sampling, "uniform")
    draw = outcomes[0]
    if draw.regime.short_name == "mon":
        moved = MicroOutcome(draw.regime, ((draw.assignment[0][0] + 1, 0),) + draw.assignment[1:])
    else:
        (pos, count), rest = draw.assignment[0], draw.assignment[1:]
        moved = MicroOutcome(draw.regime, (((pos[0], pos[1]), count + 1),) + rest)
    check("sampling gate: infeasible draw", not sampling.gate(op, ([moved] + outcomes[1:], freqs, cat, missing)))
    op, (outcomes, freqs, cat, missing) = first_result(sampling, "chain")
    check("sampling gate: chain misses an order", not sampling.gate(op, (outcomes, freqs, cat, {next(iter(freqs))})))
    biased = WORKLOADS["sampling"](3, workdir, tiny=True)
    for op in biased.ops:
        if op.kind == "uniform":
            outcomes, freqs, cat, missing = biased.run(op)
            top_order = cat.entries[0].order
            lopsided = {top_order: Fraction(1)}
            biased.gate(op, (outcomes, lopsided, cat, missing))
    check("sampling gate: pooled chi-square rejects lopsided frequencies", biased.close() > 0)

    solve = WORKLOADS["solve-sweep"](3, workdir, tiny=True)
    op, (sol, *rest) = first_result(solve, "interior")
    nudged = dataclasses.replace(sol, alpha=sol.alpha + 1e-6)
    check("solve-sweep gate: perturbed multiplier", not solve.gate(op, (nudged, *rest)))
    shifted = dataclasses.replace(sol, occupancy=tuple(a * (1 + 1e-6) for a in sol.occupancy))
    check("solve-sweep oracle: perturbed occupancy", not solve.matches_oracle(op, shifted))

    cli = WORKLOADS["cli-cold"](3, workdir, tiny=True)
    op = cli.ops[0]
    code, out, stderr = cli.run(op)
    check("cli-cold gate: documented exit code passes", cli.gate(op, (code, out, stderr)))
    check("cli-cold gate: wrong exit code", not cli.gate(op, (4, out, b"")))
    code, out, stderr = cli.run(op)
    (out / "extra.txt").write_text("not deterministic\n")
    check("cli-cold gate: artifacts differ across repeats", not cli.gate(op, (code, out, stderr)))


def main() -> int:
    for name in WORKLOADS:
        run(name, trace=0)
    run("solve-sweep", trace=1)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as tmp:
        gates_reject_wrong_results(Path(tmp))
    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    sys.exit(main())
