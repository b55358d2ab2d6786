#!/usr/bin/env python3
"""matchforge benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload verify_large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory.  Set-up builds the workload's inputs from the seed (several
times; the median is ``setup_s``).  The timed phase then runs whole passes
over the item set, one item after another in a single process, until
``--seconds`` have passed.  Every item's output is checked.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the run splits its time between an untraced and a traced
phase and reports the per-layer metrics.  A human-readable table precedes
the JSON line, and a result file with run metadata is written under
``perfbench/results/``.  The exit code is 1 when any output check failed.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
DEFAULT_SEED = 1
SETUP_REPEATS = 3

if not (ROOT / "src" / "matchforge" / "__init__.py").is_file():
    sys.exit(f"error: no matchforge sources under {ROOT / 'src'}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

import meter  # noqa: E402
from workloads import WORKLOADS, canary  # noqa: E402

from matchforge import graphs  # noqa: E402

# Per-layer span names; each gives <name>.s, and <name>.calls where listed.
LAYER_SPANS = ["graphs.load_graph", "matchers.run", "matchers.trace_io",
               "matchers.worst_case_size", "optimum.maximum_matching",
               "decomposition.canonicalize", "decomposition.decompose",
               "charging.build_ledger", "charging.verify", "adversary.play_game"]
CALL_COUNTS = ["graphs.load_graph", "matchers.run", "matchers.worst_case_size",
               "optimum.maximum_matching", "adversary.play_game"]
COUNTERS = ["graphs.nodes", "graphs.edges", "matchers.run.steps", "matchers.run.free_steps",
            "matchers.worst_case_size.edge_bits", "optimum.matched_pairs",
            "decomposition.components", "decomposition.paths", "decomposition.swapped_pairs",
            "charging.transfers", "charging.cancelled", "charging.donations",
            "charging.checks", "charging.checks_failed", "adversary.rounds",
            "adversary.patterns_offered", "adversary.nodes_built"]


def setup(workload, seed: int, scale: str):
    """Build the inputs SETUP_REPEATS times; return them and the median
    corrected seconds of the whole set-up and of its generator calls."""
    totals, generate = [], []
    for _ in range(SETUP_REPEATS):
        m = meter.Meter()
        gen_calls = []

        def gen(fn, *args):
            token = m.start()
            result = fn(*args)
            if fn is not graphs.save_graph:
                gen_calls.append(m.stop(token))
            return result

        whole = m.start()
        items, canary_text = workload.setup(seed, scale, gen)
        whole = m.stop(whole)
        m.close()
        totals.append(m.corrected(whole))
        generate.append(sum(m.corrected(c) for c in gen_calls))
    return items, canary_text, statistics.median(totals), statistics.median(generate)


class Phase:
    """One timed phase: whole passes over the items until `seconds` pass."""

    def __init__(self, workload, items, canary_text, seconds: float, traced: bool):
        self.meter = meter.Meter()
        self.tracer = meter.Tracer(self.meter) if traced else meter.NullTracer(self.meter)
        self.intervals: list[tuple[float, float, float]] = []
        self.attempted = self.failed = self.passes = 0
        self.errors: list[str] = []
        digest = hashlib.sha256()
        start = perf_counter()
        while True:
            self._guard("canary", canary, self.tracer, canary_text)
            values = []
            for idx, item in enumerate(items):
                token = self.meter.start()
                out = self._guard(f"{self.passes}:{idx}", workload.run_item, self.tracer, item)
                self.intervals.append(self.meter.stop(token))
                if self.passes == 0:
                    digest.update(out[0] if out else b"<failed>")
                values.append(out[1] if out else None)
            bad = workload.failed_in_pass(items, values)
            self.failed += len(bad)
            self.errors += [f"pass {self.passes} item {i}: cross-item check failed"
                            for i in sorted(bad)]
            self.passes += 1
            # Stop where the run comes closest to `seconds` of whole passes.
            elapsed = perf_counter() - start
            if elapsed + elapsed / self.passes / 2 >= seconds:
                break
        self.meter.close()
        self.digest = digest.hexdigest()

    def _guard(self, item_id, fn, *args):
        """Run one item (or the canary); a raise or failed check counts as a
        failed item and the run goes on."""
        self.attempted += 1
        self.tracer.begin_item(item_id)
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"item {item_id}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            self.tracer.end_item()

    def corrected(self) -> list[float]:
        return [self.meter.corrected(iv) for iv in self.intervals]

    def raw(self) -> list[float]:
        return [raw for _, _, raw in self.intervals]

    def items_per_s(self) -> float:
        return len(self.intervals) / sum(self.corrected())

    def raw_items_per_s(self) -> float:
        return len(self.intervals) / sum(self.raw())


def per_layer(phase: Phase, untraced: Phase, generate_s: float) -> dict[str, float]:
    """Per-pass layer metrics from the traced phase's spans, plus diagnostics."""
    seconds, calls = phase.tracer.layer_totals()
    counters = phase.tracer.counters
    per_pass = 1.0 / phase.passes
    out = {"graphs.generate.s": generate_s}
    for name in LAYER_SPANS:
        out[f"{name}.s"] = seconds.get(name, 0.0) * per_pass
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = calls.get(name, 0) * per_pass
    for name in COUNTERS:
        out[name] = counters.get(name, 0) * per_pass
    wcs_calls = calls.get("matchers.worst_case_size", 0)
    out["matchers.worst_case_size.witness_used"] = (
        counters.get("matchers.worst_case_size.witness_read", 0) / wcs_calls if wcs_calls else 0.0)
    offered = counters.get("adversary.patterns_offered", 0)
    out["adversary.rounds_per_pattern"] = (
        counters.get("adversary.rounds", 0) / offered if offered else 0.0)
    tail_pct, tail_s = meter.tail(untraced.corrected())
    out.update({
        "host.ref_loop_ms": untraced.meter.ref_loop_ms(),
        "host.raw_items_per_s": untraced.raw_items_per_s(),
        "item.tail_ms": tail_s * 1e3,
        "item.tail_pct": tail_pct,
        "trace.overhead_frac": 1.0 - phase.items_per_s() / untraced.items_per_s(),
    })
    return out


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}


def git_rev() -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the library sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                    help="all: every workload in turn, each in its own process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: minimal sizes, for the smoke test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
                 for name in WORKLOADS]
        return max(codes)
    workload = WORKLOADS[args.workload]

    items, canary_text, setup_s, generate_s = setup(workload, args.seed, args.scale)
    if args.trace:
        untraced = Phase(workload, items, canary_text, args.seconds / 2, traced=False)
        phases = [untraced, Phase(workload, items, canary_text, args.seconds / 2, traced=True)]
    else:
        untraced = Phase(workload, items, canary_text, args.seconds, traced=False)
        phases = [untraced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    recorded = json.loads((BENCH / "digests.json").read_text())
    expected = recorded.get(args.scale, {}).get(args.workload)
    digest_ok = args.seed != DEFAULT_SEED or untraced.digest == expected
    if not digest_ok:
        errors.append(f"output digest {untraced.digest} differs from the recorded {expected}")

    end_to_end = {
        "setup_s": setup_s,
        "items_per_s": untraced.items_per_s(),
        "item_p50_ms": statistics.median(untraced.corrected()) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    units = load_units()
    if args.trace:
        values = per_layer(phases[1], untraced, generate_s)
    else:
        values = end_to_end
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    correct = failed == 0 and digest_ok

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "git_rev": git_rev(), "src_sha256": src_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "items_per_pass": len(items), "items_measured": len(untraced.intervals),
        "passes": untraced.passes, "digest": untraced.digest,
    }
    diagnostics = {
        "failed_frac": failed / attempted,
        "raw_items_per_s": untraced.raw_items_per_s(),
        "raw_item_p50_ms": statistics.median(untraced.raw()) * 1e3,
        "ref_loop_ms": untraced.meter.ref_loop_ms(),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        stem += f"-{args.scale}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
         "end_to_end": end_to_end, "diagnostics": diagnostics, "metrics": metrics,
         "errors": errors}, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as f:
            for span in phases[1].tracer.spans:
                f.write(json.dumps(span) + "\n")

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} N={len(items)} items/pass, "
          f"{len(untraced.intervals)} measured in {untraced.passes} passes")
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:14.6g} {v['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
