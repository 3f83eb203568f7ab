"""quadrix benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cells_ndim --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; quadrix is imported from ./src.
One client drives a closed loop: it repeats whole rounds of the workload's
operations (see workloads.py) for about --seconds.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 half the time runs
untraced and half traced, and it carries the per-layer metrics.  A full
record (environment, per-group latencies, accuracy per n and per family,
verdict misses) goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cells_ndim", "classify_mixed", "cli_cold")
SETUP_REPEATS = 3


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "quadrix").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def measure_setup(name: str, seed: int, env: dict) -> list[float]:
    """Wall seconds of fresh processes that import quadrix and build the inputs."""
    walls = []
    for _ in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", name, str(seed), workdir],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, timeout=120)
            walls.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return walls


class Phase:
    """Whole rounds of a workload: latencies, failures, first-round outputs.

    `digests` is shared between the phases of one run, so an output that
    changes between rounds, or under tracing, makes the run incorrect.
    """

    def __init__(self, wl, seconds: float, error_type, min_rounds: int, digests: dict):
        self.latencies: list[tuple[str, float]] = []
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.first: dict = {}
        self.rss_mb: list[float] = []
        self.round_walls: list[float] = []
        self.target_warnings = 0
        target = min_rounds
        t_start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            while len(self.round_walls) < target:
                t_round = time.perf_counter()
                outs = {}
                for item in wl.items:
                    t0 = time.perf_counter()
                    try:
                        outs[item] = wl.run(item)
                    except error_type as exc:
                        self.failures.append(f"{wl.label(item)}: {exc}")
                    self.latencies.append((wl.label(item), time.perf_counter() - t0))
                for item, out in outs.items():
                    why = wl.failure(item, out, outs)
                    if why:
                        self.failures.append(why)
                    if isinstance(out, dict) and "rss_mb" in out:
                        self.rss_mb.append(out["rss_mb"])
                    digest = wl.digest(out)
                    if digests.setdefault(item, digest) != digest:
                        self.problems.append(f"{wl.label(item)}: output changed between rounds")
                    self.first.setdefault(item, out)
                self.target_warnings += sum("exceeds the target" in str(w.message) for w in caught)
                caught.clear()
                self.round_walls.append(time.perf_counter() - t_round)
                target = max(min_rounds, round(seconds / self.round_walls[0]))
        self.elapsed = time.perf_counter() - t_start

    @property
    def rounds(self) -> int:
        return len(self.round_walls)

    @property
    def round_s(self) -> float:
        """Median wall time of a round: robust to a slow spell of the machine."""
        return _median(self.round_walls)

    def latency_summary(self) -> dict:
        ms = sorted(1e3 * s for _, s in self.latencies)
        groups = {}
        for label, s in self.latencies:
            groups.setdefault(label, []).append(1e3 * s)
        p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else ms[-1]
        return {
            "samples": len(ms),
            "op_p50_ms": _median(ms),
            "op_p90_ms": p90,
            "samples_beyond_p90": sum(1 for v in ms if v > p90),
            "per_group_p50_ms": {k: _median(v) for k, v in groups.items()},
            "per_group_samples": {k: len(v) for k, v in groups.items()},
        }


def per_layer_metrics(wl, traced: Phase, untraced: Phase, totals: dict, table, acc,
                      cli_extra: dict) -> dict:
    rounds = traced.rounds

    def get(name, key):
        return totals.get(name, {}).get(key, 0) / rounds

    m = {}
    for solver in ("height", "boundary_radius"):
        name = f"surface.LocalChart.{solver}"
        for key in ("calls", "lanes", "self_s"):
            m[f"{name}.{key}"] = get(name, key)
        lanes = totals.get(name, {}).get("lanes", 0)
        m[f"{name}.evals_per_lane"] = totals[name]["eval_lanes"] / lanes if lanes else 0.0
    m["surface.parallel_tangent.calls"] = get("surface.parallel_tangent", "calls")
    m["surface.parallel_tangent.self_s"] = get("surface.parallel_tangent", "self_s")
    m["surface.parallel_tangent.newton_iters"] = get("surface.parallel_tangent", "newton_iters")
    # distinct (point, offset) cells per round: one per operation in cells_ndim
    cells = table["cells"] if table else len(wl.items)
    m["characterize.tangent_solves_per_cell"] = cli_extra.get(
        "tangent_solves_per_cell", get("surface.parallel_tangent", "calls") / cells)
    m["surface.point_on_level.calls"] = get("surface.point_on_level", "calls")
    m["surface.point_on_level.self_s"] = get("surface.point_on_level", "self_s")
    m["surface.LocalChart.init.calls"] = get("surface.LocalChart.init", "calls")
    for key in ("calls", "lanes", "self_s"):
        m[f"funcspec.eval_value_grad.{key}"] = get("funcspec.eval_value_grad", key)
    m["funcspec.eval_jet2.calls"] = get("funcspec.eval_jet2", "calls")
    m["funcspec.eval_jet2.self_s"] = get("funcspec.eval_jet2", "self_s")
    # metric names must start with a letter, so the _grids module reports as grids
    m["grids.sphere_directions.calls"] = get("_grids.sphere_directions", "calls")
    m["grids.sphere_directions.self_s"] = get("_grids.sphere_directions", "self_s")
    m["grids.radial_nodes.calls"] = get("_grids.radial_nodes", "calls")
    for key in ("calls", "self_s", "failed"):
        m[f"measure.starred_measures.{key}"] = get("measure.starred_measures", key)
    m["measure.target_warnings"] = cli_extra.get("target_warnings", traced.target_warnings) / rounds
    for fn in ("sample_points", "check_condition", "check_invariant_constancy"):
        m[f"characterize.{fn}.self_s"] = get(f"characterize.{fn}", "self_s")
    m["characterize.threshold_inflation_max"] = table["threshold_inflation_max"] if table else 0.0
    m["characterize.verdict_ok_frac"] = table["ok"] / table["checked"] if table and table["checked"] else 0.0
    summary, high_n = acc.summary(), acc.high_n()
    m["measure.max_rel_err"] = summary.get("max_rel_err", 0.0)
    m["measure.est_loose_p50"] = summary.get("est_loose_p50", 0.0)
    m["measure.max_rel_err.n4plus"] = high_n.get("max_rel_err", 0.0)
    m["measure.est_loose_p50.n4plus"] = high_n.get("est_loose_p50", 0.0)
    m["quadrics.oracle_s"] = acc.oracle_s
    m["cli.import_s"] = cli_extra.get("import_s", 0.0)
    m["cli.verify_s"] = cli_extra.get("verify_s", 0.0)
    m["cli.output_bytes"] = cli_extra.get("output_bytes", 0)
    m["trace.overhead_frac"] = traced.round_s / untraced.round_s - 1.0
    return m


def cli_trace_extra(wl, trace_dir: Path, traced: Phase, untraced: Phase, table, tracer) -> tuple[dict, dict]:
    """Fold the span files the traced CLI children wrote into totals and CLI metrics."""
    parts, classify_parts, imports, warns = [], [], [], 0
    for path in sorted(trace_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        tot = tracer.span_totals([tuple(s) for s in doc["spans"]])
        parts.append(tot)
        if path.stem.endswith("-classify"):
            classify_parts.append(tot)
        imports.append(doc["import_s"])
        warns += doc["target_warnings"]
    classify_tangents = tracer.merge_totals(classify_parts).get("surface.parallel_tangent", {}).get("calls", 0)
    classify_runs = sum(1 for item in wl.items if item[0] == "classify") * traced.rounds
    cells = table["cells"] * classify_runs if table else 0
    verify_walls = [s for label, s in untraced.latencies if label == "verify"]
    extra = {
        "tangent_solves_per_cell": classify_tangents / cells if cells else 0.0,
        "target_warnings": warns,
        "import_s": _median(imports),
        "verify_s": _median(verify_walls),
        "output_bytes": sum(out["bytes"] for out in untraced.first.values()),
    }
    return tracer.merge_totals(parts), extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadrix" / "__init__.py").is_file():
        print(f"error: no quadrix sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads
    from quadrix import QuadrixError

    env = environment()
    setup_walls = measure_setup(args.workload, args.seed, workloads.child_env())
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        digests: dict = {}
        if args.trace:
            untraced = Phase(wl, args.seconds / 2, QuadrixError, 1, digests)
            rec = tracer.Recorder()
            trace_dir = workdir / "spans"
            trace_dir.mkdir()
            if args.workload == "cli_cold":
                wl.trace_dir = trace_dir
            else:
                rec.install()
            try:
                traced = Phase(wl, args.seconds / 2, QuadrixError, 1, digests)
            finally:
                rec.uninstall()
            main_phase, phases = untraced, (untraced, traced)
        else:
            # at least two rounds, so that every run checks that outputs repeat
            main_phase = Phase(wl, args.seconds, QuadrixError, 2, digests)
            phases = (main_phase,)
        peak_rss_mb = (max(main_phase.rss_mb) if main_phase.rss_mb
                       else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        acc, problems, table = wl.evaluate(main_phase.first)
        problems = [p for ph in phases for p in ph.problems] + problems
        summary = acc.summary()
        lat = main_phase.latency_summary()

        if args.trace:
            if args.workload == "cli_cold":
                totals, extra = cli_trace_extra(wl, trace_dir, traced, untraced, table, tracer)
            else:
                totals, extra = tracer.span_totals(rec.spans), {}
                with open(OUT / f"{args.workload}-seed{args.seed}.spans.json", "w", encoding="utf-8") as fh:
                    json.dump(rec.spans, fh)
            metrics = per_layer_metrics(wl, traced, untraced, totals, table, acc, extra)
        else:
            metrics = {
                "setup_s": _median(setup_walls),
                "ops_per_s": len(wl.items) / main_phase.round_s,
                "op_p50_ms": lat["op_p50_ms"],
                "peak_rss_mb": peak_rss_mb,
                "est_bound_frac": summary["est_bound_frac"],
            }
        attempted = sum(len(ph.latencies) for ph in phases)
        failures = [f for ph in phases for f in ph.failures]
        failed = len(failures)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": env,
            "setup_walls_s": setup_walls,
            "rounds": main_phase.rounds,
            "round_walls_s": main_phase.round_walls,
            "elapsed_s": main_phase.elapsed,
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "failures": failures[:50],
            "latency": lat,
            "accuracy": summary,
            "accuracy_n4plus": acc.high_n(),
            "accuracy_by_group": acc.by_label(),
            "verdicts": table,
            "verdict_ok_frac": table["ok"] / table["checked"] if table and table["checked"] else None,
            "problems": problems[:50],
            "metrics": metrics,
        }
        with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=float)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_human(record)
    # BENCHMARK.json names the metrics of each mode and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


def _print_human(rec: dict) -> None:
    lat, acc = rec["latency"], rec["accuracy"]
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} rounds={rec['rounds']} "
          f"elapsed={rec['elapsed_s']:.2f}s attempted={rec['attempted']} failed={rec['failed']}")
    print(f"# env {json.dumps(rec['environment'], sort_keys=True)}")
    print(f"# setup walls s: {', '.join(f'{w:.3f}' for w in rec['setup_walls_s'])}")
    print(f"# latency p50 {lat['op_p50_ms']:.1f} ms, p90 {lat['op_p90_ms']:.1f} ms "
          f"({lat['samples']} samples, {lat['samples_beyond_p90']} beyond p90)")
    for label, p50 in lat["per_group_p50_ms"].items():
        group_acc = rec["accuracy_by_group"].get(label, {})
        extra = "".join(f" {k}={v:.3g}" for k, v in group_acc.items() if k != "checked")
        print(f"#   {label:>14}: p50 {p50:9.1f} ms  x{lat['per_group_samples'][label]}{extra}")
    for label, group_acc in rec["accuracy_by_group"].items():
        if label not in lat["per_group_p50_ms"]:
            print(f"#   {label:>14}:" + "".join(f" {k}={v:.3g}" for k, v in group_acc.items()))
    print("# accuracy " + " ".join(f"{k}={v:.4g}" for k, v in acc.items()))
    print("# accuracy n>=4 " + " ".join(f"{k}={v:.4g}" for k, v in rec["accuracy_n4plus"].items()))
    if rec["verdicts"]:
        t = rec["verdicts"]
        print(f"# verdicts ok {t['ok']}/{t['checked']}, threshold inflation max "
              f"{t['threshold_inflation_max']:.4g}x, cell errors {t['cell_errors']}")
        for miss in t["misses"]:
            print(f"#   miss: {miss}")
    for line in rec["problems"] + rec["failures"]:
        print(f"# PROBLEM: {line}")


if __name__ == "__main__":
    sys.exit(main())
