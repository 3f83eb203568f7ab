"""Seeded inputs, operations and correctness checks of the three benchmark workloads.

Every workload is a fixed list of operations (a "round") generated from the
seed.  run.py repeats whole rounds, so every round does identical work:
per-round counts repeat exactly, and accuracy is a function of the seed alone.

- cells_ndim: starred_measures cells on the three quadric normal forms,
  n = 1..6, checked against the closed forms in quadrix.quadrics.
- classify_mixed: classify on six 3-level families, checked against a
  ground-truth verdict table and, on the quadric families, the closed forms.
- cli_cold: fresh-process `quadrix verify`, `measures` and `classify` runs,
  each twice, checked for exit codes, byte identity and oracle agreement.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import quadrix
from quadrix import (
    ClassifyConfig,
    LevelFamily,
    PerturbedQuadratic,
    QuadraticForm,
    characterize,
    measure,
    parse_expression,
    point_on_level,
    starred_oracle,
)
from quadrix.characterize import DEFAULT_THRESHOLD, sample_points
from quadrix.quadrics import hyperboloid_lateral_area

HERE = Path(__file__).resolve().parent
SRC = Path(quadrix.__file__).resolve().parent.parent

NORMAL_FORMS = {
    "elliptic_hyperboloid": (2.0, "minus"),
    "ellipsoid": (2.0, "plus"),
    "elliptic_paraboloid": (1.0, "minus"),
}
# Cells per normal form and dimension in one round.  n = 3 carries half the
# cells, so that the median latency is a central quantile of n = 3 cells
# rather than the edge of a group or the gap between two dimensions' groups,
# both of which move with the seed.
CELLS_PER_FORM = {1: 1, 2: 1, 3: 5, 4: 1, 5: 1, 6: 1}
ERR_FLOOR = 1e-11  # relative floor on the actual error, as in quadrix.measure
CLASSIFY_LEVELS = (0.5, 1.0, 2.0)
CLASSIFY_POINTS = 3


def _family(kind: str, a) -> LevelFamily:
    alpha, sign = NORMAL_FORMS[kind]
    return LevelFamily(QuadraticForm(tuple(a)), alpha, sign)


def agrees(n: int, got: float, estimate: float | None, want: float) -> bool:
    """The oracle agreement that gates `correct`.

    For n <= 3 this is the repository's acceptance criterion 2: within
    max(3 x error estimate, 1%).  For n >= 4 only a positive finite value is
    required: the Halton sphere rule there misses by tens of percent and, at
    some base points, by a factor of two to four (ROADMAP item 2).  The
    accuracy metrics record that instead of gating on it.
    """
    if not 0.0 < got < float("inf"):
        return False
    if n >= 4:
        return True
    return abs(got - want) <= max(3.0 * (estimate or 0.0), 0.01 * abs(want))


def _verdict_table() -> dict:
    return {"checked": 0, "ok": 0, "misses": [], "threshold_inflation_max": 0.0,
            "cells": 0, "cell_errors": 0}


def _tally(table: dict, what: str, got: str, want: str) -> bool:
    """Count one verdict against its ground truth; record it when it misses."""
    table["checked"] += 1
    if got == want:
        table["ok"] += 1
        return True
    table["misses"].append(f"{what}: {got} (truth {want})")
    return False


class Accuracy:
    """Oracle comparisons of (value, error estimate) pairs, grouped by a label."""

    def __init__(self):
        # label, n, value, error estimate (None when the output carries none), oracle
        self.rows: list[tuple[str, int, float, float | None, float]] = []
        self.oracle_s = 0.0

    def add(self, label: str, n: int, value: float, estimate: float | None, oracle: float) -> None:
        self.rows.append((label, n, float(value), None if estimate is None else float(estimate),
                          float(oracle)))

    def summary(self, rows=None) -> dict:
        rows = self.rows if rows is None else rows
        if not rows:
            return {"checked": 0}
        rel = [abs(v - o) / abs(o) for _, _, v, _, o in rows]
        with_est = [(abs(v - o), e, abs(o)) for _, _, v, e, o in rows if e is not None]
        out = {"checked": len(rows), "max_rel_err": max(rel)}
        if with_est:
            err, est, val = (np.array(c) for c in zip(*with_est))
            actual = np.maximum(err, ERR_FLOOR * val)
            out["est_checked"] = len(with_est)
            out["est_bound_frac"] = float(np.mean(est >= err))
            out["est_loose_p50"] = float(np.median(est / actual))
        return out

    def high_n(self) -> dict:
        """Summary over n >= 4, where the sphere rule is known to be weak."""
        return self.summary([r for r in self.rows if r[1] >= 4])

    def by_label(self) -> dict:
        labels = sorted({r[0] for r in self.rows})
        return {lab: self.summary([r for r in self.rows if r[0] == lab]) for lab in labels}


def build(name: str, seed: int, workdir: Path):
    """The named workload with its inputs generated from the seed."""
    if name == "cells_ndim":
        return CellsNdim(seed)
    if name == "classify_mixed":
        return ClassifyMixed(seed)
    if name == "cli_cold":
        return CliCold(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# cells_ndim
# ---------------------------------------------------------------------------


class CellsNdim:
    """starred_measures(want=all three) on seeded cells of the quadric normal forms."""

    name = "cells_ndim"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.cells = []
        for n, per_form in CELLS_PER_FORM.items():
            for kind in NORMAL_FORMS:
                for _ in range(per_form):
                    self.cells.append(self._draw(rng, kind, n))
        self.items = list(range(len(self.cells)))

    @staticmethod
    def _draw(rng, kind: str, n: int) -> dict:
        a = rng.uniform(0.5, 2.0, n)
        k = float(rng.choice([0.5, 1.0, 2.0]))
        # boxes and offset ranges follow the engine's own classify defaults
        if kind == "ellipsoid":
            x = rng.uniform(-1.0, 1.0, n) * 0.8 * np.sqrt(k / n) / a
            h = -k * rng.uniform(0.25, 0.5)
        elif kind == "elliptic_paraboloid":
            x = rng.uniform(-2.0, 2.0, n)
            h = rng.uniform(0.1, 0.2)
        else:
            x = rng.uniform(-2.0, 2.0, n)
            h = k * rng.uniform(0.5, 1.0)
        family = _family(kind, a)
        return {"kind": kind, "n": n, "a": tuple(a), "k": k, "h": float(h), "x": x,
                "family": family, "point": point_on_level(family, k, x)}

    def label(self, item) -> str:
        return f"n={self.cells[item]['n']}"

    def run(self, item):
        c = self.cells[item]
        # looked up through the module so that traced runs see the wrapper
        sm = measure.starred_measures(c["family"], c["point"], c["h"])
        return (sm.volume.value, sm.volume.error_estimate, sm.area.value,
                sm.area.error_estimate, sm.lateral.value, sm.lateral.error_estimate)

    @staticmethod
    def digest(out):
        return out

    @staticmethod
    def failure(item, out, round_outputs) -> str | None:
        return None

    def evaluate(self, outputs: dict) -> tuple[Accuracy, list[str], None]:
        acc, problems = Accuracy(), []
        for item, out in outputs.items():
            c = self.cells[item]
            vol, vol_err, area, area_err, lat, lat_err = out
            t0 = time.perf_counter()
            want_v, want_a = starred_oracle(c["kind"], c["a"], c["k"], c["h"], c["point"].grad_norm)
            checks = [("volume", vol, vol_err, want_v), ("area", area, area_err, want_a)]
            # the lateral oracle integrates on the engine's own direction set
            # for n >= 4, so it is an independent check only up to n = 3
            if c["kind"] == "elliptic_hyperboloid" and c["n"] <= 3:
                want_s = hyperboloid_lateral_area(c["a"], c["k"], c["h"], c["x"])
                checks.append(("lateral", lat, lat_err, want_s))
            acc.oracle_s += time.perf_counter() - t0
            for what, got, est, want in checks:
                acc.add(f"n={c['n']}", c["n"], got, est, want)
                if not agrees(c["n"], got, est, want):
                    problems.append(f"cell {item} ({c['kind']} n={c['n']}) {what}: "
                                    f"{got!r} vs oracle {want!r}")
        return acc, problems, None


# ---------------------------------------------------------------------------
# classify_mixed
# ---------------------------------------------------------------------------


def _classify_families(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])

    def coefs(n):
        return tuple(float(v) for v in rng.uniform(0.7, 1.4, n))

    a3 = coefs(3)
    expr = " + ".join(f"{c * c!r}*x{i + 1}^2" for i, c in enumerate(a3)) + " + 0.3*(cosh(x1) - 1)"
    fams = [
        ("quadric_n2", "elliptic_paraboloid", _family("elliptic_paraboloid", coefs(2)), False),
        ("quadric_n3", "ellipsoid", _family("ellipsoid", coefs(3)), False),
        ("quadric_n4", "elliptic_hyperboloid", _family("elliptic_hyperboloid", coefs(4)), True),
        ("quartic_n3", None, LevelFamily(PerturbedQuadratic(coefs(3), 0.3, "quartic"), 2.0, "minus"), False),
        ("expression_n3", None, LevelFamily(parse_expression(expr, 3), 2.0, "minus"), False),
        # true Vstar/Astar spreads of this family (~0.02-0.2) lie between an
        # honest threshold and the one the n = 4 error estimate inflates to
        ("cosh_n4", None, LevelFamily(PerturbedQuadratic(coefs(4), 0.5, "cosh"), 2.0, "minus"), True),
    ]
    return [{"name": nm, "kind": kind, "family": fam, "n4": n4} for nm, kind, fam, n4 in fams]


class ClassifyMixed:
    """classify on 3-level configs with default offsets, on six families."""

    name = "classify_mixed"

    def __init__(self, seed: int):
        self.families = _classify_families(seed)
        self.config = ClassifyConfig(point_count=CLASSIFY_POINTS, seed=seed)
        self.items = list(range(len(self.families)))

    def label(self, item) -> str:
        return self.families[item]["name"]

    def run(self, item):
        return characterize.classify(self.families[item]["family"], CLASSIFY_LEVELS, self.config)

    @staticmethod
    def digest(out) -> str:
        return json.dumps(out.to_dict(), sort_keys=True)

    @staticmethod
    def failure(item, out, round_outputs) -> str | None:
        return None

    def evaluate(self, outputs: dict) -> tuple[Accuracy, list[str], dict]:
        acc, problems = Accuracy(), []
        table = _verdict_table()
        for item, result in outputs.items():
            fam = self.families[item]
            truth_report = "constant" if fam["kind"] else "non_constant"
            truth_final = fam["kind"] or "not_characterized"
            verdicts = [(f"k={r.level:g}/{r.condition}", r.verdict, truth_report) for r in result.evidence]
            verdicts.append(("final", result.verdict, truth_final))
            for what, got, want in verdicts:
                # the n = 4 condition reports miss or inflate at baseline
                # (ROADMAP item 2): they count in the table but do not gate
                if not _tally(table, f"{fam['name']} {what}", got, want) and (
                        not fam["n4"] or what == "final"):
                    problems.append(f"{fam['name']} {what}: verdict {got}, ground truth {want}")
            for rep in result.evidence:
                table["cell_errors"] += len(rep.errors)
                if rep.condition in ("Vstar", "Astar"):
                    table["threshold_inflation_max"] = max(
                        table["threshold_inflation_max"], rep.threshold / self.config.threshold)
                    if rep.condition == "Vstar":
                        table["cells"] += rep.values.size
                    if fam["kind"]:
                        self._oracle_check(acc, fam, rep, problems)
        return acc, problems, table

    @staticmethod
    def _oracle_check(acc: Accuracy, fam: dict, rep, problems: list[str]) -> None:
        family, k = fam["family"], rep.level
        for i, x in enumerate(rep.points):
            p = point_on_level(family, k, np.asarray(x))
            for j, h in enumerate(rep.offsets):
                t0 = time.perf_counter()
                want_v, want_a = starred_oracle(fam["kind"], family.f.a, k, h, p.grad_norm)
                acc.oracle_s += time.perf_counter() - t0
                want = want_v if rep.condition == "Vstar" else want_a / p.grad_norm
                got = rep.values[i, j]
                est = rep.value_errors[i, j] * abs(got)
                acc.add(fam["name"], family.n, got, est, want)
                if not agrees(family.n, got, est, want):
                    problems.append(f"{fam['name']} k={k:g} h={h:g} {rep.condition}: "
                                    f"{got!r} vs oracle {want!r}")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_A = (1.0, 1.5)
CLI_COMMANDS = ("verify", "measures", "classify")
RSS_TAG = "perfbench-peak-rss-kb="


def child_env() -> dict:
    """The environment for child processes: quadrix importable from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], stdout_path: Path, env: dict) -> tuple[int, float, float]:
    """Run a child to completion; return (exit code, wall seconds, peak RSS in MiB).

    The child reports its own peak RSS on its last stderr line (see child.py).
    """
    t0 = time.perf_counter()
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, env=env)
        try:
            _, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    wall = time.perf_counter() - t0
    rss = float("nan")
    for line in stderr.decode(errors="replace").splitlines()[::-1]:
        if line.startswith(RSS_TAG):
            rss = int(line[len(RSS_TAG):]) / 1024.0
            break
    return proc.returncode, wall, rss


class CliCold:
    """Fresh-process CLI runs on a small n = 2 config, each command twice in a round."""

    name = "cli_cold"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.trace_dir: Path | None = None  # set by run.py for traced rounds
        self.env = child_env()
        self.cfg = {
            "family": {"alpha": 2, "sign": "minus", "f": {"kind": "quadratic", "a": list(CLI_A)}},
            "levels": [0.5, 1.0, 2.0],
            "offsets": [0.5, 1.0],
            "points": {"count": 6, "seed": seed},
        }
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2))
        self.items = [(cmd, rep) for cmd in CLI_COMMANDS for rep in (0, 1)]
        self._runs = 0

    def label(self, item) -> str:
        return item[0]

    def run(self, item):
        cmd, rep = item
        stdout_path = self.workdir / f"{cmd}-{rep}.stdout"
        out_path = self.workdir / f"{cmd}-{rep}.out"
        args = [cmd]
        if cmd != "verify":
            args += ["--config", str(self.config_path), "--out", str(out_path)]
            out_path.unlink(missing_ok=True)
        child = [sys.executable, str(HERE / "child.py"), "cli"]
        if self.trace_dir is not None:
            self._runs += 1
            child += ["--trace-out", str(self.trace_dir / f"{self._runs:05d}-{cmd}.json")]
        code, wall, rss = run_child(child + ["--"] + args, stdout_path, self.env)
        produced = stdout_path if cmd == "verify" else out_path
        data = produced.read_bytes() if produced.exists() else b""
        return {"code": code, "wall_s": wall, "rss_mb": rss,
                "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
                "text": data.decode(errors="replace")}

    @staticmethod
    def digest(out) -> str:
        return out["sha256"]

    @staticmethod
    def failure(item, out, round_outputs) -> str | None:
        """Why a run failed: a nonzero exit code, or bytes that differ from its twin's."""
        if out["code"] != 0:
            return f"{item[0]} exited {out['code']}"
        twin = round_outputs.get((item[0], 0)) if item[1] == 1 else None
        if twin is not None and twin["sha256"] != out["sha256"]:
            return f"{item[0]} output bytes differ between two identical runs"
        return None

    def evaluate(self, outputs: dict) -> tuple[Accuracy, list[str], dict]:
        acc, problems = Accuracy(), []
        table = _verdict_table()
        texts = {cmd: outputs[(cmd, 0)]["text"] for cmd in CLI_COMMANDS
                 if (cmd, 0) in outputs and outputs[(cmd, 0)]["code"] == 0}
        if set(texts) != set(CLI_COMMANDS):
            problems.append(f"no successful run to check for {sorted(set(CLI_COMMANDS) - set(texts))}")
            return acc, problems, table
        if "OK: 0 failing checks" not in texts["verify"]:
            problems.append("verify did not report 'OK: 0 failing checks'")
        family = _family("elliptic_hyperboloid", CLI_A)
        t0 = time.perf_counter()
        self._check_measures(acc, family, texts["measures"], problems)
        self._check_classify(acc, table, family, texts["classify"], problems)
        acc.oracle_s += time.perf_counter() - t0
        return acc, problems, table

    def _check_measures(self, acc, family, text, problems) -> None:
        body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
        rows = list(csv.DictReader(io.StringIO(body)))
        expected = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in self.cfg["levels"]:
                pts = sample_points(family, k, self.cfg["points"]["count"], self.seed)
                expected += [(k, h, p) for h in self.cfg["offsets"] for p in pts]
        if len(rows) != len(expected):
            problems.append(f"measures wrote {len(rows)} rows, expected {len(expected)}")
            return
        for row, (k, h, p) in zip(rows, expected):
            if row["error"]:
                problems.append(f"measures row k={k} h={h}: {row['error']}")
                continue
            want_v, want_a = starred_oracle("elliptic_hyperboloid", CLI_A, k, h, p.grad_norm)
            want_s = hyperboloid_lateral_area(CLI_A, k, h, p.x)
            for col, want in (("Vstar", want_v), ("Astar", want_a), ("Sstar", want_s)):
                got = float(row[col])
                est = float(row[col + "_err"])
                acc.add("measures", 2, got, est, want)
                if not agrees(2, got, est, want):
                    problems.append(f"measures k={k} h={h} {col}: {got!r} vs oracle {want!r}")

    def _check_classify(self, acc, table, family, text, problems) -> None:
        doc = json.loads(text)["classification"]
        verdicts = [(f"k={r['level']:g}/{r['condition']}", r["verdict"], "constant")
                    for r in doc["evidence"]]
        verdicts.append(("final", doc["verdict"], "elliptic_hyperboloid"))
        for what, got, want in verdicts:
            if not _tally(table, f"cli {what}", got, want):
                problems.append(f"classify {what}: verdict {got}, ground truth {want}")
        for rep in doc["evidence"]:
            if rep["condition"] not in ("Vstar", "Astar"):
                continue
            table["threshold_inflation_max"] = max(table["threshold_inflation_max"],
                                                   rep["threshold"] / DEFAULT_THRESHOLD)
            if rep["condition"] == "Vstar":
                table["cells"] += len(rep["points"]) * len(rep["offsets"])
            k = rep["level"]
            for x, row in zip(rep["points"], rep["values"]):
                p = point_on_level(family, k, np.asarray(x))
                for h, got in zip(rep["offsets"], row):
                    want_v, want_a = starred_oracle("elliptic_hyperboloid", CLI_A, k, h, p.grad_norm)
                    want = want_v if rep["condition"] == "Vstar" else want_a / p.grad_norm
                    # the classify JSON carries no per-cell error estimate
                    acc.add("classify", 2, got, None, want)
                    if not agrees(2, got, None, want):
                        problems.append(f"classify k={k} h={h} {rep['condition']}: "
                                        f"{got!r} vs oracle {want!r}")
