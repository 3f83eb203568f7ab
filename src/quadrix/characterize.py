"""Empirical constancy tests and classification of level-set families.

For a family g = z^alpha -/+ f and a level k, the starred cap measures are
evaluated over a sampled set of surface points and a grid of level
offsets.  Point-independence of the normalized measures (and of the
curvature invariant) is what characterizes the three quadric families, so
the per-offset relative spread across points is the deciding statistic.

Verdicts are empirical: finite sampling can support or falsify constancy
on the sampled set, never prove it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._grids import halton
from .errors import QuadrixError
from .measure import CapMeasures, QuadratureSettings, _warn_targets, starred_cells
from .quadrics import QUADRIC_KINDS
from .surface import LevelFamily, SurfacePoint, _lifts, curvature_invariant

__all__ = [
    "ConstancyReport",
    "Classification",
    "ClassifyConfig",
    "sample_points",
    "evaluate_cells",
    "check_condition",
    "check_invariant_constancy",
    "classify",
]

DEFAULT_BOX = (-2.0, 2.0)
DEFAULT_THRESHOLD = 1e-3


@dataclass
class ConstancyReport:
    """Per-condition value matrix over sampled points and offsets, with a verdict.

    values[i][j] is the normalized quantity at point i and offset j (a
    single column for the offset-free conditions); spreads[j] is the
    relative spread (max - min) / mean down column j.
    """

    condition: str
    level: float | None
    offsets: list[float]
    points: list[list[float]]
    values: np.ndarray
    value_errors: np.ndarray
    spreads: list[float]
    verdict: str
    threshold: float
    errors: list[str] = field(default_factory=list)
    matched_constant: float | None = None

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "level": self.level,
            "offsets": list(self.offsets),
            "points": [list(map(float, p)) for p in self.points],
            "values": [[_jsonable(v) for v in row] for row in self.values.tolist()],
            "spreads": [_jsonable(s) for s in self.spreads],
            "verdict": self.verdict,
            "threshold": self.threshold,
            "errors": list(self.errors),
            "matched_constant": self.matched_constant,
        }


def _jsonable(v: float):
    return None if v is None or not np.isfinite(v) else float(v)


def _verdict(spreads, threshold: float) -> str:
    finite = [s for s in spreads if np.isfinite(s)]
    if not finite:
        return "inconclusive"
    if all(s <= threshold for s in finite):
        return "constant"
    if any(s > 3.0 * threshold for s in finite):
        return "non_constant"
    return "inconclusive"


def _column_spread(col: np.ndarray) -> float:
    valid = col[np.isfinite(col)]
    if valid.size < 2:
        return np.nan
    mean = float(np.mean(valid))
    if mean == 0.0:
        return np.inf
    return float((np.max(valid) - np.min(valid)) / abs(mean))


def _median(a: np.ndarray) -> float:
    """np.median of a nonempty 1-d array, bit for bit, without loading numpy.ma."""
    s = np.sort(a)
    m = s.size // 2
    return float(s[m] if s.size % 2 else 0.5 * (s[m - 1] + s[m]))


def _normalize_box(box, n: int) -> list[tuple[float, float]]:
    if box is None:
        box = DEFAULT_BOX
    box = list(box)
    if len(box) == 2 and np.isscalar(box[0]):
        box = [tuple(box)] * n
    if len(box) != n:
        raise ValueError(f"box must have {n} coordinate ranges")
    out = []
    for lo, hi in box:
        if not lo < hi:
            raise ValueError("box ranges must be increasing")
        out.append((float(lo), float(hi)))
    return out


def sample_coordinates(n: int, count: int, seed: int, box=None) -> np.ndarray:
    """Seeded low-discrepancy base coordinates in the box, shape (count, n)."""
    ranges = _normalize_box(box, n)
    raw = halton(n, count, seed)
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    return lo + raw * (hi - lo)


def sample_points(
    family: LevelFamily,
    k: float,
    count: int,
    seed: int,
    box=None,
) -> list[SurfacePoint]:
    """Lift a seeded low-discrepancy sample of base coordinates onto M_k.

    Draws count candidates from a scrambled Halton set in the box
    (default [-2, 2]^n); candidates with no admissible z > 0 branch or a
    failed convexity certificate are skipped with a warning.  Fewer than
    two admissible points is an error.
    """
    (draw,) = _draws(family, [k], count, seed, [box])
    return draw.admit()


class _Draw(NamedTuple):
    """One level's lifted sample: its admissible points, and the warnings
    sample_points gives for it, in order."""

    k: float
    points: list[SurfacePoint]
    notes: list[str]

    def admit(self) -> list[SurfacePoint]:
        """The points, once the notes are warned; QuadrixError for fewer than
        two.  Each warning names the line that called the caller."""
        for note in self.notes:
            warnings.warn(note, stacklevel=3)
        if len(self.points) < 2:
            raise QuadrixError(f"fewer than 2 admissible points at level k={self.k}")
        return self.points


def _draws(family: LevelFamily, ks: list[float], count: int, seed: int, boxes: list) -> list[_Draw]:
    """sample_points' sample at every level ks[i] in boxes[i], the points of
    all levels lifted as one batch (surface._lifts); nothing warns yet."""
    if count < 2:
        raise ValueError("count must be at least 2")
    xs = [sample_coordinates(family.n, count, seed, box) for box in boxes]
    lifts = _lifts(family, [k for k in ks for _ in range(count)], np.concatenate(xs))
    draws = []
    for i, (k, x) in enumerate(zip(ks, xs)):
        points: list[SurfacePoint] = []
        notes: list[str] = []
        for xi, p in zip(x, lifts[i * count:(i + 1) * count]):
            if isinstance(p, QuadrixError):
                continue
            if p.f_jet.value < 0:
                notes.append(f"f({xi.tolist()}) = {p.f_jet.value:.6g} < 0: nonnegativity hypothesis fails")
            points.append(p)
        if len(points) < count:
            notes.append(f"skipped {count - len(points)} of {count} sampled points off the admissible set")
        draws.append(_Draw(k, points, notes))
    return draws


def evaluate_cells(
    family: LevelFamily,
    points: list[SurfacePoint],
    offsets,
    settings: QuadratureSettings | None = None,
    want: tuple[str, ...] = ("area", "volume", "lateral"),
) -> list[list[CapMeasures | str]]:
    """starred_measures on every (point, offset) cell, all cells solved together.

    The points may lie on any levels.  Returns a points x offsets table;
    entry [i][j] is the CapMeasures of point i at offset j, or the message
    of the QuadrixError it raised.  One measure.starred_cells pass solves
    every cell once, and each cell gets the bits and the message its own
    starred_measures call gets; the cells warn in table order.
    """
    offsets = list(offsets)
    cells = starred_cells(family, [(p, h) for p in points for h in offsets], settings, want)
    _warn_targets(cells)
    return _table(cells, len(points), len(offsets))


def _table(cells: list, rows: int, width: int) -> list[list[CapMeasures | str]]:
    """The cells as a rows x width table, each failed cell as its message."""
    cells = [cell if isinstance(cell, CapMeasures) else str(cell) for cell in cells]
    return [cells[i * width:(i + 1) * width] for i in range(rows)]


_MEASURE_OF = {"Vstar": "volume", "Astar": "area", "Sstar": "lateral"}


def _report(condition, k, offsets, points, values, rel_errors, errors, threshold) -> ConstancyReport:
    """The one ConstancyReport builder: spread per column, threshold, verdict.

    The threshold is raised to 5 x the median finite relative error, so
    quadrature noise cannot read as a non-constant spread.  An offset-free
    report that comes out constant records its mean as matched_constant.
    """
    finite_err = rel_errors[np.isfinite(rel_errors)]
    if finite_err.size:
        threshold = max(threshold, 5.0 * _median(finite_err))
    spreads = [_column_spread(values[:, j]) for j in range(values.shape[1])]
    verdict = _verdict(spreads, threshold)
    matched = float(np.nanmean(values)) if verdict == "constant" and not offsets else None
    return ConstancyReport(condition, k, offsets, [p.x.tolist() for p in points], values,
                           rel_errors, spreads, verdict, threshold, errors, matched)


def _starred_report(condition, k, offsets, points, cells, threshold) -> ConstancyReport:
    """ConstancyReport of one starred condition, read off an evaluate_cells table."""
    measure_of = _MEASURE_OF[condition]
    values = np.full((len(points), len(offsets)), np.nan)
    errors_rel = np.full_like(values, np.nan)
    cell_errors: list[str] = []
    for i, row in enumerate(cells):
        for j, cell in enumerate(row):
            if isinstance(cell, str):
                cell_errors.append(f"point {i}, h={offsets[j]:.6g}: {cell}")
                continue
            res = getattr(cell, measure_of)
            norm = 1.0 if condition == "Vstar" else points[i].grad_norm
            values[i, j] = res.value / norm
            errors_rel[i, j] = res.error_estimate / abs(res.value) if res.value else np.inf

    for j, h in enumerate(offsets):
        if np.sum(np.isfinite(values[:, j])) < 2:
            raise QuadrixError(
                f"fewer than 2 points survived at h={h:.6g}: " + "; ".join(cell_errors)
            )
    return _report(condition, k, offsets, points, values, errors_rel, cell_errors, threshold)


def check_condition(
    family: LevelFamily,
    k: float,
    condition: str,
    h_grid,
    points: list[SurfacePoint],
    settings: QuadratureSettings | None = None,
) -> ConstancyReport:
    """Constancy report for one of the starred conditions over points x offsets.

    The cap volume is compared raw; section and lateral areas are divided
    by |grad g(p)| first.  The decision threshold is inflated by quadrature
    error: max(DEFAULT_THRESHOLD, 5 * median relative error estimate).
    """
    if condition not in _MEASURE_OF:
        raise ValueError(f"condition must be a starred condition, got {condition!r}")
    h_grid = [float(h) for h in h_grid]
    if not h_grid:
        raise ValueError("h_grid must be nonempty")
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    cells = evaluate_cells(family, points, h_grid, settings, want=(_MEASURE_OF[condition],))
    return _starred_report(condition, k, h_grid, points, cells, DEFAULT_THRESHOLD)


def check_invariant_constancy(
    family: LevelFamily,
    k: float,
    points: list[SurfacePoint],
    threshold: float = DEFAULT_THRESHOLD,
) -> ConstancyReport:
    """Constancy of K |grad g|^{n+2} over the sampled points of M_k.

    The invariant has no quadrature error, so the threshold is used as given.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    values = np.full((len(points), 1), np.nan)
    cell_errors: list[str] = []
    for i, p in enumerate(points):
        try:
            values[i, 0] = curvature_invariant(family, p)
        except QuadrixError as exc:
            cell_errors.append(f"point {i}: {exc}")
    return _report("curvature_invariant", k, [], points, values, np.zeros_like(values),
                   cell_errors, threshold)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyConfig:
    point_count: int = 6
    box: tuple | None = None
    seed: int = 123456789
    offsets: tuple[float, ...] | None = None  # None: relative defaults per family
    threshold: float = DEFAULT_THRESHOLD
    settings: QuadratureSettings = field(default_factory=QuadratureSettings)


@dataclass
class Classification:
    """Outcome of the decision table over the collected constancy evidence.

    blocked_by_errors distinguishes "not characterized because some
    condition was falsified" (a clean negative) from "not characterized
    because cells errored or stayed inconclusive".
    """

    verdict: str  # elliptic_paraboloid | ellipsoid | elliptic_hyperboloid | not_characterized
    evidence: list[ConstancyReport]
    matched_constant: dict[float, float]
    reasons: list[str]
    blocked_by_errors: bool

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "matched_constant": {repr(k): v for k, v in self.matched_constant.items()},
            "reasons": list(self.reasons),
            "blocked_by_errors": self.blocked_by_errors,
            "evidence": [r.to_dict() for r in self.evidence],
        }


def _normal_form_kind(family: LevelFamily) -> str | None:
    return {form: kind for kind, form in QUADRIC_KINDS.items()}.get((family.alpha, family.sign))


def default_box(family: LevelFamily, k: float):
    """Sampling box for classify: [-2, 2]^n except for bounded plus-sign families.

    For g = z^alpha + f the admissible set {f < k} shrinks with k, so the
    box is scaled into it using the quadratic coefficients when available.
    At k <= 0 there is no box to scale: {f < k} is empty, and sampling
    in the default box finds no point.
    """
    if family.sign != "plus":
        return None  # sample_points default [-2, 2]^n
    f = family.f
    a = getattr(f, "a", None)
    if a is None or not k > 0:
        return None
    half = 0.8 * np.sqrt(k / family.n) / np.asarray(a, dtype=float)
    return [(-hw, hw) for hw in half]


def default_offsets(family: LevelFamily, k: float) -> list[float]:
    """Offsets well inside the admissible interval, with the family's sign.

    alpha = 2 families scale with k.  For alpha = 1 the chart-validity
    margin is set by the coefficients of f rather than by k, so the
    defaults are small absolute offsets.
    """
    if family.sign == "plus":
        return [-0.25 * k, -0.5 * k]
    if family.alpha == 1.0:
        return [0.1, 0.2]
    return [0.5 * k, 1.0 * k]


def classify(family: LevelFamily, k_list, config: ClassifyConfig | None = None) -> Classification:
    """Run the constancy checks per level and apply the decision table.

    A positive verdict needs the curvature invariant and both starred
    conditions (cap volume, normalized section area) constant at every
    level, together with the matching normal form (alpha, sign).  The
    normalized lateral area is never used as positive evidence.

    The sampled points of all levels are lifted as one batch, and the
    (point, offset) cells of all levels, each level with its own offsets,
    are one measure.starred_cells pass: every cell is solved once, both
    starred reports of a level read it, and a failed cell counts against
    both.  Warnings come level by level, each level's sampling warnings
    before its cells' warnings.
    """
    config = config or ClassifyConfig()
    k_list = [float(k) for k in k_list]
    if not k_list:
        raise ValueError("need at least one level")
    boxes = [config.box if config.box is not None else default_box(family, k) for k in k_list]
    draws = _draws(family, k_list, config.point_count, config.seed, boxes)
    offsets = [[float(h) for h in (config.offsets or default_offsets(family, k))] for k in k_list]
    cells = starred_cells(family, [(p, h) for draw, hs in zip(draws, offsets)
                                   if len(draw.points) >= 2  # admit() raises for the others
                                   for p in draw.points for h in hs],
                          config.settings, want=("volume", "area"))

    evidence: list[ConstancyReport] = []
    matched: dict[float, float] = {}
    reasons: list[str] = []
    had_errors = False
    at = 0
    for draw, hs in zip(draws, offsets):
        k = draw.k
        try:
            points = draw.admit()
        except QuadrixError as exc:
            reasons.append(f"k={k:.6g}: sampling failed: {exc}")
            had_errors = True
            continue
        inv = check_invariant_constancy(family, k, points, config.threshold)
        evidence.append(inv)
        if inv.matched_constant is not None:
            matched[k] = inv.matched_constant
        level, at = cells[at:at + len(points) * len(hs)], at + len(points) * len(hs)
        _warn_targets(level)
        table = _table(level, len(points), len(hs))
        for condition in ("Vstar", "Astar"):
            try:
                rep = _starred_report(condition, k, hs, points, table, config.threshold)
            except QuadrixError as exc:
                reasons.append(f"k={k:.6g} {condition}: {exc}")
                had_errors = True
                continue
            evidence.append(rep)
            if rep.errors:
                had_errors = True

    if not evidence:
        return Classification("not_characterized", evidence, matched, reasons, True)

    kind = _normal_form_kind(family)
    falsified = any(r.verdict == "non_constant" for r in evidence)
    undecided = any(r.verdict == "inconclusive" for r in evidence) or had_errors
    if falsified:
        reasons.append("some condition is non-constant on the sampled set")
        verdict = "not_characterized"
    elif undecided:
        reasons.append("inconclusive or failed cells prevent a positive verdict")
        verdict = "not_characterized"
    elif kind is None:
        reasons.append(f"alpha={family.alpha:g}, sign={family.sign}: no matching normal form")
        verdict = "not_characterized"
    else:
        verdict = kind
    blocked = verdict == "not_characterized" and not falsified and undecided
    return Classification(verdict, evidence, matched, reasons, blocked)
