"""Command-line front end.

Subcommands: curvature | measures | classify | verify | sweep, all driven
by a single flat JSON config (see README for the schema).  Outputs are CSV
or JSON with the tool version, config hash and seed embedded, decimal
points and 17 significant digits (error estimates 3, rounded up), and no
timestamps, so identical config plus seed reproduces identical bytes.
Every command but verify writes its output only once all of it is
computed, so a run that fails leaves no partial file.  Each warning is
one `warning: ...` line on stderr.

Exit codes: 0 success (including clean negative classifications),
1 config error, verify-suite failure, every measures or sweep row failing
or any other error (an unwritable output path, too few admissible points),
2 convexity-certificate failure in `curvature`, 3 classification blocked.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__, verify
from .characterize import (
    DEFAULT_THRESHOLD,
    Classification,
    ClassifyConfig,
    _normalize_box,
    classify,
    evaluate_cells,
    sample_coordinates,
    sample_points,
)
from .errors import BranchError, ConfigError, ConvexityError, ParseError, QuadrixError
from .funcspec import PerturbedQuadratic, QuadraticForm, parse_expression
from .measure import QuadratureSettings
from .surface import LevelFamily, curvature_invariant, gauss_kronecker, point_on_level

SCHEMA_VERSION = 1


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def _fmt_err(x) -> str:
    """An error estimate to 3 significant digits, rounded up: never printed below its value."""
    if x is None or not 0 < float(x) < float("inf"):
        return _fmt(x)
    text = format(float(x), ".2e")  # to nearest
    if float(text) < float(x):  # one unit up in the third digit
        digits, exponent = text.split("e")
        text = f"{int(digits.replace('.', '')) + 1}e{int(exponent) - 2}"
    return format(float(text), ".3g")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _build_family(cfg: dict) -> LevelFamily:
    try:
        fam = cfg["family"]
        (alpha,) = _numbers("family.alpha", [fam["alpha"]])
        sign = fam.get("sign", "minus")
        fspec = fam["f"]
        kind = fspec["kind"]
        if kind == "quadratic":
            f = QuadraticForm(tuple(_numbers("family.f.a", fspec["a"])))
        elif kind == "perturbed_quadratic":
            (epsilon,) = _numbers("family.f.epsilon", [fspec.get("epsilon", 0.0)])
            f = PerturbedQuadratic(tuple(_numbers("family.f.a", fspec["a"])), epsilon,
                                   fspec.get("perturbation", "quartic"))
        elif kind == "expression":
            (n,) = _numbers("family.f.n", [fspec["n"]], integer=True)
            f = parse_expression(fspec["source"], n)
        else:
            raise ConfigError(f"bad family config: unknown function kind {kind!r}")
        return LevelFamily(f=f, alpha=alpha, sign=sign)
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise ConfigError(f"bad family config: {exc}") from exc


_QUADRATURE_KEYS = ("order",)


def _section(cfg: dict, key: str) -> dict:
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"bad {key} config: must be a JSON object")
    return section


def _numbers(key: str, values, length: int | None = None, integer: bool = False) -> list:
    """A JSON list of finite numbers, of the given length if one is given, as floats.

    With integer the numbers must be JSON integers, kept as ints.  Bools, NaN
    and infinities are no numbers here.
    """
    if not isinstance(values, list) or length not in (None, len(values)):
        raise ConfigError(f"bad {key}: need a list of {'' if length is None else f'{length} '}numbers, "
                          f"got {values!r}")
    for v in values:
        if (isinstance(v, bool) or not isinstance(v, int if integer else (int, float))
                or not -sys.float_info.max <= v <= sys.float_info.max):
            raise ConfigError(f"bad {key}: need {'an integer' if integer else 'a finite number'}, got {v!r}")
    return values if integer else [float(v) for v in values]


def _build_settings(cfg: dict, seed_override: int | None) -> tuple[QuadratureSettings, int]:
    """The quadrature settings and the points seed, which --seed overrides."""
    q, pts = _section(cfg, "quadrature"), _section(cfg, "points")
    seed = seed_override
    if seed is None:
        (seed,) = _numbers("points.seed", [pts.get("seed", 123456789)], integer=True)
    if seed < 0:
        key = "--seed" if seed_override is not None else "points.seed"
        raise ConfigError(f"bad {key}: need a non-negative integer, got {seed}")
    unknown = sorted(set(q) - set(_QUADRATURE_KEYS))
    if unknown:
        raise ConfigError(f"bad quadrature config: unknown keys {unknown}; "
                          f"known keys are {list(_QUADRATURE_KEYS)}")
    try:
        return QuadratureSettings(order=q.get("order")), seed
    except ValueError as exc:
        raise ConfigError(f"bad quadrature config: {exc}") from exc


@dataclass(frozen=True)
class _Run:
    """A subcommand's config with every key parsed and checked up front."""

    cfg: dict
    family: LevelFamily
    settings: QuadratureSettings
    seed: int
    levels: list[float]
    offsets: list[float] | None
    count: int
    box: object
    threshold: float
    sweep_x: list[float]
    out: str | None


def _read_config(args) -> _Run:
    cfg = _load_config(args.config)
    settings, seed = _build_settings(cfg, args.seed)
    family = _build_family(cfg)
    try:
        settings.order_for(family.n)
    except ValueError as exc:
        raise ConfigError(f"bad quadrature config: {exc}") from exc
    pts = _section(cfg, "points")
    box = pts.get("box")
    if isinstance(box, list):  # one [lo, hi] pair, or one per coordinate
        for pair in box if box and isinstance(box[0], list) else [box]:
            _numbers("points.box", pair, 2)
    try:
        _normalize_box(box, family.n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad points.box: {exc}") from exc
    (count,) = _numbers("points.count", [pts.get("count", 6)], integer=True)
    if count < 2:
        raise ConfigError(f"bad points.count: need an integer of at least 2, got {count!r}")
    levels = cfg.get("levels")
    if levels is None:
        levels = [0.5, 1.0, 2.0] if family.alpha == 2.0 else [1.0]
    levels = _numbers("levels", levels)
    if not levels:
        raise ConfigError("levels must be nonempty")
    offsets = cfg.get("offsets")
    offsets = None if offsets is None else _numbers("offsets", offsets)
    threshold = _section(cfg, "classify").get("threshold", DEFAULT_THRESHOLD)
    (threshold,) = _numbers("classify.threshold", [threshold])
    if not threshold > 0.0:
        raise ConfigError(f"bad classify.threshold: need a positive finite number, got {threshold!r}")
    sweep_x = _numbers("sweep.x", _section(cfg, "sweep").get("x", [0.0] * family.n), family.n)
    out = _section(cfg, "output").get("path")
    if not isinstance(out, (str, type(None))):
        raise ConfigError(f"bad output.path: need a string, got {out!r}")
    return _Run(cfg, family, settings, seed, levels, offsets, count, box, threshold, sweep_x,
                args.out or out)


@contextlib.contextmanager
def _output(path: str | None):
    """The output file at path, or stdout."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _write_table(run: _Run, header: list[str], rows: list[list[str]]) -> None:
    """The three provenance lines (version, config hash, seed), then the CSV table."""
    with _output(run.out) as fh:
        fh.write(f"# quadrix {__version__}\n")
        fh.write(f"# config_sha256={_config_hash(run.cfg)}\n")
        fh.write(f"# seed={run.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _table_exit_code(rows) -> int:
    """Exit code 1 when every (k, h, cell) row's cell is an error message, else 0."""
    return 1 if rows and all(isinstance(cell, str) for *_, cell in rows) else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_curvature(args) -> int:
    run = _read_config(args)
    family, n = run.family, run.family.n
    xs = sample_coordinates(n, run.count, run.seed, run.box)
    rows = []
    for k in run.levels:
        for x in xs:
            try:
                p = point_on_level(family, k, x)
            except BranchError:
                continue  # off the admissible set, not a certificate failure
            rows.append([_fmt(v) for v in (k, *p.x, p.z, gauss_kronecker(family, p), p.grad_norm,
                                           curvature_invariant(family, p))])
    _write_table(run, ["k", *(f"x{i+1}" for i in range(n)), "z", "K", "grad_norm", "invariant"], rows)
    return 0


def _cell_fields(cell) -> list[str]:
    """The t, Vstar, Vstar_err, ..., Sstar_err columns of one cell; blank if it failed."""
    if isinstance(cell, str):
        return [""] * 7
    return [
        _fmt(cell.t),
        _fmt(cell.volume.value), _fmt_err(cell.volume.error_estimate),
        _fmt(cell.area.value), _fmt_err(cell.area.error_estimate),
        _fmt(cell.lateral.value), _fmt_err(cell.lateral.error_estimate),
    ]


def cmd_measures(args) -> int:
    run = _read_config(args)
    family, settings, offsets = run.family, run.settings, run.offsets
    if not offsets:
        raise ConfigError("measures needs a nonempty offsets list")
    level_points = [(k, sample_points(family, k, run.count, run.seed, run.box))
                    for k in run.levels]
    rows = []  # (k, h, point) order: each level's table read transposed
    for k, points in level_points:
        cells = evaluate_cells(family, points, offsets, settings)
        rows += [(k, h, p, row[j]) for j, h in enumerate(offsets) for p, row in zip(points, cells)]
    header = "k h t Vstar Vstar_err Astar Astar_err Sstar Sstar_err grad_norm seed error".split()
    _write_table(run, header, [
        [_fmt(k), _fmt(h)] + _cell_fields(cell) + (["", str(run.seed), cell] if isinstance(cell, str)
                                                   else [_fmt(p.grad_norm), str(run.seed), ""])
        for k, h, p, cell in rows
    ])
    return _table_exit_code(rows)


def cmd_classify(args) -> int:
    run = _read_config(args)
    ccfg = ClassifyConfig(point_count=run.count, box=run.box, seed=run.seed,
                          offsets=tuple(run.offsets) if run.offsets else None,
                          threshold=run.threshold, settings=run.settings)
    result: Classification = classify(run.family, run.levels, ccfg)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config_sha256": _config_hash(run.cfg),
        "seed": run.seed,
        "classification": result.to_dict(),
    }
    with _output(run.out) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.verdict == "not_characterized" and result.blocked_by_errors:
        return 3
    return 0


def cmd_sweep(args) -> int:
    run = _read_config(args)
    family, settings, offsets = run.family, run.settings, run.offsets
    if not offsets:
        raise ConfigError("sweep needs a nonempty offsets list")
    x = np.asarray(run.sweep_x)
    rows = []
    for k in run.levels:
        try:
            cells = evaluate_cells(family, [point_on_level(family, k, x)], offsets, settings)[0]
        except QuadrixError as exc:  # the lift failed: every offset row carries it
            cells = [str(exc)] * len(offsets)
        rows += [(k, h, cell) for h, cell in zip(offsets, cells)]
    _write_table(run, "k h t Vstar Vstar_err Astar Astar_err Sstar Sstar_err error".split(), [
        [_fmt(k), _fmt(h)] + _cell_fields(cell) + [cell if isinstance(cell, str) else ""]
        for k, h, cell in rows
    ])
    return _table_exit_code(rows)


def cmd_verify(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    settings, seed = _build_settings(cfg, args.seed)
    return verify.run(settings, seed)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadrix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"quadrix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (
        ("curvature", cmd_curvature, True),
        ("measures", cmd_measures, True),
        ("classify", cmd_classify, True),
        ("verify", cmd_verify, False),
        ("sweep", cmd_sweep, True),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config, help="path to the JSON run config")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--out", default=None, help="output path (default: config output.path or stdout)")
        sp.set_defaults(fn=fn)
    return parser


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ConvexityError as exc:  # only curvature lets one through
        print(f"convexity certificate failed: {exc}", file=sys.stderr)
        return 2
    # e.g. too few admissible points, an unwritable --out, too many points to allocate
    except (QuadrixError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
