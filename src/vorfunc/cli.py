"""Command-line front end.

Subcommands:

    functional        functional value(s) of the Delaunay triangulation of a
                      point set (vf / rajan / rf with --alpha); --dim 3 with
                      --diagonal gives vf of an octahedron decomposition
    scan              optimality scan over random point sets (CSV or JSON)
    counterexamples   the bundled non-optimality experiments (JSON report)
    render            SVG of a triangulation, its subdivision, or the
                      circumcenter-map image

Exit codes: 0 ok, 2 input/parse error (also a non-finite --alpha or functional
value, which never reaches the output), 3 degenerate input (the diagnostic
names the offending labels), 4 experiment verdict failed.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import NotGeneralPosition, VorfuncError
from .experiments import (
    DEFAULT_SEED,
    OCTA_LABELS,
    fold_region_probe,
    octahedron_counterexample,
    octahedron_decomposition,
    optimality_scan,
    topological_counterexample,
)
from .functional2d import FunctionalReport, radius_functional, rajan_triangulation, vf_triangulation
from .render import svg_gamma_image, svg_subdivision, svg_triangulation
from .geom import _as_points, flag_terms
from .tri2d import delaunay

_FUNCTIONALS = {
    "vf": lambda d, args: vf_triangulation(d),
    "rajan": lambda d, args: rajan_triangulation(d),
    "rf": lambda d, args: radius_functional(d, args.alpha),
}
_EXPERIMENTS = {
    "topological": lambda args: topological_counterexample(samples=args.samples, seed=args.seed),
    "octahedron": lambda args: octahedron_counterexample(),
    "fold": lambda args: fold_region_probe(seed=args.seed),
}
_RENDERINGS = {"triangulation": svg_triangulation, "subdivision": svg_subdivision, "gamma": svg_gamma_image}


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _load_points(path: str, dim: int) -> np.ndarray:
    try:
        with open(path) as fh:
            return _as_points(json.load(fh)["points"], dim)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _fail(2, f"cannot read point set from {path!r}: {exc}")


def _emit(text: str, out_path: str):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_diagonal(spec: str, n: int) -> tuple:
    if n != 6:
        raise ValueError(f"an octahedron has 6 points, got {n}")
    pair = spec.strip().upper()
    labels = [str(k) for k in range(n)] if "," in pair else list(OCTA_LABELS)
    names = [s.strip() for s in pair.split(",")] if "," in pair else list(pair)
    if len(names) != 2 or names[0] == names[1] or not set(names) <= set(labels):
        raise ValueError(f"--diagonal {spec!r}: expected two letters of {OCTA_LABELS} or labels i,j (e.g. BE or 1,4)")
    return labels.index(names[0]), labels.index(names[1])


def _delaunay(pts):
    try:
        return delaunay(pts)
    except NotGeneralPosition as exc:
        _fail(3, f"not in general position: labels {exc.labels}")


def _report_text(report: FunctionalReport, fmt: str) -> str:
    # A non-finite entry makes the total non-finite; neither JSON nor CSV can carry it.
    if not math.isfinite(report.total):
        _fail(2, f"functional {report.kind} is not finite ({report.total!r})")
    if fmt == "json":
        return report.to_json() + "\n"
    lines = ["# schema=1", "simplex,contribution"]
    for idx, val in report.per_simplex:
        lines.append(f"{idx},{val!r}")
    lines.append(f"total,{report.total!r}")
    return "\n".join(lines) + "\n"


def cmd_functional(args) -> int:
    if not math.isfinite(args.alpha):
        _fail(2, f"--alpha must be finite, got {args.alpha!r}")
    pts = _load_points(args.input, args.dim)
    # Overflow and 0/0 in the closed forms end as a non-finite total, which
    # _report_text rejects with exit 2; numpy's warnings would only precede it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = _functional_report(args, pts)
    _emit(_report_text(report, args.format), args.out)
    return 0


def _functional_report(args, pts) -> FunctionalReport:
    if args.dim == 3:
        if args.which != "vf":
            _fail(2, f"--which {args.which} has no 3D form; --dim 3 reports vf only")
        try:
            diag = _parse_diagonal(args.diagonal, len(pts))
            tc = octahedron_decomposition(pts, diag)
            sign, integral, _ = flag_terms(tc.points, tc.tets)
            terms = (sign * integral).tolist()
        except (ValueError, VorfuncError) as exc:
            _fail(2, str(exc))
        # One row per tetrahedron, each summed as vf3 sums a one-tet complex; the
        # total is vf3's exactly rounded sum of every term, so row order cannot move it.
        values = [math.fsum(row) for row in terms]
        return FunctionalReport("vf3", math.fsum(v for row in terms for v in row), tuple(enumerate(values)))
    return _FUNCTIONALS[args.which](_delaunay(pts), args)


def cmd_scan(args) -> int:
    try:
        result, rows = optimality_scan(args.n, args.trials, seed=args.seed)
    except VorfuncError as exc:
        _fail(3, str(exc))
    if args.format == "csv":
        lines = ["# schema=1", "trial,triangulation,vf,is_delaunay,is_max"]
        for trial, idx, vf, is_d, is_max in rows:
            lines.append(f"{trial},{idx},{vf!r},{int(is_d)},{int(is_max)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(result.to_json() + "\n", args.out)
    return 0 if result.verdict == "pass" else 4


def cmd_counterexamples(args) -> int:
    if args.samples < 1000:
        _fail(2, "--samples must be at least 1000")
    try:
        result = _EXPERIMENTS[args.which](args)
    except VorfuncError as exc:
        _fail(4, f"experiment could not be constructed: {exc}")
    _emit(result.to_json() + "\n", args.out)
    if result.verdict != "pass":
        _fail(4, f"experiment {result.name} verdict: {result.verdict}")
    return 0


def cmd_render(args) -> int:
    d = _delaunay(_load_points(args.input, 2))
    # As in cmd_functional: an overflow that reaches a drawn coordinate raises
    # ValueError (exit 2); one that stays off the drawing needs no warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        svg = _RENDERINGS[args.what](d)
    _emit(svg, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vorfunc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("functional", help="functional of the Delaunay triangulation")
    p.add_argument("--input", required=True, help="point-set JSON path")
    p.add_argument("--which", default="vf", choices=tuple(_FUNCTIONALS))
    p.add_argument("--alpha", type=float, default=2.0, help="exponent for --which rf")
    p.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p.add_argument("--diagonal", default="BE", help="octahedron diagonal for --dim 3 (e.g. BE or 1,4)")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_functional)

    p = sub.add_parser("scan", help="Delaunay optimality scan over random point sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", default="csv", choices=("json", "csv"))
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("counterexamples", help="run a bundled non-optimality experiment")
    p.add_argument("--which", required=True, choices=tuple(_EXPERIMENTS))
    p.add_argument("--samples", type=int, default=10**7)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_counterexamples)

    p = sub.add_parser("render", help="SVG rendering")
    p.add_argument("--input", required=True, help="point-set JSON path")
    p.add_argument("--what", default="triangulation", choices=tuple(_RENDERINGS))
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        _fail(2, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
