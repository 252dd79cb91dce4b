"""Command-line entry point.

Subcommands:

* ``gen``    -- write a seeded random point cloud (CSV or JSON).
* ``dist``   -- materialize a base or punctured-variant distance matrix.
* ``delta``  -- exact or sampled four-point delta of a matrix or spec.
* ``verify`` -- run a checker family; exit 1 when violations are found.
* ``repro``  -- run a named reproduction scenario; exit mirrors its pass flag.

All randomness is surfaced as ``--seed`` and echoed into the JSON reports,
so re-running a subcommand with identical flags reproduces its output byte
for byte (the only exception is the ``elapsed_ms`` timing field of delta
reports). Exit codes: 0 success/pass, 1 verification failure, 2 input
error. ``HYPMETRICS_OUTDIR`` supplies the directory for default output
paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .cassinian import VARIANTS, PuncturedSpec, punctured_matrix
from .delta import exact_delta, sampled_delta
from .errors import InputError
from .scenarios import arctan_family, four_point_counterexample, hyperbolicity_sweep
from .spaces import (
    METRIC_NAMES,
    DistanceMatrix,
    PointCloud,
    _parse_json,
    _read_json,
    build_distance_matrix,
    load_distance_matrix,
    load_point_cloud,
    random_cloud,
)
from .verify import (
    DEFAULT_TOL,
    _mu_lookup,
    check_lemma_K,
    check_lemma_nine,
    check_metric_axioms,
    check_mu_P_quasi_triangle,
    check_mu_bounds,
    check_product_lemma,
    check_ptolemaic,
    check_quasi_ptolemy_many,
    check_sandwich,
)

ENV_OUTDIR = "HYPMETRICS_OUTDIR"


def _outdir() -> Path:
    return Path(os.environ.get(ENV_OUTDIR, "."))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _number_list(raw: str, kind, what: str) -> list:
    """Comma-separated numbers of one type ("0,5,7"); empty tokens are skipped."""
    try:
        values = [kind(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"bad {what} {raw!r}: {exc}") from exc
    if not values:
        raise InputError(f"bad {what} {raw!r}: no values")
    return values


def _parse_punctures(raw: str | None):
    """Puncture flag syntax: comma-separated indices ("0,5,7"), a JSON
    array of coordinate rows ("[[0.1,0.2]]"), or "@file.json"."""
    if raw is None:
        return None
    raw = raw.strip()
    if raw.startswith("@"):
        return _read_json(raw[1:])
    if raw.startswith("["):
        return _parse_json(raw, "--punctures")
    return _number_list(raw, int, "puncture list")


def _load_spec(args, variant: str | None = None) -> PuncturedSpec:
    """The spec from --spec, or from the input flags with ``variant`` in
    place of --variant when given."""
    if args.spec:
        return PuncturedSpec.from_dict(_read_json(args.spec))
    punctures = _parse_punctures(args.punctures)
    if punctures is None:
        raise InputError("need --punctures (or --spec) for a punctured variant")
    if args.matrix:
        base: PointCloud | DistanceMatrix = load_distance_matrix(args.matrix)
    elif args.cloud:
        base = load_point_cloud(args.cloud)
    else:
        raise InputError("need --cloud or --matrix")
    return PuncturedSpec(base, punctures, variant or args.variant, args.anchor, args.metric)


def _matrix_from_args(args) -> DistanceMatrix:
    """A matrix from --matrix, or from --cloud (+ optional punctured variant)."""
    if args.punctures or args.spec:
        return punctured_matrix(_load_spec(args))
    if args.matrix:
        return load_distance_matrix(args.matrix)
    if args.cloud:
        return build_distance_matrix(load_point_cloud(args.cloud), args.metric)
    raise InputError("need --matrix, --cloud, or --spec")


def cmd_gen(args) -> int:
    cloud = random_cloud(args.n, args.dim, args.seed, args.low, args.high)
    out = args.out or str(_outdir() / "cloud.csv")
    cloud.save(out)
    return 0


def cmd_dist(args) -> int:
    matrix = _matrix_from_args(args)
    out = args.out or str(_outdir() / "matrix.json")
    matrix.save(out)
    return 0


def cmd_delta(args) -> int:
    matrix = _matrix_from_args(args)
    if args.mode == "exact":
        report = exact_delta(matrix, workers=args.workers)
    else:
        report = sampled_delta(
            matrix, samples=args.samples, seed=args.seed, workers=args.workers
        )
    _emit(report.to_dict(), args.out)
    return 0


def _verify_axioms(args):
    return {"axioms": check_metric_axioms(_matrix_from_args(args), args.tol)}


def _verify_ptolemy(args):
    return {"ptolemy": check_ptolemaic(_matrix_from_args(args), args.tol)}


def _verify_sandwich(args):
    if args.kind == "taxicab":
        if not args.cloud:
            raise InputError("sandwich kind 'taxicab' needs --cloud")
        target = load_point_cloud(args.cloud)
    else:
        # check_sandwich rebuilds both sides, so the averaged pair needs no anchor
        target = _load_spec(args, "avg_tau" if args.kind == "avg" else None)
    return {f"sandwich_{args.kind}": check_sandwich(args.kind, target, args.tol)}


def _verify_lemmas(args):
    for flag in ("matrix", "spec", "punctures", "anchor"):
        if getattr(args, flag) is not None:
            raise InputError(f"verify lemmas reads --cloud or a generated cloud, not --{flag}")
    if args.cloud:
        cloud = load_point_cloud(args.cloud)
    else:
        cloud = random_cloud(args.n, args.dim, args.seed)
    matrix = build_distance_matrix(cloud, args.metric)
    n = matrix.n
    if n < 4:
        raise InputError("lemma battery needs at least 4 points")
    anchors = [0, min(1, n - 1)]
    k = min(args.k, n - 1)
    punctures = list(range(k))
    samples = args.samples
    reports = {
        "mu_bounds": check_mu_bounds(
            matrix, anchors[0], anchors[1], samples, args.seed, args.tol
        ),
        "factor_nine": check_lemma_nine(matrix, anchors[0], samples, args.seed, args.tol),
        "product_split": check_product_lemma(matrix, punctures, samples, args.seed, args.tol),
        "muP_quasi_triangle": check_mu_P_quasi_triangle(
            matrix, punctures, samples, samples, args.seed, args.tol
        ),
    }
    for K in (4.0, 6.0, 10.0):
        reports[f"separated_pair_K{K:g}"] = check_lemma_K(
            matrix, anchors[0], K, samples, args.seed, args.tol
        )
    rng = np.random.Generator(np.random.PCG64(args.seed))
    quads = rng.integers(0, n, size=(min(samples, 100000), 4))
    e = matrix.entries
    rs = e[quads[:, :, None], quads[:, None, :]]
    reports["quasi_ptolemy_K1"] = check_quasi_ptolemy_many(rs, 1.0, args.tol)
    mu = _mu_lookup(e, anchors[0], False, rs.size)(quads[:, :, None], quads[:, None, :])
    reports["quasi_ptolemy_K1.5"] = check_quasi_ptolemy_many(mu, 1.5, args.tol)
    return reports


def cmd_verify(args) -> int:
    runner = {
        "axioms": _verify_axioms,
        "ptolemy": _verify_ptolemy,
        "sandwich": _verify_sandwich,
        "lemmas": _verify_lemmas,
    }[args.target]
    reports = runner(args)
    payload = {name: rep.to_dict() for name, rep in reports.items()}
    _emit(payload, args.out)
    width = max(len(name) for name in reports)
    for name, rep in reports.items():
        status = "pass" if rep.passed else "FAIL"
        sys.stderr.write(
            f"{name:<{width}}  {status}  checked={rep.checked}"
            f"  violations={len(rep.violations)}  worst_slack={rep.worst_slack:.3g}\n"
        )
    return 0 if all(rep.passed for rep in reports.values()) else 1


def _run_scenario(name: str, args):
    if name == "four-point":
        return four_point_counterexample(args.tol)
    if name == "arctan":
        return arctan_family(
            t_grid=_number_list(args.t_grid, float, "--t-grid"),
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
        )
    if name == "sweep":
        return hyperbolicity_sweep(
            n=args.n,
            k_list=_number_list(args.k_list, int, "--k-list"),
            trials=args.trials,
            seed=args.seed,
            tol=args.tol,
        )
    raise InputError(f"unknown scenario {name!r}")


def cmd_repro(args) -> int:
    names = ["four-point", "arctan", "sweep"] if args.scenario == "all" else [args.scenario]
    results = [_run_scenario(name, args) for name in names]
    if args.scenario == "all":
        report_dir = Path(args.out or (_outdir() / "repro"))
        report_dir.mkdir(parents=True, exist_ok=True)
        for res in results:
            _emit(res.to_dict(), str(report_dir / f"{res.scenario.replace('-', '_')}.json"))
    else:
        _emit(results[0].to_dict(), args.out)
    for res in results:
        sys.stderr.write(res.format_table() + "\n")
    return 0 if all(res.passed for res in results) else 1


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cloud", help="point cloud file (.csv or .json)")
    p.add_argument("--matrix", help="distance matrix file (.json or .csv)")
    p.add_argument("--metric", default="euclidean", choices=METRIC_NAMES)
    p.add_argument("--spec", help="punctured-spec JSON file")
    p.add_argument("--punctures", help='indices "0,5", JSON coords, or @file.json')
    p.add_argument("--variant", default="tau_p", choices=VARIANTS)
    p.add_argument("--anchor", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hypmetrics", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a seeded random point cloud")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--low", type=float, default=0.0)
    g.add_argument("--high", type=float, default=1.0)
    g.add_argument("--out", help="output path (.csv or .json)")
    g.set_defaults(fn=cmd_gen)

    d = sub.add_parser("dist", help="materialize a distance matrix")
    _add_input_flags(d)
    d.add_argument("--out", help="output path (.json or .csv)")
    d.set_defaults(fn=cmd_dist)

    e = sub.add_parser("delta", help="four-point delta of a matrix or spec")
    _add_input_flags(e)
    e.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    e.add_argument("--samples", type=int, default=100000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--workers", type=int, default=None)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_delta)

    v = sub.add_parser("verify", help="run a checker family")
    v.add_argument("target", choices=("axioms", "ptolemy", "sandwich", "lemmas"))
    _add_input_flags(v)
    v.add_argument("--kind", choices=("tau", "avg", "taxicab"), default="tau")
    v.add_argument("--n", type=int, default=64, help="generated cloud size for lemmas")
    v.add_argument("--dim", type=int, default=2)
    v.add_argument("--k", type=int, default=4, help="puncture count for product lemmas")
    v.add_argument("--samples", type=int, default=100000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=DEFAULT_TOL)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("repro", help="run a reproduction scenario")
    r.add_argument("scenario", choices=("four-point", "arctan", "sweep", "all"))
    r.add_argument("--t-grid", default="1,10,100")
    r.add_argument("--samples", type=int, default=100000)
    r.add_argument("--n", type=int, default=40)
    r.add_argument("--k-list", default="1,2,4,8")
    r.add_argument("--trials", type=int, default=30)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--tol", type=float, default=DEFAULT_TOL)
    r.add_argument("--out", help="output file (or directory for 'all')")
    r.set_defaults(fn=cmd_repro)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 0.0 < getattr(args, "tol", 1.0) < float("inf"):  # NaN included
        sys.stderr.write("error: tolerance must be positive and finite\n")
        return 2
    if getattr(args, "seed", 0) < 0:
        sys.stderr.write("error: --seed must be nonnegative\n")
        return 2
    try:
        return args.fn(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
