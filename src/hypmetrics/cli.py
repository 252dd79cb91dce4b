"""Command-line entry point.

Subcommands:

* ``gen``    -- write a seeded random point cloud (CSV or JSON).
* ``dist``   -- materialize a base or punctured-variant distance matrix.
* ``delta``  -- exact or sampled four-point delta of a matrix or spec.
* ``verify axioms|ptolemy|sandwich|lemmas`` -- run a checker family; exit 1
  when violations are found.
* ``repro four-point|arctan|sweep|all`` -- run reproduction scenarios; exit
  mirrors their pass flags.

Each command, verify target and repro scenario accepts only the flags it
reads. ``dist``, ``delta`` and ``verify axioms|ptolemy|sandwich`` take one
input: ``--cloud`` (with ``--metric``, default euclidean) or ``--matrix``,
each with ``--punctures`` and optionally ``--variant`` for a punctured
variant and ``--anchor`` for a one-point one (``tau_p``, ``tilde_tau_p``),
or ``--spec``, which holds all of these itself under the same rules.
``verify sandwich --kind tau|avg`` takes only a variant of its kind's pair
(``verify.SANDWICH_PAIRS``), from ``--variant`` or the spec, and
``--kind taxicab`` reads ``--cloud`` alone. ``verify lemmas`` reads ``--n``
(default 64) and ``--dim`` (default 2) only without ``--cloud``. A flag
given where it is not read is an input error that names it, and so is any
other combination.

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

from .cassinian import ONE_POINT_VARIANTS, VARIANTS, PuncturedSpec, punctured_matrix
from .delta import exact_delta, sampled_delta
from .errors import InputError
from .scenarios import arctan_family, four_point_counterexample, hyperbolicity_sweep
from .spaces import (
    METRIC_NAMES,
    DistanceMatrix,
    PointCloud,
    _count,
    _parse_json,
    _read_json,
    build_distance_matrix,
    load_distance_matrix,
    load_point_cloud,
    random_cloud,
)
from .verify import (
    DEFAULT_TOL,
    SANDWICH_PAIRS,
    _mu_lookup,
    _tolerance,
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


def _refuse(args, flags, why: str) -> None:
    """Exit 2 (``InputError``) naming every one of ``flags`` that was given;
    ``why`` says why the runner reads none of them."""
    given = [flag for flag in flags if getattr(args, flag[2:]) is not None]
    if given:
        raise InputError(f"{why}: drop {', '.join(given)}")


def _base(args) -> tuple[PointCloud | DistanceMatrix, str]:
    """The base from --cloud or --matrix, and its metric: --metric for a
    cloud, euclidean when none is given; a matrix reads no metric."""
    if args.matrix:
        _refuse(args, ["--metric"], "--matrix holds its distances and reads no base metric")
        # delta reads the file with its --workers, other commands one per core
        base: PointCloud | DistanceMatrix = load_distance_matrix(
            args.matrix, getattr(args, "workers", None)
        )
    elif args.cloud:
        base = load_point_cloud(args.cloud)
    else:
        raise InputError("need --cloud, --matrix or --spec")
    return base, args.metric or "euclidean"


def _load_spec(args, variants=VARIANTS) -> PuncturedSpec:
    """The spec from --spec, or from the input flags with --variant one of
    ``variants`` (the first, ``tau_p`` for all of them, when not given).
    Either way the variant must be one of ``variants``, and only a
    one-point variant takes an anchor."""
    if args.spec:
        _refuse(args, ["--metric", "--punctures", "--variant", "--anchor"],
                "--spec holds its metric, punctures, variant and anchor")
        spec = PuncturedSpec.from_dict(_read_json(args.spec))
        if spec.variant not in variants:
            raise InputError(f"spec variant {spec.variant} is not one of {', '.join(variants)}")
        if spec.anchor is not None and spec.variant not in ONE_POINT_VARIANTS:
            raise InputError(f"spec variant {spec.variant} reads no anchor: drop \"anchor\"")
        return spec
    punctures = _parse_punctures(args.punctures)
    if punctures is None:
        raise InputError("need --punctures (or --spec) for a punctured variant")
    variant = args.variant or variants[0]
    if variant not in variants:
        raise InputError(f"--variant {variant} is not one of {', '.join(variants)}")
    if variant not in ONE_POINT_VARIANTS:
        _refuse(args, ["--anchor"], f"variant {variant} reads no anchor")
    base, metric = _base(args)
    return PuncturedSpec(base, punctures, variant, args.anchor, metric)


def _matrix_from_args(args) -> DistanceMatrix:
    """A matrix from --matrix, or from --cloud (+ optional punctured variant)."""
    if args.punctures is not None or args.spec:
        return punctured_matrix(_load_spec(args))
    _refuse(args, ["--variant", "--anchor"], "no punctured variant without --punctures")
    base, metric = _base(args)
    return base if isinstance(base, DistanceMatrix) else build_distance_matrix(base, metric)


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
        _refuse(args, ["--matrix", "--spec", "--metric", "--punctures", "--variant", "--anchor"],
                "sandwich kind 'taxicab' reads --cloud alone")
        if not args.cloud:
            raise InputError("sandwich kind 'taxicab' needs --cloud")
        target = load_point_cloud(args.cloud)
    else:
        # check_sandwich builds both sides of the pair; the variant may name either
        target = _load_spec(args, SANDWICH_PAIRS[args.kind])
    return {f"sandwich_{args.kind}": check_sandwich(args.kind, target, args.tol)}


def _verify_lemmas(args):
    if args.cloud:
        _refuse(args, ["--n", "--dim"], "--n and --dim size a generated cloud, not --cloud")
        cloud = load_point_cloud(args.cloud)
    else:
        size = 64 if args.n is None else args.n
        dim = 2 if args.dim is None else args.dim
        cloud = random_cloud(size, dim, args.seed)
    matrix = build_distance_matrix(cloud, args.metric or "euclidean")
    n = matrix.n
    if n < 4:
        raise InputError("lemma battery needs at least 4 points")
    k = min(_count(args.k, 1, "--k"), n - 1)
    punctures = list(range(k))
    samples = args.samples
    reports = {  # anchors p = 0 and q = 1
        "mu_bounds": check_mu_bounds(matrix, 0, 1, samples, args.seed, args.tol),
        "factor_nine": check_lemma_nine(matrix, 0, samples, args.seed, args.tol),
        "product_split": check_product_lemma(matrix, punctures, samples, args.seed, args.tol),
        "muP_quasi_triangle": check_mu_P_quasi_triangle(
            matrix, punctures, samples, samples, args.seed, args.tol
        ),
    }
    for K in (4.0, 6.0, 10.0):
        reports[f"separated_pair_K{K:g}"] = check_lemma_K(
            matrix, 0, K, samples, args.seed, args.tol
        )
    rng = np.random.Generator(np.random.PCG64(args.seed))
    quads = rng.integers(0, n, size=(min(samples, 100000), 4))
    # one batch alive at a time, gathered as (4, 4, N): the checker copies
    # each block of its (N, 4, 4) view into a (16, B) buffer as 16 runs
    q = np.ascontiguousarray(quads.T)
    e, rows, cols = matrix.entries, q[:, None], q[None, :]
    reports["quasi_ptolemy_K1"] = check_quasi_ptolemy_many(
        e[rows, cols].transpose(2, 0, 1), 1.0, args.tol
    )
    mu = _mu_lookup(e, 0, False, 4 * quads.size)(rows, cols)
    reports["quasi_ptolemy_K1.5"] = check_quasi_ptolemy_many(mu.transpose(2, 0, 1), 1.5, args.tol)
    return reports


def cmd_verify(args) -> int:
    reports = args.checks(args)
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


def _four_point(args):
    return four_point_counterexample(args.tol)


def _arctan(args):
    return arctan_family(
        t_grid=_number_list(args.t_grid, float, "--t-grid"),
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
    )


def _sweep(args):
    return hyperbolicity_sweep(
        n=args.n,
        k_list=_number_list(args.k_list, int, "--k-list"),
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
    )


def cmd_repro(args) -> int:
    results = [run(args) for run in args.runs]
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


def build_parser() -> argparse.ArgumentParser:
    # Flag groups shared by several commands: each command lists the ones it reads.
    inputs = argparse.ArgumentParser(add_help=False)
    source = inputs.add_mutually_exclusive_group()
    source.add_argument("--cloud", help="point cloud file (.csv or .json)")
    source.add_argument("--matrix", help="distance matrix file (.json or .csv)")
    source.add_argument("--spec", help="punctured-spec JSON file")
    inputs.add_argument(
        "--metric", choices=METRIC_NAMES, help="base metric of --cloud (default euclidean)"
    )
    inputs.add_argument("--punctures", help='indices "0,5", JSON coords, or @file.json')
    inputs.add_argument("--variant", choices=VARIANTS, help="punctured variant (default tau_p)")
    inputs.add_argument("--anchor", type=int, help="puncture position of a one-point variant")
    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument("--tol", type=float, default=DEFAULT_TOL)
    checked.add_argument("--out", help="report file (a directory for 'repro all')")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    arctan = argparse.ArgumentParser(add_help=False)
    arctan.add_argument("--t-grid", default="1,10,100")
    arctan.add_argument("--samples", type=int, default=100000)
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--n", type=int, default=40)
    sweep.add_argument("--k-list", default="1,2,4,8")
    sweep.add_argument("--trials", type=int, default=30)

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

    d = sub.add_parser("dist", help="materialize a distance matrix", parents=[inputs])
    d.add_argument("--out", help="output path (.json or .csv)")
    d.set_defaults(fn=cmd_dist)

    e = sub.add_parser("delta", help="four-point delta of a matrix or spec", parents=[inputs])
    e.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    e.add_argument("--samples", type=int, default=100000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--workers", type=int, default=None,
                   help="most processes a pass forks (default one per core); a small input lowers it")
    e.add_argument("--out")
    e.set_defaults(fn=cmd_delta)

    v = sub.add_parser("verify", help="run a checker family")
    targets = v.add_subparsers(dest="target", required=True)
    for name, checks in (("axioms", _verify_axioms), ("ptolemy", _verify_ptolemy)):
        t = targets.add_parser(name, parents=[inputs, checked])
        t.set_defaults(fn=cmd_verify, checks=checks)
    t = targets.add_parser("sandwich", parents=[inputs, checked])
    t.add_argument("--kind", choices=(*SANDWICH_PAIRS, "taxicab"), default="tau")
    t.set_defaults(fn=cmd_verify, checks=_verify_sandwich)
    t = targets.add_parser("lemmas", parents=[seeded, checked])
    t.add_argument("--cloud", help="point cloud file (default: a generated cloud)")
    t.add_argument("--metric", choices=METRIC_NAMES, help="base metric (default euclidean)")
    t.add_argument("--n", type=int, help="generated cloud size (default 64)")
    t.add_argument("--dim", type=int, help="generated cloud dimension (default 2)")
    t.add_argument("--k", type=int, default=4, help="puncture count for product lemmas")
    t.add_argument("--samples", type=int, default=100000)
    t.set_defaults(fn=cmd_verify, checks=_verify_lemmas)

    r = sub.add_parser("repro", help="run a reproduction scenario")
    scenarios = r.add_subparsers(dest="scenario", required=True)
    for name, parents, runs in (
        ("four-point", [checked], [_four_point]),
        ("arctan", [seeded, arctan, checked], [_arctan]),
        ("sweep", [seeded, sweep, checked], [_sweep]),
        ("all", [seeded, arctan, sweep, checked], [_four_point, _arctan, _sweep]),
    ):
        scenarios.add_parser(name, parents=parents).set_defaults(fn=cmd_repro, runs=runs)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _tolerance(getattr(args, "tol", DEFAULT_TOL))
        _count(getattr(args, "seed", 0), 0, "--seed")
        return args.fn(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
