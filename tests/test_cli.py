import argparse
import json

import numpy as np
import pytest

from hypmetrics import (
    DistanceMatrix,
    PuncturedSpec,
    euclidean_distance,
    load_point_cloud,
    punctured_matrix,
    tau_p,
)
from hypmetrics.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_timing(text: str) -> str:
    obj = json.loads(text)

    def scrub(node):
        if isinstance(node, dict):
            node.pop("elapsed_ms", None)
            for v in node.values():
                scrub(v)
        elif isinstance(node, list):
            for v in node:
                scrub(v)

    scrub(obj)
    return json.dumps(obj, sort_keys=True)


def test_gen_writes_deterministic_cloud(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = run(capsys, "gen", "--n", "6", "--seed", "5", "--out", str(out1))
    code2, _, _ = run(capsys, "gen", "--n", "6", "--seed", "5", "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    cloud = load_point_cloud(out1)
    assert len(cloud) == 6


def test_gen_json_roundtrip(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "gen", "--n", "4", "--dim", "3", "--seed", "1", "--out", str(out))
    assert code == 0
    assert load_point_cloud(out).dim == 3


def test_dist_tau_variant(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "8", "--seed", "2", "--out", str(cloud))
    out = tmp_path / "m.json"
    code, _, _ = run(
        capsys,
        "dist",
        "--cloud",
        str(cloud),
        "--punctures",
        "[[2.0, 2.0]]",
        "--variant",
        "tau_p",
        "--out",
        str(out),
    )
    assert code == 0
    m = DistanceMatrix.from_dict(json.loads(out.read_text()))
    assert m.n == 8


def test_dist_point_on_puncture_is_input_error(tmp_path, capsys):
    cloud = tmp_path / "cloud.json"
    cloud.write_text(
        json.dumps(
            {
                "dim": 2,
                "points": [
                    {"label": "a", "coords": [0.0, 0.0]},
                    {"label": "b", "coords": [1.0, 0.0]},
                    {"label": "c", "coords": [0.0, 1.0]},
                ],
            }
        )
    )
    code, _, err = run(
        capsys,
        "dist",
        "--cloud",
        str(cloud),
        "--punctures",
        "[[1.0, 0.0]]",
        "--variant",
        "tau_p",
        "--out",
        str(cloud.with_name("m.json")),
    )
    assert code == 2
    assert "puncture" in err


def test_dist_point_next_to_puncture_in_a_wide_cloud(tmp_path, capsys):
    # 1e-170 from the puncture beside points at 1e300: no coordinate is
    # scaled down far enough to underflow before its difference is taken,
    # and the gap product of points 1 and 2 overflows unless rescaled
    cloud = tmp_path / "wide.csv"
    cloud.write_text("label,x1,x2\np0,1e-170,0\np1,1e300,1\np2,-1e300,0\n")
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "dist", "--cloud", str(cloud), "--punctures", "[[0.0, 0.0]]",
                       "--variant", "avg_tau", "--out", str(out))
    assert (code, err) == (0, "")
    entries = json.loads(out.read_text())["entries"]
    # log(1 + 2e300 / sqrt(1e-170 * 1e300)) and log(1 + 4e300 / 1e300)
    assert entries[0][1] == pytest.approx(np.log(2.0) + 235 * np.log(10.0), rel=1e-12)
    assert entries[1][2] == pytest.approx(np.log(5.0), rel=1e-12)


def test_dist_points_at_subnormal_gaps_from_the_puncture(tmp_path, capsys):
    # the gap product of points 0 and 1 underflows beside pairs whose
    # product does not; the entry is the scalar's, not a negative log
    cloud = tmp_path / "c.csv"
    cloud.write_text("label,x1,x2\na,1e-318,0\nb,1.2e-318,0\nc,1,1\nd,2,0.5\n")
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "dist", "--cloud", str(cloud), "--punctures", "[[0.0, 0.0]]",
                       "--variant", "tau_p", "--out", str(out))
    assert (code, err) == (0, "")
    pts = [[1e-318, 0.0], [1.2e-318, 0.0], [0.0, 0.0]]
    want = tau_p(lambda i, j: euclidean_distance(pts[i], pts[j]), 0, 1, 2)
    # the correctly rounded log(1 + 2 d(a, b) / sqrt(d(a, 0) d(b, 0))): the
    # root of the two gaps is subnormal, and the ratio is taken without it
    assert json.loads(out.read_text())["entries"][0][1] == want == 0.31126675410128624


def test_dist_j_beside_a_subnormal_gap(tmp_path, capsys):
    # d(0, 3) / d(0, 1) = 1 / 5e-324 overflows; its log1p does not
    sub = np.ones((5, 5)) - np.eye(5)
    sub[0, 1] = sub[1, 0] = 5e-324
    matrix = tmp_path / "sub.json"
    matrix.write_text(json.dumps({"n": 5, "entries": sub.tolist()}))
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "dist", "--matrix", str(matrix), "--punctures", "1",
                       "--variant", "j", "--out", str(out))
    assert (code, err) == (0, "")
    entries = json.loads(out.read_text())["entries"]
    assert entries[0][2] == pytest.approx(0.5 * (np.log(2.0) - np.log(5e-324)), rel=1e-15)


def test_dist_avg_k1_equals_tau(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "7", "--seed", "3", "--out", str(cloud))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    run(capsys, "dist", "--cloud", str(cloud), "--punctures", "[[3.0, 3.0]]",
        "--variant", "avg_tau", "--out", str(out_a))
    run(capsys, "dist", "--cloud", str(cloud), "--punctures", "[[3.0, 3.0]]",
        "--variant", "tau_p", "--anchor", "0", "--out", str(out_b))
    ma = DistanceMatrix.from_dict(json.loads(out_a.read_text()))
    mb = DistanceMatrix.from_dict(json.loads(out_b.read_text()))
    assert np.array_equal(ma.entries, mb.entries)


def test_delta_collinear_zero(tmp_path, capsys):
    cloud = tmp_path / "line.csv"
    cloud.write_text("label,x1\na,0.0\nb,1.0\nc,2.0\nd,3.0\n")
    code, out, _ = run(capsys, "delta", "--cloud", str(cloud))
    assert code == 0
    report = json.loads(out)
    assert report["delta"] == 0.0
    assert report["mode"] == "exact"


def test_delta_workers_equal(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "14", "--seed", "4", "--out", str(cloud))
    _, out1, _ = run(capsys, "delta", "--cloud", str(cloud), "--workers", "1")
    _, out8, _ = run(capsys, "delta", "--cloud", str(cloud), "--workers", "2")
    assert _strip_timing(out1) == _strip_timing(out8)


def test_delta_sampled_below_exact(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "16", "--seed", "6", "--out", str(cloud))
    _, exact_out, _ = run(capsys, "delta", "--cloud", str(cloud), "--workers", "1")
    _, sampled_out, _ = run(
        capsys, "delta", "--cloud", str(cloud), "--mode", "sampled",
        "--samples", "300", "--seed", "9", "--workers", "1",
    )
    assert json.loads(sampled_out)["delta"] <= json.loads(exact_out)["delta"]


def test_verify_axioms_euclidean_exit_0(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "12", "--seed", "7", "--out", str(cloud))
    code, out, err = run(capsys, "verify", "axioms", "--cloud", str(cloud))
    assert code == 0
    assert json.loads(out)["axioms"]["violations"] == []
    assert "pass" in err


def test_verify_axioms_counterexample_exit_1(tmp_path, capsys):
    matrix = tmp_path / "cx.json"
    matrix.write_text(
        json.dumps(
            {
                "n": 4,
                "entries": [
                    [0.0, 2.0, 1.0, 1.0],
                    [2.0, 0.0, 1.0, 1.0],
                    [1.0, 1.0, 0.0, 2.0],
                    [1.0, 1.0, 2.0, 0.0],
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, "verify", "axioms", "--matrix", str(matrix),
        "--punctures", "0", "--variant", "tilde_tau_p",
    )
    assert code == 1
    report = json.loads(out)["axioms"]
    assert sorted(tuple(v["indices"]) for v in report["violations"]) == [
        (1, 2, 0),
        (2, 1, 0),
    ]


def test_verify_ptolemy_and_sandwich(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "10", "--seed", "8", "--out", str(cloud))
    code, _, _ = run(capsys, "verify", "ptolemy", "--cloud", str(cloud))
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "sandwich", "--kind", "taxicab", "--cloud", str(cloud)
    )
    assert code == 0
    code, _, _ = run(
        capsys, "verify", "sandwich", "--kind", "avg", "--cloud", str(cloud),
        "--punctures", "[[2.5, 2.5], [3.0, -1.0]]", "--variant", "avg_tau",
    )
    assert code == 0


def test_verify_ptolemy_rejects_products_past_the_float_range(tmp_path, capsys):
    # a non-Ptolemaic matrix scaled by 1e155, whose products overflow
    big, half = 2e155, 1e155
    entries = [[0, big, half, half], [big, 0, half, half],
               [half, half, 0, big], [half, half, big, 0]]
    path = tmp_path / "huge4.json"
    path.write_text(json.dumps({"n": 4, "entries": entries}))
    code, _, err = run(capsys, "verify", "ptolemy", "--matrix", str(path))
    assert code == 2
    assert "2^500" in err


def test_verify_lemmas_quick(capsys):
    code, out, _ = run(
        capsys, "verify", "lemmas", "--n", "16", "--samples", "2000", "--seed", "10"
    )
    assert code == 0
    payload = json.loads(out)
    assert "factor_nine" in payload
    assert "separated_pair_K6" in payload


def test_repro_four_point(capsys):
    code, out, err = run(capsys, "repro", "four-point")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "scenario: four-point" in err


def test_repro_arctan_quick(capsys):
    code, out, _ = run(
        capsys, "repro", "arctan", "--t-grid", "1,10", "--samples", "2000"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_repro_sweep_quick(capsys):
    code, out, _ = run(
        capsys, "repro", "sweep", "--n", "8", "--k-list", "1,2", "--trials", "2"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_repro_all_writes_directory(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, _, _ = run(
        capsys, "repro", "all", "--n", "8", "--k-list", "1", "--trials", "1",
        "--t-grid", "1", "--samples", "500", "--out", str(out_dir),
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["arctan.json", "four_point.json", "sweep.json"]
    for p in out_dir.iterdir():
        assert json.loads(p.read_text())["passed"] is True


def test_outdir_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPMETRICS_OUTDIR", str(tmp_path))
    code, _, _ = run(capsys, "gen", "--n", "4", "--seed", "1")
    assert code == 0
    assert (tmp_path / "cloud.csv").exists()


def test_bad_input_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "delta", "--cloud", str(tmp_path / "missing.csv"))
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "verify", "axioms")
    assert code == 2


def test_repro_reports_deterministic(capsys):
    _, out1, _ = run(capsys, "repro", "sweep", "--n", "8", "--k-list", "1", "--trials", "2")
    _, out2, _ = run(capsys, "repro", "sweep", "--n", "8", "--k-list", "1", "--trials", "2")
    assert out1 == out2


CLOUD_CSV = "label,x1,x2\na,0,0\nb,1,0\nc,0,1\nd,1,1\ne,2,2\n"
SPEC_JSON = (
    '{"base": {"dim": 2, "points": [{"coords": [0, 0]}, {"coords": [1, 0]}, '
    '{"coords": [0, 1]}, {"coords": [1, 1]}]}, '
    '"punctures": [[3.0, 3.0]], "variant": "tau_p", "anchor": ANCHOR}'
)


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"m.json": '{"n": 2, "entries": [[0, 1], [1, 0]'}, ["delta", "--matrix", "{d}/m.json"]),
        ({"s.json": '{"base": {"dim": 2,'}, ["delta", "--spec", "{d}/s.json"]),
        ({"c.csv": CLOUD_CSV}, ["delta", "--cloud", "{d}/c.csv", "--punctures", "[[3.0, 3.0]"]),
        ({"c.csv": CLOUD_CSV}, ["delta", "--cloud", "{d}/c.csv", "--punctures", '[[3.0, "a"]]']),
        (
            {"c.csv": CLOUD_CSV, "p.json": "[[3.0, 3.0]"},
            ["delta", "--cloud", "{d}/c.csv", "--punctures", "@{d}/p.json"],
        ),
        ({"c.json": '{"dim": 2, "points": ['}, ["delta", "--cloud", "{d}/c.json"]),
        ({"m.csv": "0,1,2\n1,0\n"}, ["delta", "--matrix", "{d}/m.csv"]),
        ({"m.csv": "0,x\nx,0\n"}, ["delta", "--matrix", "{d}/m.csv"]),
        ({}, ["repro", "arctan", "--t-grid", "1,x"]),
        ({}, ["repro", "arctan", "--t-grid", "1,1e8"]),
        ({}, ["repro", "sweep", "--k-list", "1,y"]),
        ({"c.csv": CLOUD_CSV}, ["delta", "--cloud", "{d}/c.csv", "--workers", "0"]),
        (
            {"c.csv": CLOUD_CSV},
            ["delta", "--cloud", "{d}/c.csv", "--mode", "sampled", "--workers", "-3"],
        ),
        ({"m.json": '{"n": "abc", "entries": [[0]]}'}, ["delta", "--matrix", "{d}/m.json"]),
        ({"m.json": '{"n": 1e999, "entries": [[0]]}'}, ["delta", "--matrix", "{d}/m.json"]),
        (
            {"c.json": '{"dim": "x", "points": [{"coords": [0, 0]}]}'},
            ["verify", "ptolemy", "--cloud", "{d}/c.json"],
        ),
        ({"s.json": SPEC_JSON.replace("ANCHOR", '"x"')}, ["delta", "--spec", "{d}/s.json"]),
        ({"s.json": SPEC_JSON.replace("ANCHOR", "[0]")}, ["delta", "--spec", "{d}/s.json"]),
        ({"s.json": SPEC_JSON.replace("ANCHOR", "0.7")}, ["delta", "--spec", "{d}/s.json"]),
        (
            {"s.json": SPEC_JSON.replace("[[3.0, 3.0]]", "[[3.0, 3.0], [4.0, 4.0]]")
             .replace("ANCHOR", "true")},
            ["delta", "--spec", "{d}/s.json"],
        ),
        (
            {"c.csv": CLOUD_CSV, "p.json": "5"},
            ["dist", "--cloud", "{d}/c.csv", "--punctures", "@{d}/p.json", "--out", "{d}/o.json"],
        ),
        (
            {"s.json": SPEC_JSON.replace("[[3.0, 3.0]]", "5").replace("ANCHOR", "null")},
            ["delta", "--spec", "{d}/s.json"],
        ),
        (
            {"c.csv": CLOUD_CSV},
            ["dist", "--cloud", "{d}/c.csv", "--punctures", "[true, false]", "--variant", "avg_tau",
             "--out", "{d}/o.json"],
        ),
        (
            {"c.csv": CLOUD_CSV},
            ["dist", "--cloud", "{d}/c.csv", "--punctures", "[[true, 3.0]]", "--out", "{d}/o.json"],
        ),
        (
            {"s.json": SPEC_JSON.replace("[[3.0, 3.0]]", "[[3.0, false]]").replace("ANCHOR", "0")},
            ["delta", "--spec", "{d}/s.json"],
        ),
        (
            {"s.json": SPEC_JSON.replace('"tau_p"', '"avg_tau"').replace("ANCHOR", "0")},
            ["delta", "--spec", "{d}/s.json"],
        ),
        (
            {"s.json": SPEC_JSON.replace("ANCHOR", "0")},
            ["verify", "sandwich", "--kind", "avg", "--spec", "{d}/s.json"],
        ),
        (
            {"s.json": SPEC_JSON.replace('"tau_p"', '"avg_tau"').replace("ANCHOR", "null")},
            ["verify", "sandwich", "--kind", "tau", "--spec", "{d}/s.json"],
        ),
        (
            {"s.json": SPEC_JSON.replace('"tau_p"', '"tilde_avg_tau"').replace("ANCHOR", "0")},
            ["verify", "sandwich", "--kind", "avg", "--spec", "{d}/s.json"],
        ),
        (
            {"h.csv": "label,x1,x2\na,8e307,8e307\nb,-8e307,-8e307\nc,0,1\n"},
            ["verify", "sandwich", "--kind", "taxicab", "--cloud", "{d}/h.csv",
             "--out", "{d}/h.json"],
        ),
        (
            {"c.json": '{"dim": 2, "points": [{"coords": [0, true]}, {"coords": [1, 1]}]}'},
            ["dist", "--cloud", "{d}/c.json", "--out", "{d}/o.json"],
        ),
        (
            {"s.json": SPEC_JSON.replace("[0, 1]", "[0, true]").replace("ANCHOR", "0")},
            ["delta", "--spec", "{d}/s.json"],
        ),
    ],
    ids=[
        "matrix-json",
        "spec-json",
        "inline-punctures-json",
        "non-numeric-punctures",
        "punctures-file-json",
        "cloud-json",
        "ragged-matrix-csv",
        "non-numeric-matrix-csv",
        "t-grid",
        "t-grid-too-large",
        "k-list",
        "workers-0",
        "workers-negative",
        "matrix-n-not-a-number",
        "matrix-n-overflows",
        "cloud-dim-not-a-number",
        "spec-anchor-not-a-number",
        "spec-anchor-a-list",
        "spec-anchor-a-float",
        "spec-anchor-a-boolean",
        "punctures-file-scalar",
        "spec-punctures-scalar",
        "punctures-booleans",
        "punctures-boolean-in-row",
        "spec-punctures-boolean-in-row",
        "spec-anchor-beside-avg_tau",
        "sandwich-avg-spec-outside-pair",
        "sandwich-tau-spec-outside-pair",
        "sandwich-avg-spec-anchor",
        "sandwich-taxicab-overflow",
        "cloud-json-boolean-coordinate",
        "spec-base-boolean-coordinate",
    ],
)
def test_malformed_input_exit_2(tmp_path, capsys, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


BIG_INT = "9" * 400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "files, argv, what",
    [
        ({"m.json": f'{{"n": 2, "entries": [[0, {BIG_INT}], [{BIG_INT}, 0]]}}'},
         ["delta", "--matrix", "{d}/m.json"], "distance matrix"),
        ({"c.json": '{"dim": 2, "points": [{"coords": [0, BIG]}, {"coords": [1, 1]}]}'
          .replace("BIG", BIG_INT)},
         ["dist", "--cloud", "{d}/c.json", "--out", "{d}/o.json"], "point coordinates"),
        ({"c.csv": CLOUD_CSV, "p.json": f"[[{BIG_INT}, 0.0]]"},
         ["dist", "--cloud", "{d}/c.csv", "--punctures", "@{d}/p.json", "--out", "{d}/o.json"],
         "puncture coordinates"),
    ],
    ids=["matrix", "cloud", "punctures"],
)
def test_integer_past_the_float_range_exit_2(tmp_path, capsys, files, argv, what):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith(f"error: {what}") and "int too large to convert to float" in err


def test_verify_sandwich_avg_needs_no_variant(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "12", "--seed", "4", "--out", str(cloud))
    (tmp_path / "p.json").write_text("[[2.0, 2.0], [-1.0, 0.5], [0.5, 3.0]]")
    argv = ["verify", "sandwich", "--kind", "avg", "--cloud", str(cloud),
            "--punctures", f"@{tmp_path / 'p.json'}"]
    code, out, _ = run(capsys, *argv, "--variant", "avg_tau")
    assert code == 0
    assert json.loads(out)["sandwich_avg"]["checked"] > 0
    for variant in (["--variant", "tilde_avg_tau"], []):
        assert run(capsys, *argv, *variant)[:2] == (0, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["repro", "sweep", "--trials", "0"],
        ["repro", "sweep", "--trials", "-1"],
        ["verify", "lemmas", "--samples", "-5"],
        ["delta", "--matrix", "{d}/latin1.json"],
        ["delta", "--matrix", "{d}"],
        ["gen", "--n", "3", "--low", "1", "--high", "0"],
        ["gen", "--n", "3", "--low", "nan"],
        ["gen", "--n", "3", "--low=-1e308", "--high=1e308"],
        ["gen", "--n", "3", "--seed=-1"],
        ["verify", "lemmas", "--n", "5", "--samples", "5", "--seed=-1"],
        ["verify", "lemmas", "--n", "5", "--samples", "5", "--tol", "nan"],
        ["verify", "lemmas", "--n", "5", "--samples", "5", "--tol", "inf"],
    ],
    ids=["sweep-trials-0", "sweep-trials-negative", "lemmas-samples-negative",
         "matrix-not-utf8", "matrix-is-directory", "gen-low-above-high", "gen-nan-bound",
         "gen-range-overflows", "gen-negative-seed", "lemmas-negative-seed", "lemmas-nan-tol",
         "lemmas-inf-tol"],
)
def test_bad_counts_and_unreadable_files_exit_2(tmp_path, capsys, argv):
    (tmp_path / "latin1.json").write_bytes('{"n": 2, "name": "caf\xe9"}'.encode("latin-1"))
    code, _, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ")


INPUT = ["--cloud", "--matrix", "--spec", "--metric", "--punctures", "--variant", "--anchor"]
LEMMAS = ["--cloud", "--metric", "--n", "--dim", "--k", "--samples", "--seed"]
ARCTAN = ["--t-grid", "--samples", "--seed"]
SWEEP = ["--n", "--k-list", "--trials", "--seed"]
#: The option strings each command path accepts (``--help`` aside).
FLAGS = {
    ("gen",): ["--n", "--dim", "--seed", "--low", "--high", "--out"],
    ("dist",): INPUT + ["--out"],
    ("delta",): INPUT + ["--mode", "--samples", "--seed", "--workers", "--out"],
    ("verify", "axioms"): INPUT + ["--tol", "--out"],
    ("verify", "ptolemy"): INPUT + ["--tol", "--out"],
    ("verify", "sandwich"): INPUT + ["--kind", "--tol", "--out"],
    ("verify", "lemmas"): LEMMAS + ["--tol", "--out"],
    ("repro", "four-point"): ["--tol", "--out"],
    ("repro", "arctan"): ARCTAN + ["--tol", "--out"],
    ("repro", "sweep"): SWEEP + ["--tol", "--out"],
    ("repro", "all"): ARCTAN + SWEEP + ["--tol", "--out"],
}


def _accepted_flags(parser, path=()):
    """(command path, option strings) of each leaf parser under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        for name, child in subs[0].choices.items():
            yield from _accepted_flags(child, (*path, name))
    else:
        yield path, {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}


def test_each_command_accepts_only_the_flags_it_reads():
    accepted = dict(_accepted_flags(build_parser()))
    assert accepted == {path: set(flags) for path, flags in FLAGS.items()}
    assert sum(map(len, accepted.values())) == 84


OLD_VERIFY = INPUT + ["--kind", "--n", "--dim", "--k", "--samples", "--seed", "--tol", "--out"]
OLD_REPRO = ["--t-grid", "--samples", "--n", "--k-list", "--trials", "--seed", "--tol", "--out"]
#: Each (command path, flag) pair accepted before every verify target and
#: repro scenario had a parser of its own, and never read.
REMOVED = [
    (path, flag)
    for path, flags in FLAGS.items()
    for flag in {"verify": OLD_VERIFY, "repro": OLD_REPRO}.get(path[0], [])
    if flag not in flags
]
VALUES = {"--kind": "avg", "--n": "5", "--dim": "3", "--k": "2", "--samples": "3",
          "--seed": "1", "--matrix": "{d}/m.json", "--spec": "{d}/s.json", "--punctures": "0",
          "--variant": "avg_tau", "--anchor": "0", "--t-grid": "1", "--k-list": "1",
          "--trials": "2"}
CLOUD = ["--cloud", "{d}/c.csv"]
SPEC = ["--spec", "{d}/s.json"]
#: The input files of each call, large enough for a delta.
UNREAD_FILES = {
    "c.csv": CLOUD_CSV,
    "m.json": '{"n": 4, "entries": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]}',
    "s.json": '{"base": {"dim": 2, "points": [{"coords": [0, 0]}, {"coords": [1, 0]}, '
    '{"coords": [0, 1]}, {"coords": [1, 1]}]}, "punctures": [[3.0, 3.0]], "variant": "tau_p"}',
}
MATRIX = ["--matrix", "{d}/m.json"]
#: Two coordinate punctures off the 5-point cloud, so a delta has 5 points.
TWO_COORDS = "[[3.0, 3.0], [4.0, 4.0]]"
#: --metric beside a --matrix or --spec input, which has no base metric or
#: holds its own; a sandwich over a matrix needs a puncture, and dist an --out.
METRIC_UNREAD = {
    f"{name}-{source[0][2:]}-and-metric": [*path, *source, "--metric", "d1"]
    for name, path, matrix in [
        ("dist", ["dist", "--out", "{d}/out.json"], MATRIX),
        ("delta", ["delta"], MATRIX),
        ("axioms", ["verify", "axioms"], MATRIX),
        ("ptolemy", ["verify", "ptolemy"], MATRIX),
        ("sandwich-tau", ["verify", "sandwich", "--kind", "tau"], [*MATRIX, "--punctures", "0"]),
        ("sandwich-avg", ["verify", "sandwich", "--kind", "avg"], [*MATRIX, "--punctures", "0"]),
    ]
    for source in (matrix, SPEC)
}


@pytest.mark.parametrize(
    "argv, flag",
    [([*path, flag, VALUES[flag]], flag) for path, flag in REMOVED]
    + [
        (["dist", *CLOUD, "--matrix", "{d}/m.json"], "--matrix"),
        (["verify", "axioms", *SPEC, *CLOUD], "--cloud"),
        (["dist", *CLOUD, "--variant", "avg_tau"], "--variant"),
        (["delta", *CLOUD, "--anchor", "0"], "--anchor"),
        (["delta", *SPEC, "--punctures", "0"], "--punctures"),
        (["dist", *SPEC, "--variant", "tau_p"], "--variant"),
        (["verify", "ptolemy", *SPEC, "--anchor", "0"], "--anchor"),
        (["verify", "sandwich", "--kind", "avg", *SPEC, "--variant", "avg_tau"], "--variant"),
        (["verify", "sandwich", "--kind", "taxicab", *CLOUD, "--punctures", "0"], "--punctures"),
    ]
    + [(argv, "--metric") for argv in METRIC_UNREAD.values()]
    + [
        (["verify", "sandwich", "--kind", "taxicab", *CLOUD, "--metric", "d1"], "--metric"),
        (["verify", "sandwich", "--kind", "tau", *CLOUD, "--punctures", "0",
          "--variant", "sup_tau"], "--variant"),
        (["verify", "sandwich", "--kind", "avg", *CLOUD, "--punctures", "0",
          "--variant", "j"], "--variant"),
        (["verify", "sandwich", "--kind", "avg", *CLOUD, "--punctures", "0,1",
          "--anchor", "1"], "--anchor"),
        (["verify", "lemmas", *CLOUD, "--samples", "3", "--n", "5"], "--n"),
        (["verify", "lemmas", *CLOUD, "--samples", "3", "--dim", "3"], "--dim"),
        (["dist", *CLOUD, "--punctures", TWO_COORDS, "--variant", "avg_tau", "--anchor", "1",
          "--out", "{d}/o.json"], "--anchor"),
        (["delta", *CLOUD, "--punctures", TWO_COORDS, "--variant", "sup_tau", "--anchor", "1"],
         "--anchor"),
        (["verify", "axioms", *CLOUD, "--punctures", TWO_COORDS, "--variant", "tilde_avg_tau",
          "--anchor", "0"], "--anchor"),
        (["verify", "ptolemy", *CLOUD, "--punctures", TWO_COORDS, "--variant", "j",
          "--anchor", "0"], "--anchor"),
    ],
    ids=[f"{'-'.join(path)}-{flag[2:]}" for path, flag in REMOVED]
    + ["cloud-and-matrix", "spec-and-cloud", "variant-without-punctures",
       "anchor-without-punctures", "spec-and-punctures", "spec-and-variant", "spec-and-anchor",
       "sandwich-spec-and-variant", "taxicab-and-punctures"]
    + list(METRIC_UNREAD)
    + ["taxicab-and-metric", "sandwich-tau-variant-outside-pair",
       "sandwich-avg-variant-outside-pair", "sandwich-avg-and-anchor",
       "lemmas-cloud-and-n", "lemmas-cloud-and-dim", "dist-anchor-beside-avg_tau",
       "delta-anchor-beside-sup_tau", "axioms-anchor-beside-tilde_avg_tau",
       "ptolemy-anchor-beside-j"],
)
def test_unread_flags_exit_2(tmp_path, capsys, argv, flag):
    for name, text in UNREAD_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        code = main([a.format(d=tmp_path) for a in argv])
    except SystemExit as exc:  # argparse rejects the flag, after printing usage
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and "Traceback" not in err


SPEC_JSON = (
    '{"base": {"dim": 2, "points": [{"coords": [0, 0]}]}, "punctures": [[1, 1]], '
    '"variant": "tau_p"}'
)


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("m.json", '{"n": 1, "entries": [[0]]}', ["delta", "--matrix", "{p}"]),
        ("m.csv", "0,1\n1,0\n", ["delta", "--matrix", "{p}"]),
        ("c.json", '{"dim": 1, "points": []}', ["delta", "--cloud", "{p}"]),
        ("c.csv", CLOUD_CSV, ["delta", "--cloud", "{p}"]),
        ("p.json", "[[3.0, 3.0]]", ["delta", "--cloud", "{d}/ok.csv", "--punctures", "@{p}"]),
        ("s.json", SPEC_JSON, ["delta", "--spec", "{p}"]),
    ],
    ids=["matrix-json", "matrix-csv", "cloud-json", "cloud-csv", "punctures-file", "spec"],
)
def test_non_utf8_file_is_named(tmp_path, capsys, name, text, argv):
    (tmp_path / "ok.csv").write_text(CLOUD_CSV, encoding="utf-8")
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8") + "é".encode("latin-1"))
    code, _, err = run(capsys, *(a.format(d=tmp_path, p=path) for a in argv))
    assert code == 2
    assert err.startswith("error: ") and str(path) in err


HUGE_INT = "1" + "0" * 5000  # past Python's 4,300-digit integer conversion limit


@pytest.mark.parametrize(
    "text",
    [f"[[{HUGE_INT}, 0.0]]", "[" * 100_000],
    ids=["5001-digit-integer", "100000-nested-brackets"],
)
@pytest.mark.parametrize(
    "name, argv",
    [
        ("m.json", ["delta", "--matrix", "{p}"]),
        ("c.json", ["delta", "--cloud", "{p}"]),
        ("s.json", ["delta", "--spec", "{p}"]),
        ("p.json", ["delta", "--cloud", "{d}/ok.csv", "--punctures", "@{p}"]),
        (None, ["delta", "--cloud", "{d}/ok.csv", "--punctures", "{t}"]),
    ],
    ids=["matrix", "cloud-json", "spec", "punctures-file", "punctures-inline"],
)
def test_json_past_the_decoder_limits_is_named(tmp_path, capsys, text, name, argv):
    (tmp_path / "ok.csv").write_text(CLOUD_CSV, encoding="utf-8")
    path = tmp_path / str(name)
    if name is not None:
        path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, *(a.format(d=tmp_path, p=path, t=text) for a in argv))
    assert code == 2
    source = "--punctures" if name is None else str(path)
    assert err.startswith(f"error: {source}: malformed JSON: ")
    assert "Traceback" not in err


def test_delta_of_huge_entries_is_valid_json(tmp_path, capsys):
    entries = np.full((5, 5), 1e308)
    np.fill_diagonal(entries, 0.0)
    path = tmp_path / "huge.json"
    DistanceMatrix(entries).save(path)

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    for mode in ("exact", "sampled"):
        code, out, _ = run(capsys, "delta", "--matrix", str(path), "--mode", mode,
                           "--samples", "3", "--workers", "1")
        assert code == 0
        assert json.loads(out, parse_constant=reject)["delta"] == 0.0


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_dist_writes_reference_encoder_bytes(tmp_path, capsys, reference_matrix_bytes, suffix):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "15", "--seed", "8", "--out", str(cloud))
    punctures = [[2.5, 2.5], [3.0, -1.0]]
    out = tmp_path / f"m{suffix}"
    code, _, _ = run(capsys, "dist", "--cloud", str(cloud), "--punctures", json.dumps(punctures),
                     "--variant", "avg_tau", "--out", str(out))
    assert code == 0
    want = punctured_matrix(PuncturedSpec(load_point_cloud(cloud), punctures, "avg_tau"))
    assert out.read_bytes() == reference_matrix_bytes(want, suffix)


def test_verify_lemmas_same_on_mu_rows_and_tables(capsys, monkeypatch):
    from hypmetrics import cli, verify

    argv = ("verify", "lemmas", "--n", "12", "--samples", "500")
    _, natural, _ = run(capsys, *argv)
    lookup = verify._mu_lookup
    for count in (0, float("inf")):  # every mu on rows, then from tables
        forced = lambda e, P, log, _, c=count: lookup(e, P, log, c)  # noqa: E731
        monkeypatch.setattr(verify, "_mu_lookup", forced)
        monkeypatch.setattr(cli, "_mu_lookup", forced)
        assert run(capsys, *argv)[1] == natural


def test_verify_lemmas_holds_one_quasi_ptolemy_batch():
    # at the defaults each quasi-Ptolemy batch is (100000, 4, 4) floats, 12.8 MB;
    # a distance batch kept alive while the mu batch is built reads 3.7 times that
    import tracemalloc

    from hypmetrics import cli

    args = build_parser().parse_args(["verify", "lemmas"])
    tracemalloc.start()
    try:
        reports = cli._verify_lemmas(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reports.values())
    assert peak < 3.2 * 100000 * 16 * 8


def test_verify_lemmas_refuses_k_below_one_before_any_checker(capsys, monkeypatch):
    from hypmetrics import cli

    calls = []
    for name in ("check_mu_bounds", "check_lemma_nine", "check_product_lemma",
                 "check_mu_P_quasi_triangle", "check_lemma_K", "check_quasi_ptolemy_many"):
        checker = getattr(cli, name)
        wrapped = lambda *a, _c=checker, _n=name, **kw: calls.append(_n) or _c(*a, **kw)  # noqa: E731
        monkeypatch.setattr(cli, name, wrapped)
    assert run(capsys, "verify", "lemmas", "--n", "8", "--samples", "20")[0] == 0
    assert len(calls) == 9  # the wrappers count: four lemmas, three K values, two batches
    calls.clear()
    code, _, err = run(capsys, "verify", "lemmas", "--n", "8", "--samples", "20", "--k", "0")
    assert code == 2 and err == "error: need --k >= 1, got 0\n"
    assert calls == []
