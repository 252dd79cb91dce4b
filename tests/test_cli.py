import json

import numpy as np
import pytest

from hypmetrics import DistanceMatrix, PuncturedSpec, load_point_cloud, punctured_matrix
from hypmetrics.cli import main


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
        "k-list",
        "workers-0",
        "workers-negative",
        "matrix-n-not-a-number",
        "matrix-n-overflows",
        "cloud-dim-not-a-number",
        "spec-anchor-not-a-number",
        "spec-anchor-a-list",
    ],
)
def test_malformed_input_exit_2(tmp_path, capsys, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, _, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_sandwich_avg_needs_no_variant(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    run(capsys, "gen", "--n", "12", "--seed", "4", "--out", str(cloud))
    argv = ["verify", "sandwich", "--kind", "avg", "--cloud", str(cloud),
            "--punctures", "[[2.0, 2.0], [-1.0, 0.5], [0.5, 3.0]]"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    code_v, out_v, _ = run(capsys, *argv, "--variant", "avg_tau")
    assert code_v == 0
    assert out == out_v


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
