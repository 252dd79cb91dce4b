"""Fuzz the command line with malformed files and out-of-range numeric
flags: every call must end in exit code 0, 1 or 2, never in a traceback.

Calls run in-process; an exception escaping ``main`` (or a numpy
``RuntimeWarning``, which the test configuration turns into one) fails
the test with the shrunk argv. Sizes stay small and every ``delta`` call
is serial, so an example takes milliseconds.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypmetrics.cassinian import VARIANTS
from hypmetrics.cli import main


def _mostly(good, odd) -> st.SearchStrategy:
    """``good`` three times in four, so most calls get past parsing."""
    return st.one_of(good, good, good, odd)


FINE = st.floats(-10.0, 10.0)
#: Non-finite, negative, tiny, huge and subnormal values.
ODD = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1.0, 1e-170, 1e160, 1e308, 5e-324])
VALUES = _mostly(FINE, ODD)
COUNTS = _mostly(st.integers(1, 9), st.integers(-2, 0))


def _mangled(text: str) -> st.SearchStrategy:
    """``text`` as it is (half the time), truncated, or with one character
    replaced."""
    cut = st.integers(0, max(0, len(text) - 1))
    return st.one_of(
        st.just(text),
        st.just(text),
        cut.map(lambda i: text[:i]),
        st.tuples(cut, st.sampled_from('x,"[]{}-')).map(
            lambda t: text[: t[0]] + t[1] + text[t[0] + 1 :]
        ),
    )


@st.composite
def clouds(draw) -> list:
    """Up to 7 points of ordinary coordinates; sometimes one coordinate is
    odd, sometimes the whole cloud is scaled by an odd value."""
    dim = draw(st.sampled_from([2, 2, 1, 3]))
    rows = draw(st.lists(st.lists(FINE, min_size=dim, max_size=dim), min_size=1, max_size=7))
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, dim - 1))] = draw(ODD)
    scale = draw(_mostly(st.just(1.0), ODD))
    return [[v * scale for v in row] for row in rows]


def _distances(points: list) -> list:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = np.array(points, dtype=float)
        return np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)).tolist()


def _cloud_json(points: list) -> str:
    return json.dumps({"dim": len(points[0]), "points": [{"coords": p} for p in points]})


def _cloud_csv(points: list) -> str:
    header = "label," + ",".join(f"x{j + 1}" for j in range(len(points[0])))
    return "\n".join([header] + [f"p{i}," + ",".join(map(repr, p)) for i, p in enumerate(points)])


PUNCTURES = st.one_of(
    st.lists(st.integers(-2, 8), min_size=0, max_size=3),
    st.lists(st.lists(VALUES, min_size=2, max_size=2), min_size=0, max_size=3),
)


@st.composite
def files(draw) -> dict:
    """Matrix, cloud, spec and puncture files, each well formed or mangled."""
    points = draw(clouds())
    matrix = _distances(points)
    if draw(st.integers(0, 3)) == 0:  # one odd entry, mirrored or not
        i, j = draw(st.integers(0, len(matrix) - 1)), draw(st.integers(0, len(matrix) - 1))
        matrix[i][j] = draw(ODD)
        if draw(st.booleans()):
            matrix[j][i] = matrix[i][j]
    n = draw(_mostly(st.just(len(matrix)), st.sampled_from([0, 9, "x"])))
    matrix_obj = {"n": n, "entries": matrix}
    spec = {
        "base": draw(st.sampled_from([json.loads(_cloud_json(points)), matrix_obj])),
        "punctures": draw(PUNCTURES),
        "variant": draw(_mostly(st.sampled_from(VARIANTS), st.just("bogus"))),
        "anchor": draw(st.one_of(st.none(), st.integers(-1, 3), st.just("x"))),
    }
    texts = {
        "m.json": json.dumps(matrix_obj),
        "m.csv": "\n".join(",".join(map(repr, row)) for row in matrix),
        "c.json": _cloud_json(points),
        "c.csv": _cloud_csv(points),
        "s.json": json.dumps(spec),
        "p.json": json.dumps(draw(PUNCTURES)),
    }
    return {name: draw(_mangled(text)) for name, text in texts.items()}


@st.composite
def calls(draw) -> tuple[dict, list]:
    """``(files, argv)``: file texts by name, and one command line that
    reads some of them (``{d}`` stands for their directory)."""
    texts = draw(files())
    command = draw(
        st.sampled_from(["gen", "dist", "delta", "axioms", "ptolemy", "sandwich", "lemmas"])
    )
    seed = f"--seed={draw(_mostly(st.integers(0, 5), st.integers(-3, -1)))}"
    tol = [f"--tol={draw(ODD)!r}"] if draw(st.integers(0, 3)) == 0 else []
    if command == "gen":
        low, high = draw(VALUES), draw(VALUES)
        return texts, ["gen", f"--n={draw(COUNTS)}", f"--dim={draw(COUNTS)}", seed,
                       f"--low={low!r}", f"--high={high!r}", "--out", "{d}/gen.csv"]
    if command == "lemmas":
        argv = ["verify", "lemmas", f"--n={draw(COUNTS) + 3}", f"--samples={draw(COUNTS)}",
                f"--k={draw(COUNTS)}", f"--dim={draw(COUNTS)}", seed, *tol]
        if draw(st.booleans()):
            argv.append("--cloud={d}/" + draw(st.sampled_from(["c.json", "c.csv"])))
        return texts, argv
    source = draw(st.sampled_from(["--matrix={d}/m.json", "--matrix={d}/m.csv",
                                   "--cloud={d}/c.json", "--cloud={d}/c.csv", "--spec={d}/s.json"]))
    inputs = [source, "--metric=" + draw(st.sampled_from(["euclidean", "taxicab", "d1", "d1+d2"]))]
    if draw(st.booleans()):
        punctures = st.sampled_from(["@{d}/p.json", "0", "0,1", "[[3,3]]", "9", "x"])
        inputs.append("--punctures=" + draw(punctures))
        inputs.append("--variant=" + draw(st.sampled_from(VARIANTS)))
    if draw(st.booleans()):
        inputs.append(f"--anchor={draw(st.integers(-1, 3))}")
    if command == "dist":
        return texts, ["dist", *inputs, "--out", "{d}/out.json"]
    if command == "delta":
        mode = draw(st.sampled_from(["exact", "sampled"]))
        return texts, ["delta", *inputs, f"--mode={mode}", f"--samples={draw(COUNTS)}", seed,
                       "--workers=1"]
    argv = ["verify", command, *inputs, *tol]
    if command == "sandwich":
        argv.append("--kind=" + draw(st.sampled_from(["tau", "avg", "taxicab"])))
    return texts, argv


def _run(texts: dict, argv: list) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as d:
        for name, text in texts.items():
            Path(d, name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([a.format(d=d) for a in argv])
            except SystemExit as exc:  # argparse rejects the flag
                code = exc.code
        return code, err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(calls())
@example(({}, ["gen", "--n=3", "--low=1", "--high=0", "--out", "{d}/gen.csv"]))
@example(({}, ["gen", "--n=3", "--low=nan", "--out", "{d}/gen.csv"]))
@example(({}, ["gen", "--n=3", "--low=0.0", "--high=-0.0", "--out", "{d}/gen.csv"]))
@example(({}, ["gen", "--n=3", "--low=-1e308", "--high=1e308", "--out", "{d}/gen.csv"]))
@example(({}, ["gen", "--n=3", "--seed=-1", "--out", "{d}/gen.csv"]))
@example(({}, ["verify", "lemmas", "--n=5", "--samples=5", "--tol=nan"]))
def test_cli_never_raises(call):
    texts, argv = call
    code, err = _run(texts, argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
