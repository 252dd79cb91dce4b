"""The four benchmark workloads: seeded inputs, the CLI calls of one pass,
and the checks every call's output must pass.

A workload seed picks one of ``POOL`` input sets (``index = seed % POOL``).
The digests of every input set's outputs are recorded in
``reference.json``, so each output of each run is compared against the
output the seed commit produced for the same inputs.

Each workload has two sizes. ``full`` is what the benchmark measures;
``tiny`` runs the same commands on small inputs, as the warm-up inside
set-up and in the self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

POOL = 32

#: 3 log 3 + log 2, the four-point constant the paper proves for avg_tau.
AVG_TAU_BOUND = 3.0 * math.log(3.0) + math.log(2.0)

#: Report floats are compared at this many significant digits, and matrix
#: entries at 1e-6. Vectorised log1p, log and arctan differ in the last bits
#: between CPUs with and without AVX-512; a real change moves far more.
REPORT_DIGITS = 8
MATRIX_SCALE = 1e6


@dataclass
class Op:
    """One CLI call of a pass.

    ``outputs`` maps a payload label to ``(path, kind)``, where kind is
    ``report`` (JSON), ``matrix`` (distance-matrix JSON) or ``csv``.
    ``check`` gets every payload loaded so far in the pass and returns the
    problems it finds.
    """

    name: str
    argv: list[str]
    outputs: dict[str, tuple[Path, str]]
    check: Callable[[dict], list[str]]


# ---------------------------------------------------------------------------
# inputs


def _rng(index: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([index, salt])))


def _place_punctures(rng, pts: np.ndarray, k: int, min_gap: float = 1e-3) -> np.ndarray:
    """k points in the unit square, each at least ``min_gap`` from every
    cloud point and every earlier puncture."""
    placed: list[np.ndarray] = []
    while len(placed) < k:
        cand = rng.uniform(0.0, 1.0, size=pts.shape[1])
        ref = np.vstack([pts, *placed]) if placed else pts
        if np.sqrt(((ref - cand) ** 2).sum(axis=1)).min() >= min_gap:
            placed.append(cand)
    return np.array(placed)


def avg_tau_matrix(pts: np.ndarray, punctures: np.ndarray) -> np.ndarray:
    """The averaged one-point metric, written independently of the package:
    mean over p of log(1 + 2 d(x,y) / sqrt(d(x,p) d(y,p))). Exactly
    symmetric with a zero diagonal."""
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    gaps = np.sqrt(((pts[:, None, :] - punctures[None, :, :]) ** 2).sum(axis=-1))
    acc = np.zeros_like(d)
    for a in range(punctures.shape[0]):
        acc += np.log1p(2.0 * d / np.sqrt(np.outer(gaps[:, a], gaps[:, a])))
    return acc / punctures.shape[0]


def _write_cloud(path: Path, pts: np.ndarray) -> None:
    lines = ["label," + ",".join(f"x{j + 1}" for j in range(pts.shape[1]))]
    lines += [f"x{i}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(pts)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_cloud(path: Path) -> np.ndarray:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")[1:]] for row in rows if row])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks


def _passed(*labels: str):
    def check(payloads: dict) -> list[str]:
        return [f"{label}: passed is not true" for label in labels if payloads[label].get("passed") is not True]

    return check


def _no_violations(label: str, expect: dict[str, Callable[[dict], bool]] | None = None):
    """Every report in a verify payload is clean; ``expect`` adds a test
    per report name."""

    def check(payloads: dict) -> list[str]:
        problems = []
        reports = payloads[label]
        for name, rep in reports.items():
            if rep["violations"]:
                problems.append(f"{label}.{name}: {len(rep['violations'])} violations")
        for name, test in (expect or {}).items():
            if name not in reports or not test(reports[name]):
                problems.append(f"{label}.{name}: unexpected report {reports.get(name)!r:.200}")
        return problems

    return check


def _delta_ok(label: str, mode: str, quads: int, n: int):
    def check(payloads: dict) -> list[str]:
        rep = payloads[label]
        problems = []
        if rep["mode"] != mode or rep["quadruples"] != quads:
            problems.append(f"{label}: mode {rep['mode']} with {rep['quadruples']} quadruples")
        if not 0.0 <= rep["delta"] <= AVG_TAU_BOUND * (1.0 + 1e-9):
            problems.append(f"{label}: delta {rep['delta']} outside [0, 3 log 3 + log 2]")
        wit = rep["witness"]
        if sorted(set(wit)) != wit or len(wit) != 4 or not 0 <= wit[0] <= wit[3] < n:
            problems.append(f"{label}: bad witness {wit}")
        return problems

    return check


def scrub(node):
    """The payload without its ``elapsed_ms`` timing fields."""
    if isinstance(node, dict):
        return {k: scrub(v) for k, v in node.items() if k != "elapsed_ms"}
    if isinstance(node, list):
        return [scrub(v) for v in node]
    return node


def _canon(node):
    if isinstance(node, dict):
        return {k: _canon(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_canon(v) for v in node]
    if isinstance(node, float):
        return format(node, f".{REPORT_DIGITS}g")
    return node


def load_payload(path: Path, kind: str):
    if kind == "csv":
        return path.read_bytes()
    obj = json.loads(path.read_text(encoding="utf-8"))
    if kind == "matrix":
        return np.array(obj["entries"], dtype=float)
    return scrub(obj)


def digest(kind: str, payload) -> str:
    if kind == "csv":
        data = payload
    elif kind == "matrix":
        data = repr(payload.shape).encode() + np.rint(payload * MATRIX_SCALE).astype(np.int64).tobytes()
    else:
        data = json.dumps(_canon(payload), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads


class ReproAll:
    """``repro all`` at its defaults: 420 exact deltas at n=40."""

    name = "repro-all"
    why = "the paper reproduction: 420 exact deltas at n=40, where per-call numpy overhead dominates"

    def prepare(self, work: Path, index: int, size: str) -> None:
        (work / "repro").mkdir(exist_ok=True)

    def ops(self, work: Path, index: int, size: str) -> list[Op]:
        out = work / "repro"
        argv = ["repro", "all", "--seed", str(index), "--out", str(out)]
        if size == "tiny":
            argv += ["--n", "8", "--k-list", "1,2", "--trials", "2", "--samples", "2000",
                     "--t-grid", "1,10"]
        outputs = {
            f"repro.{name}": (out / f"{name}.json", "report")
            for name in ("four_point", "arctan", "sweep")
        }
        return [Op("repro_all", argv, outputs, _passed(*outputs))]


class DeltaN200:
    """Exact delta of a 200-point avg_tau space at 1 and at 2 workers."""

    name = "delta-n200"
    why = "one large exact delta, serial then with a 2-process pool; each inner step is ~3,300 quadruples"

    def _n(self, size: str) -> int:
        return 200 if size == "full" else 12

    def prepare(self, work: Path, index: int, size: str) -> None:
        rng = _rng(index, 200)
        pts = rng.uniform(0.0, 1.0, size=(self._n(size), 2))
        _write_cloud(work / "cloud.csv", pts)
        _write_json(work / "punctures.json", _place_punctures(rng, pts, 4).tolist())

    def ops(self, work: Path, index: int, size: str) -> list[Op]:
        n = self._n(size)
        base = ["delta", "--cloud", str(work / "cloud.csv"),
                "--punctures", "@" + str(work / "punctures.json"), "--variant", "avg_tau"]

        def same_as_w1(payloads: dict) -> list[str]:
            if payloads["delta.w2"] != payloads["delta.w1"]:
                return ["delta.w2: report differs from --workers 1"]
            return _delta_ok("delta.w2", "exact", math.comb(n, 4), n)(payloads)

        return [
            Op("delta_w1", base + ["--workers", "1", "--out", str(work / "w1.json")],
               {"delta.w1": (work / "w1.json", "report")},
               _delta_ok("delta.w1", "exact", math.comb(n, 4), n)),
            Op("delta_w2", base + ["--workers", "2", "--out", str(work / "w2.json")],
               {"delta.w2": (work / "w2.json", "report")}, same_as_w1),
        ]


class VerifyBattery:
    """Triangle sweep on 400 points, Ptolemy on 100, and the lemma battery."""

    name = "verify-battery"
    why = "the checkers: an n^3 triangle sweep that sets peak memory, an n^4 Ptolemy sweep and the sampled lemmas"

    def _sizes(self, size: str) -> tuple[int, int]:
        return (400, 100) if size == "full" else (16, 10)

    def prepare(self, work: Path, index: int, size: str) -> None:
        n_axioms, n_ptolemy = self._sizes(size)
        rng = _rng(index, 400)
        pts = rng.uniform(0.0, 1.0, size=(n_axioms, 2))
        matrix = avg_tau_matrix(pts, _place_punctures(rng, pts, 4))
        _write_json(work / "avg_tau.json", {"n": n_axioms, "entries": matrix.tolist()})
        _write_cloud(work / "ptolemy.csv", _rng(index, 100).uniform(0.0, 1.0, size=(n_ptolemy, 2)))

    def ops(self, work: Path, index: int, size: str) -> list[Op]:
        n_axioms, n_ptolemy = self._sizes(size)
        lemmas = ["--seed", str(index)]
        if size == "tiny":
            lemmas += ["--n", "12", "--samples", "500"]
        quads = math.comb(n_ptolemy, 4)
        return [
            Op("verify_axioms",
               ["verify", "axioms", "--matrix", str(work / "avg_tau.json"),
                "--out", str(work / "axioms.json")],
               {"verify.axioms": (work / "axioms.json", "report")},
               _no_violations("verify.axioms", {
                   "axioms": lambda r: r["checked"] == n_axioms**3 + n_axioms**2 + n_axioms * (n_axioms + 1) // 2
                   and r["meta"]["offdiagonal_positive"] is True})),
            Op("verify_ptolemy",
               ["verify", "ptolemy", "--cloud", str(work / "ptolemy.csv"),
                "--out", str(work / "ptolemy.json")],
               {"verify.ptolemy": (work / "ptolemy.json", "report")},
               _no_violations("verify.ptolemy", {
                   "ptolemy": lambda r: r["checked"] == quads and r["meta"]["quadruples"] == quads})),
            Op("verify_lemmas",
               ["verify", "lemmas", *lemmas, "--out", str(work / "lemmas.json")],
               {"verify.lemmas": (work / "lemmas.json", "report")},
               _no_violations("verify.lemmas", {
                   name: lambda r: r["checked"] > 0
                   for name in ("mu_bounds", "factor_nine", "product_split", "muP_quasi_triangle",
                                "separated_pair_K4", "separated_pair_K6", "separated_pair_K10",
                                "quasi_ptolemy_K1", "quasi_ptolemy_K1.5")})),
        ]


class PipelineN1000:
    """gen -> dist -> sampled delta -> sandwich on a 1000-point cloud."""

    name = "pipeline-n1000"
    why = "file I/O and matrix construction: writes and reads a 1000x1000 JSON matrix, no exact delta"

    def _sizes(self, size: str) -> tuple[int, int, int]:
        return (1000, 8, 1_000_000) if size == "full" else (20, 2, 2000)

    def prepare(self, work: Path, index: int, size: str) -> None:
        _, k, _ = self._sizes(size)
        # Outside the unit square, so no point of the generated cloud can
        # sit on a puncture.
        punctures = _rng(index, 1000).uniform(1.25, 2.0, size=(k, 2))
        _write_json(work / "punctures.json", punctures.tolist())

    def ops(self, work: Path, index: int, size: str) -> list[Op]:
        n, _, samples = self._sizes(size)
        cloud, matrix = work / "cloud.csv", work / "matrix.json"
        punct = ["--punctures", "@" + str(work / "punctures.json")]

        def cloud_ok(payloads: dict) -> list[str]:
            rows = payloads["gen.cloud"].decode().splitlines()
            return [] if len(rows) == n + 1 else [f"gen.cloud: {len(rows) - 1} points, want {n}"]

        def matrix_ok(payloads: dict) -> list[str]:
            got = payloads["dist.matrix"]
            pts = _read_cloud(cloud)
            punctures = np.array(json.loads((work / "punctures.json").read_text()))
            want = avg_tau_matrix(pts, punctures)
            if got.shape != want.shape:
                return [f"dist.matrix: shape {got.shape}, want {want.shape}"]
            err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
            return [] if err <= 1e-12 else [f"dist.matrix: off the reference by {err:.3g}"]

        return [
            Op("gen", ["gen", "--n", str(n), "--seed", str(index), "--out", str(cloud)],
               {"gen.cloud": (cloud, "csv")}, cloud_ok),
            Op("dist", ["dist", "--cloud", str(cloud), *punct, "--variant", "avg_tau",
                        "--out", str(matrix)],
               {"dist.matrix": (matrix, "matrix")}, matrix_ok),
            Op("delta_sampled",
               ["delta", "--matrix", str(matrix), "--mode", "sampled", "--samples", str(samples),
                "--seed", str(index), "--workers", "2", "--out", str(work / "delta.json")],
               {"delta.sampled": (work / "delta.json", "report")},
               _delta_ok("delta.sampled", "sampled", samples, n)),
            # --variant avg_tau is required: without it the default tau_p
            # rejects k > 1 punctures before --kind avg can override it.
            Op("verify_sandwich",
               ["verify", "sandwich", "--kind", "avg", "--variant", "avg_tau", "--cloud", str(cloud),
                *punct, "--out", str(work / "sandwich.json")],
               {"verify.sandwich": (work / "sandwich.json", "report")},
               _no_violations("verify.sandwich", {
                   "sandwich_avg": lambda r: r["checked"] == n * (n - 1)})),
        ]


WORKLOADS = {w.name: w for w in (ReproAll(), DeltaN200(), VerifyBattery(), PipelineN1000())}
