"""Benchmark of the hypmetrics command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each workload is a closed loop with one client: it calls
``hypmetrics.cli.main(argv)`` in this process, one call after another,
and repeats the workload's command sequence (a pass) for about
``--seconds``. Every call's exit code and outputs are checked; a call that
fails counts in ``failed`` and makes the command exit 1.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics: the pass time relative to a reference loop, peak memory and
set-up time. With ``--trace 1`` it holds the per-layer metrics of
``tracer.metrics``, from a traced pass after each untraced one. The line
before it records the host, the commit, the inputs and every pass time.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracer
from workloads import POOL, WORKLOADS, digest, load_payload

HERE = Path(__file__).resolve().parent
SETUP_REPS = 11
# setup_s is given in seconds on a host whose reference loop takes this long
# (about the median on the 2-core host of the README's baseline).
REFERENCE_NOMINAL_S = 0.15


class ReferenceLoop:
    """A fixed computation owned by the benchmark, timed after every pass
    and around every set-up.

    It mixes the three kinds of work the workloads do: small numpy arrays
    in a Python loop, vectorised four-point sums over a (k, l) grid, and
    JSON encoding and parsing. No change to the package can move it, so
    the pass time divided by it cancels the speed drift of a shared host
    (the same `repro all` pass took 7.3 s and 4.3 s fifteen minutes apart)
    while keeping every change to the package.
    """

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        pts = rng.uniform(size=(120, 2))
        self.d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        self.x = rng.uniform(size=64)
        self.floats = rng.uniform(size=20000).tolist()

    def seconds(self, at_least: float = 0.0) -> float:
        """Mean seconds of one loop, repeated for at least ``at_least``
        seconds so that a long pass gets a steadier reference."""
        loops = []
        while not loops or sum(loops) < at_least:
            loops.append(self._once())
        return statistics.fmean(loops)

    def _once(self) -> float:
        d, x = self.d, self.x
        t0 = time.perf_counter()
        for i in range(6000):
            a = x[i % 32:]
            s = a[:, None] + a[None, :]
            np.maximum(s, s.T).max()
        n = d.shape[0]
        for i in range(0, n - 3, 3):
            for j in range(i + 1, n - 2):
                s1 = d[i, j] + d[j + 1:, j + 1:]
                s2 = d[i, j + 1:, None] + d[j, None, j + 1:]
                np.maximum(s1, s2).max()
        json.loads(json.dumps(self.floats, indent=2))
        return time.perf_counter() - t0


class Runner:
    """Calls the CLI, checks each call's outputs, and counts failures.

    An output is checked in full the first time it appears. A later call
    whose outputs, and those of every earlier call of its pass, are
    byte-identical to a run that passed is counted as passed without
    parsing them again; the 8 MB matrix of pipeline-n1000 would otherwise
    cost a second per pass.
    """

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self._passed: dict[tuple, tuple[dict, dict]] = {}

    def call(self, argv: list[str]) -> tuple[float, object, str]:
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)  # looked up per call, so a tracer sees it
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed call, not the end of the run
            code = f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, code, err.getvalue()

    def run_pass(self, ops, expected: dict | None) -> tuple[float, dict]:
        """Run one pass; returns its seconds in CLI calls and the output
        digests. ``expected`` maps labels to reference digests; with None
        nothing is compared."""
        seen: dict = {}
        digests: dict = {}
        prefix: list[bytes] = []
        wall = 0.0
        for op in ops:
            seconds, code, err = self.call(op.argv)
            wall += seconds
            self.attempted += 1
            key = None
            if code == 0:
                with contextlib.suppress(OSError):
                    prefix += [hashlib.sha256(path.read_bytes()).digest() for path, _ in op.outputs.values()]
                    key = (op.name, tuple(prefix))
            if key in self._passed:
                payloads, digs = self._passed[key]
            else:
                payloads, digs, problems = self._check(op, code, seen, expected)
                if problems:
                    self.failed += 1
                    for problem in problems:
                        sys.stderr.write(f"perfbench: {op.name}: {problem}\n")
                    sys.stderr.write(err[-2000:])
                    continue
                if key is not None:
                    self._passed[key] = (payloads, digs)
            seen.update(payloads)
            digests.update(digs)
        return wall, digests

    @staticmethod
    def _check(op, code, seen, expected) -> tuple[dict, dict, list[str]]:
        if code != 0:
            return {}, {}, [f"exit code {code}"]
        try:
            payloads = {label: load_payload(path, kind) for label, (path, kind) in op.outputs.items()}
            problems = op.check({**seen, **payloads})
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return {}, {}, [f"unreadable output: {type(exc).__name__}: {exc}"]
        digests = {label: digest(kind, payloads[label]) for label, (_, kind) in op.outputs.items()}
        if expected is not None:
            problems += [
                f"{label}: digest {d}, reference {expected.get(label)}"
                for label, d in digests.items() if expected.get(label) != d
            ]
        return payloads, digests, problems


def import_package(root: Path):
    """Import hypmetrics afresh from ``root/src`` (numpy stays loaded)."""
    src = root / "src"
    if not (src / "hypmetrics" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/hypmetrics under {root}; run from a checkout root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "hypmetrics" or m.startswith("hypmetrics.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hypmetrics")
    importlib.import_module("hypmetrics.cli")
    if Path(pkg.__file__).resolve().parent != (src / "hypmetrics").resolve():
        raise SystemExit(f"perfbench: imported hypmetrics from {pkg.__file__}, not from {src}")
    return pkg


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _llc_bytes() -> int:
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        with contextlib.suppress(OSError, ValueError):
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1]


def _git_sha(root: Path) -> str:
    """The commit checked out at root, read from .git without running git
    (a checkout without .git gets "unknown")."""
    git = root / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def host_record(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
    }


_anon_rss_at_fork_kb: list[int] = []


def _note_anon_rss_at_fork() -> None:
    """Record this process's anonymous resident memory (statm's resident
    minus shared pages) just before it forks a pool worker."""
    with contextlib.suppress(OSError, ValueError, IndexError):
        resident, shared = map(int, Path("/proc/self/statm").read_text().split()[1:3])
        _anon_rss_at_fork_kb.append((resident - shared) * (os.sysconf("SC_PAGE_SIZE") // 1024))


def peak_rss_mb() -> float:
    """High-water resident memory of this process plus what its largest
    waited-for child (a delta pool worker) added, in MB. A forked worker's
    resident count starts with the parent's anonymous pages, so those are
    subtracted from its high-water mark rather than counted twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    added = max(0, children - max(_anon_rss_at_fork_kb, default=0))
    return (own + added) * 1024 / 1e6


def load_reference(path: Path) -> dict:
    ref = json.loads(path.read_text(encoding="utf-8"))
    if ref.get("pool") != POOL:
        raise SystemExit(f"perfbench: {path} records pool {ref.get('pool')}, want {POOL}")
    return ref["digests"]


def run(args, root: Path) -> int:
    pkg = import_package(root)
    workload = WORKLOADS[args.workload]
    index = args.seed % POOL
    digests = load_reference(args.reference)
    expected = {size: digests.get(size, {}).get(workload.name, {}).get(str(index), {}) for size in ("full", "tiny")}
    runner = Runner(pkg.cli)
    work = root / ".perfbench-work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Set-up: import the package, write the inputs and run the workload
        # once at tiny size, which warms the file cache and the process pool.
        # The reference loop runs before each set-up and after the last: the
        # host's speed drifts within seconds, so set-up is scaled by the
        # reference taken around it, not by that of the passes.
        reference = ReferenceLoop()
        setup: list[float] = []
        setup_ref = [reference.seconds()]
        for rep in range(SETUP_REPS):
            measured, tiny = work / f"setup{rep}" / "measured", work / f"setup{rep}" / "tiny"
            measured.mkdir(parents=True)
            tiny.mkdir()
            t0 = time.perf_counter()
            pkg = import_package(root)
            runner.cli = pkg.cli
            workload.prepare(measured, index, args.size)
            workload.prepare(tiny, index, "tiny")
            runner.run_pass(workload.ops(tiny, index, "tiny"), expected["tiny"])
            setup.append(time.perf_counter() - t0)
            setup_ref.append(reference.seconds())
        ops = workload.ops(measured, index, args.size)

        # Passes run until the next one would end more than half a pass
        # past the deadline. A traced run follows each untraced pass with a
        # traced one. The reference loop runs after each pass for at least
        # a quarter of the pass. The mean untraced pass is divided by the
        # mean reference time: both span the same interleaved window, so the
        # host's drift cancels; the speed drifts within a pass too, so a
        # pass is not divided by the short samples next to it.
        trace = tracer.Tracer(pkg) if args.trace else None
        untraced: list[float] = []
        traced: list[float] = []
        ref: list[float] = []
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        while not untraced or time.perf_counter() + last / 2 < deadline:
            t0 = time.perf_counter()
            untraced.append(runner.run_pass(ops, expected[args.size])[0])
            ref.append(reference.seconds(untraced[-1] / 4))
            if trace is not None:
                trace.install()
                try:
                    traced.append(runner.run_pass(ops, expected[args.size])[0])
                finally:
                    trace.uninstall()
                ref.append(reference.seconds(untraced[-1] / 4))
            last = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    if trace is None:
        values = {
            "wall_rel": statistics.fmean(untraced) / statistics.fmean(ref),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setup) * REFERENCE_NOMINAL_S / statistics.median(setup_ref),
        }
    else:
        values = tracer.metrics(trace.spans, len(traced), sum(traced), statistics.fmean(untraced))
        values["wall_s"] = statistics.median(untraced)
        values["reference_s"] = statistics.median(ref)
        values["failed_frac"] = runner.failed / runner.attempted
    metrics = {name: {"value": v, "unit": tracer.unit(name)} for name, v in values.items()}
    print(json.dumps({
        "host": host_record(root),
        "workload": workload.name,
        "seed": args.seed,
        "input_index": index,
        "size": args.size,
        "setup_reps_s": setup,
        "setup_reference_s": setup_ref,
        "pass_s": untraced,
        "traced_pass_s": traced,
        "reference_s": ref,
    }))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if runner.failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="digests of the outputs at the seed commit")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size of the measured passes; tiny is for the self-test")
    args = ap.parse_args(argv)
    os.register_at_fork(before=_note_anon_rss_at_fork)
    return run(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
