"""Record the reference digests that run.py compares every output against.

    python3 perfbench/record_reference.py

Run from the root of a checkout. For every workload, at both sizes, it runs
one pass on every input set of the pool and writes the output digests to
perfbench/reference.json from scratch. It stops without writing if any call
fails its exit-code or output checks, so only outputs that pass are
recorded. Record only at a commit whose outputs are known to be right: the
reference is what later commits must reproduce.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HERE, Runner, import_package
from workloads import POOL, WORKLOADS


def main() -> int:
    root = Path.cwd()
    runner = Runner(import_package(root).cli)
    digests: dict = {}
    work = root / ".perfbench-work" / "record"
    try:
        for size in ("tiny", "full"):
            for name in sorted(WORKLOADS):
                workload = WORKLOADS[name]
                table = digests.setdefault(size, {})[name] = {}
                for index in range(POOL):
                    shutil.rmtree(work, ignore_errors=True)
                    work.mkdir(parents=True)
                    workload.prepare(work, index, size)
                    seconds, table[str(index)] = runner.run_pass(workload.ops(work, index, size), None)
                    if runner.failed:
                        sys.stderr.write(f"record: {name} {size} input {index} failed; nothing written\n")
                        return 1
                    print(f"{size} {name} {index}: {seconds:.3f} s", flush=True)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    ref = {"pool": POOL, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
