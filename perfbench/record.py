"""Records the outputs that the benchmark's correctness gate compares against.

    python3 perfbench/record.py

Runs one pass of every workload (``respond`` once per recorded seed) on the
sources in ``src`` and writes ``golden.json``: the SHA-256 of every ``--out``
file, and for ``respond`` a 12-hex digest of the canonical form of every
item's library results, concatenated per seed. Record only from a commit
whose outputs are known to be right; the file in the repository was recorded
at the seed commit of the benchmark. A pass that fails a paper-level or
oracle check aborts the recording.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Seeds whose respond outputs are recorded: 0..99, plus the held-out seed
# kept for confirming later performance claims.
RESPOND_SEEDS = list(range(100)) + [1000003]


def _one_pass(name: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](workdir, seed)
        checks = workload.setup()
        result = workload.run_pass(tracing.Tracer(tracing.ENUMERATION_ONLY, keep_spans=False), reference.Pacer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = checks.problems + result.problems
    if problems:
        sys.exit("refusing to record failing outputs:\n" + "\n".join(problems))
    return {**checks.digests, **result.digests}


def main():
    workdir = BENCH_DIR.parent / ".perfbench-run" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    golden = {name: _one_pass(name, 0, workdir) for name in ("enumerate", "strong")}
    respond = {}
    for seed in RESPOND_SEEDS:
        digests = _one_pass("respond", seed, workdir)
        respond[str(seed)] = "".join(digests[f"item{k}"] for k in range(len(digests)))
    golden["respond"] = respond
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
