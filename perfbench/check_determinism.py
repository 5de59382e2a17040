"""Check that two runs with one seed give bit-identical numeric outputs.

    python3 perfbench/check_determinism.py [workload ...]

For each workload, runs one round twice with the same seed and once with
another seed, in fresh processes. Each run prints a digest of its numeric
outputs: distortions, rates, multipliers and noise spectra in process,
and the CLI's JSON and CSV files, written with SOURCE_DATE_EPOCH set.
Timings are not in the digest. The two same-seed digests must be equal
and the other seed's must differ. Exits 1 on a mismatch.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cosine", "ar1")


def digest(workload: str, seed: int) -> str:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    return next(line.split()[1] for line in out.splitlines() if line.startswith("digest:"))


def main(argv: list[str]) -> int:
    bad = 0
    for workload in argv or WORKLOADS:
        first, again, other = digest(workload, 7), digest(workload, 7), digest(workload, 8)
        same, differs = first == again, first != other
        print(f"{workload}: same seed {'identical' if same else 'DIFFERENT'}, "
              f"other seed {'different' if differs else 'IDENTICAL'}")
        bad += not (same and differs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
