"""Record the reference tables the benchmark compares its fixed-seed slice against.

    python3 perfbench/make_reference.py

Run from the root of a minvar source tree. Writes perfbench/reference/
<workload>-<k>.csv for the k-th reference call of every workload. Re-record
only when a change is meant to alter minvar's numbers, and say so.
"""

import sys
from pathlib import Path

import workloads

workloads.pin_blas_threads()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import minvar.cli as cli  # noqa: E402


def main() -> int:
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for wl in workloads.WORKLOADS.values():
        for k, c in enumerate(wl.own_reference_calls()):
            out = out_dir / f"{wl.name}-{k}.csv"
            rc = cli.main(c.argv(str(out)))
            if rc != 0:
                print(f"{out.name}: exit code {rc}", file=sys.stderr)
                return 1
            print(out.relative_to(HERE.parent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
