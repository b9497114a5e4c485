"""Set-up of one benchmark workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

Imports minvar from src/, builds the workload's asset universe and makes one
small warm-up CLI call writing into WORKDIR. run.py times this process from
start to exit as the set-up time.
"""

import sys
from pathlib import Path

import workloads

workloads.pin_blas_threads()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import minvar.cli as cli  # noqa: E402

wl = workloads.WORKLOADS[sys.argv[1]]
cli.parse_sigma(wl.sigma, wl.n)
sys.exit(cli.main(wl.warmup_argv(str(Path(sys.argv[2]) / "warmup.csv"))))
