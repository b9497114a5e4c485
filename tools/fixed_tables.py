"""Write minvar's fixed-seed tables and print the sha256 of each.

The determinism contract says these tables are byte-identical for a given
seed, so running this script on two commits and diffing the output shows
whether a change moved any bit of them:

    PYTHONPATH=src python tools/fixed_tables.py OUT_DIR

It writes, through `minvar.cli.main`:

  * the analytic benchmark's reference slice at N = 1000 (lognormal sigmas,
    seed 7): `replica` for the noshort, equality and eta = (0.3, 1.5)
    constraints, and the `weights` table;
  * one no-short and one equality `simulate` at N = 50.

and prints one `sha256  name` line per table. BLAS is pinned to one thread
before numpy is loaded, since the no-short Monte Carlo tables hold per BLAS
configuration only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

SIGMA = ("--n", "1000", "--sigma", "lognormal:0.0,0.5,7")

TABLES = {
    "replica-noshort.csv": ("replica", "--constraint", "noshort",
                            "--r-grid", "0.05:1.95:0.1", *SIGMA),
    "replica-equality.csv": ("replica", "--constraint", "equality",
                             "--r-grid", "0.05:0.95:0.1", *SIGMA),
    "replica-penalized.csv": ("replica", "--eta1", "0.3", "--eta2", "1.5",
                              "--r-grid", "0.05:1.95:0.1", *SIGMA),
    "weights.csv": ("weights", "--trials", "0", "--bin-width", "0.25",
                    "--r-grid", "0.5,1.9", *SIGMA),
    "simulate-noshort-n50.csv": ("simulate", "--constraint", "noshort", "--n", "50",
                                 "--r-grid", "0.5,1.0,1.5,1.9,2.5",
                                 "--trials", "20", "--seed", "3"),
    "simulate-equality-n50.csv": ("simulate", "--constraint", "equality", "--n", "50",
                                  "--r-grid", "0.5,0.9,1.5", "--trials", "20",
                                  "--seed", "3"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory the tables are written to")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from minvar.cli import main as minvar_main

    os.makedirs(args.out_dir, exist_ok=True)
    status = 0
    for name, argv_t in TABLES.items():
        path = os.path.join(args.out_dir, name)
        code = minvar_main([*argv_t, "--out", path])
        if code != 0:
            print(f"exit {code}  {name}")
            status = 1
            continue
        with open(path, "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
