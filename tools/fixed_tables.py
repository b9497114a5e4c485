"""Write minvar's fixed-seed tables and print the sha256 of each.

The determinism contract says these tables are byte-identical for a given
seed, so running this script on two commits and diffing the output shows
whether a change moved any bit of them:

    PYTHONPATH=src python tools/fixed_tables.py OUT_DIR

It writes, through `minvar.cli.main`:

  * the analytic benchmark's reference slice at N = 1000 (lognormal sigmas,
    seed 7): `replica` for the noshort, equality and eta = (0.3, 1.5)
    constraints, and the `weights` table;
  * `replica` under a ban with a positive-side penalty, eta = (0.3, inf),
    on the same universe, the one route of `general_l1_solve` that no
    corner table reaches;
  * one no-short and one equality `simulate` at N = 50;
  * an equality `simulate` at N = 400 (r = 0.5, 1.5, 2.5, two trials
    each), at the benchmark's scale, whose flat trials (T < N) are solved
    on their panels;
  * a no-short `simulate` at N = 400 (r = 1, 1.9, 2.5, two trials each),
    whose corrals of a few hundred assets exercise the drops and ratio
    ties that N = 50 barely reaches, and the same call with `--threads 2`,
    which runs the thread pool and a second sweep in one process; the spec
    line omits the thread count, so the two files are byte-identical;
  * a `weights` table with Monte Carlo bins at N = 50 (r = 0.5, 1.5, 20
    trials each), so the `mc_mass` column is diffed too;
  * a `phase` table at N = 50 (r = 1.5, 1.9, 2.5, 20 trials each), written
    after the `simulate` tables by the same parser, so its subparser
    defaults (the no-short constraint, the phase columns) are diffed too;
  * a no-short `simulate` at N = 50 on r = 0.5, 1, 1.25 (T = 100, 50, 40,
    so the achieved grid is the requested one, 20 trials each), `replica`
    on the same grid, and the `compare` of the two.

and prints one `sha256  name` line per table. What minvar itself prints
(the `compare` verdict) goes to stderr, so stdout holds only those lines.
A sweep runs the OpenBLAS that the Linux numpy and scipy wheels bundle at
one thread itself, so there the tables do not depend on the BLAS thread
count. BLAS is still pinned to one thread through the environment, before
numpy is loaded, for the builds a sweep cannot find (other wheels'
libraries, MKL, a system BLAS), whose no-short Monte Carlo tables hold per
BLAS configuration only.
"""

from __future__ import annotations

import argparse
import contextlib
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
    "replica-ban-eta1.csv": ("replica", "--eta1", "0.3", "--eta2", "inf",
                             "--r-grid", "0.05:1.95:0.1", *SIGMA),
    "weights.csv": ("weights", "--trials", "0", "--bin-width", "0.25",
                    "--r-grid", "0.5,1.9", *SIGMA),
    "weights-mc.csv": ("weights", "--n", "50", "--trials", "20", "--r-grid", "0.5,1.5",
                       "--bin-width", "0.25", "--seed", "3"),
    "simulate-noshort-n50.csv": ("simulate", "--constraint", "noshort", "--n", "50",
                                 "--r-grid", "0.5,1.0,1.5,1.9,2.5",
                                 "--trials", "20", "--seed", "3"),
    "simulate-noshort-n400.csv": ("simulate", "--constraint", "noshort", "--n", "400",
                                  "--r-grid", "1,1.9,2.5", "--trials", "2", "--seed", "3"),
    "simulate-noshort-n400-threads2.csv": ("simulate", "--constraint", "noshort",
                                           "--n", "400", "--r-grid", "1,1.9,2.5",
                                           "--trials", "2", "--seed", "3",
                                           "--threads", "2"),
    "simulate-equality-n50.csv": ("simulate", "--constraint", "equality", "--n", "50",
                                  "--r-grid", "0.5,0.9,1.5", "--trials", "20",
                                  "--seed", "3"),
    "simulate-equality-n400.csv": ("simulate", "--constraint", "equality", "--n", "400",
                                   "--r-grid", "0.5,1.5,2.5", "--trials", "2",
                                   "--seed", "3"),
    "phase-n50.csv": ("phase", "--n", "50", "--r-grid", "1.5,1.9,2.5", "--trials", "20",
                      "--seed", "3"),
    "compare-simulate-n50.csv": ("simulate", "--n", "50", "--r-grid", "0.5,1,1.25",
                                 "--trials", "20", "--seed", "3"),
    "compare-replica-n50.csv": ("replica", "--n", "50", "--r-grid", "0.5,1,1.25"),
    # {out} is the output directory: compare reads the two tables above
    "compare-n50.csv": ("compare", "{out}/compare-replica-n50.csv",
                        "{out}/compare-simulate-n50.csv"),
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
        with contextlib.redirect_stdout(sys.stderr):
            code = minvar_main([*(a.format(out=args.out_dir) for a in argv_t), "--out", path])
        if code != 0:
            print(f"exit {code}  {name}")
            status = 1
            continue
        with open(path, "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
