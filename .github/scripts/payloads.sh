#!/bin/sh
# Payloads of a fixed set of commands that read Sigma, written into DIR
# without their .meta.json sidecars (which hold wall-clock times).  Run it
# on two checkouts, at the same OPENBLAS_NUM_THREADS (an explicit spec's
# root depends on the BLAS thread count), and compare with `diff -r` to
# check that a change moves no output byte:
#
#   sh .github/scripts/payloads.sh DIR
#
# maxgap runs as `python3 -m maxgap`, from the installed package or from
# PYTHONPATH.  The whole set takes a few seconds on one core.
set -eu
dir=$1
mkdir -p "$dir"
mg() { python3 -m maxgap "$@"; }

# Every bound on every design kind, and five designs at p > 512, past two
# tiles: an explicit matrix, a factor with noise, a Schur residual law, and
# two noise-free factors whose Schur residuals read factor tiles, with a
# partial last tile of 88 and the A/B split inside the second tile.
bc() { mg bounds-compare --reps 1000 --mc 500 --eps 0.05,0.2 --out "$dir" "$@"; }
bc --kind homog_lowrank --p 40 --d 3
bc --kind homog_overlap --p 40 --d 4 --k 6
bc --kind heterog_condA --p 40 --d 3
bc --kind heterog_violation --p 48 --profile v0875
bc --kind fullrank_equicorr --p 40 --rho 0.5
bc --kind table1 --p 40
bc --kind exchangeable_overlap --p 38 --k 2 --rho 0.3
bc --kind heterog_violation --p 560 --profile v0875
bc --kind table1 --p 600
bc --kind k0_split --p 600 --k0 40 --rho 0.3
bc --kind heterog_condA --p 600
bc --kind homog_overlap --p 600 --d 7 --k 20

mg levy --kind homog_lowrank --p 2000 --reps 2000 --eps 0.01,0.05 --out "$dir"
# eps = 0.001 doubles the scan grid's intervals past its 999, and the eps = 0.01
# row is read on that refined grid.
mg levy --kind exchangeable_overlap --p 120 --k 20 --rho 0.3 --reps 5000 --eps 0.001,0.01 \
    --out "$dir"

mg scaling --study rho_sweep_fullrank --p 30 --points 3 --reps 300 --out "$dir"
mg scaling --study rho_sweep_lowrank --p 30 --d 3 --points 2 --reps 300 --out "$dir"
mg scaling --study k0_sweep --k0 3 --p-list 8,12 --reps 300 --out "$dir"

# The bootstrap on a generated 80 x 10 CSV: a leading block, then an
# interleaved one; and on a 60 x 600 CSV with every third column in A, whose
# index-array selectors span three tiles.
gen() { python3 -c "import sys, numpy as np; np.savetxt(sys.argv[1], np.random.default_rng(1).standard_normal(($1, $2)), delimiter=',')" "$3"; }
gen 80 10 "$dir/xi.csv"
mg bootstrap --data "$dir/xi.csv" --split 4 --breps 800 --out "$dir/bootstrap_split.json"
mg bootstrap --data "$dir/xi.csv" --a 0,3,5,8 --breps 800 --out "$dir/bootstrap_a.json"
gen 60 600 "$dir/xi600.csv"
mg bootstrap --data "$dir/xi600.csv" --a "$(seq -s, 0 3 599)" --breps 800 \
    --out "$dir/bootstrap_thirds.json"

rm -f "$dir"/*.meta.json
