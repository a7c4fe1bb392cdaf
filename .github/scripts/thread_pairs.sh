#!/bin/sh
# Console-script thread checks that two CI jobs share: each run on the caller
# plus helper threads must byte-compare with the same run on one thread.
# Outputs go under the current directory.
set -eu

# selftest's table1 (p = 40) draws 512-row blocks: a draw width of 3300
# takes 256-row blocks, a short last block and noise tiles.
maxgap levy --kind table1 --p 3000 --reps 2100 --threads 3 --out blocks3
maxgap levy --kind table1 --p 3000 --reps 2100 --threads 1 --out blocks1
cmp blocks3/levy_table1-p3000-s0.csv blocks1/levy_table1-p3000-s0.csv

# More threads than chunks: 1500 replicates are 2 chunks, so the run clamps
# to 2 workers, and the second chunk (476 rows) ends on a short 220-row
# block, so one worker's buffers serve blocks of two heights.
maxgap levy --kind table1 --p 3000 --reps 1500 --threads 8 --out clamp8
maxgap levy --kind table1 --p 3000 --reps 1500 --threads 1 --out clamp1
cmp clamp8/levy_table1-p3000-s0.csv clamp1/levy_table1-p3000-s0.csv

# The factor designs built in place: both halves of heterog_condA from one
# draw, and homog_overlap's copied rows, each with row norms over three tiles.
maxgap levy --kind heterog_condA --p 600 --d 5 --reps 2100 --threads 3 --out condA3
maxgap levy --kind heterog_condA --p 600 --d 5 --reps 2100 --threads 1 --out condA1
cmp condA3/levy_heterog_condA-p600-d5-s0.csv condA1/levy_heterog_condA-p600-d5-s0.csv
maxgap levy --kind homog_overlap --p 600 --d 7 --k 20 --reps 2100 --threads 3 --out overlap3
maxgap levy --kind homog_overlap --p 600 --d 7 --k 20 --reps 2100 --threads 1 --out overlap1
cmp overlap3/levy_homog_overlap-p600-d7-k20-s0.csv overlap1/levy_homog_overlap-p600-d7-k20-s0.csv

# The only CLI run of two distinct Schur residual laws (blocks of 40 and
# 560), held one at a time, with a partial last chunk.
maxgap bounds-compare --kind k0_split --p 600 --k0 40 --rho 0.3 --reps 3001 --mc 2000 --threads 3 --out k0split3
maxgap bounds-compare --kind k0_split --p 600 --k0 40 --rho 0.3 --reps 3001 --mc 2000 --threads 1 --out k0split1
cmp k0split3/bounds_k0_split-p600-k0_40-rho0.3-s0.csv k0split1/bounds_k0_split-p600-k0_40-rho0.3-s0.csv
