#!/bin/sh
# The console script's documented exit codes, one command each: 0 success,
# 2 bad configuration, 3 every requested bound inapplicable, 4 I/O failure.
# A bad value (exit 2) must also print exactly one `error:` line and write
# no output.  Exit 1, a failed selftest check, needs a broken build and is
# not driven here.  Runs the installed `maxgap` in a fresh temporary
# directory, in about a second:
#
#   sh .github/scripts/exit_codes.sh
set -eu
cd "$(mktemp -d)"

# expect CODE OUT ARGS...: `maxgap ARGS --out OUT` must exit with CODE.
expect() {
    want=$1 out=$2
    shift 2
    code=0
    maxgap "$@" --out "$out" > stdout.txt 2> stderr.txt || code=$?
    if [ "$code" -ne "$want" ]; then
        echo "maxgap $*: exit $code, expected $want" >&2
        cat stderr.txt >&2
        exit 1
    fi
    if [ "$want" -eq 2 ] && { [ -e "$out" ] || [ "$(grep -c 'error:' stderr.txt)" -ne 1 ]; }; then
        echo "maxgap $*: wrote $out or printed other than one error line" >&2
        cat stderr.txt >&2
        exit 1
    fi
}

expect 2 reps levy --kind fullrank_equicorr --p 4 --rho 0.3 --reps 0
expect 2 seed.json gen-design --kind homog_lowrank --p 4 --d 2 --seed -1
expect 2 bounds bounds-compare --kind fullrank_equicorr --p 4 --rho 0.3 --bounds sharpest
# A rank-4 factor at p = 40: the baseline, the only bound asked for, needs a
# nonsingular covariance.
expect 3 singular bounds-compare --kind homog_lowrank --p 40 --d 4 --reps 200 --mc 200 \
    --bounds baseline
expect 4 boot.json bootstrap --data missing.csv
expect 0 levy levy --kind fullrank_equicorr --p 4 --rho 0.3 --reps 200 --eps 0.05
test -s levy/levy_fullrank_equicorr-p4-rho0.3-s0.csv
echo "exit codes 0, 2, 3 and 4: ok"
