#!/usr/bin/env bash
# Write the outputs of a fixed set of blp commands, run from the source
# tree of the current directory, into the directory $1: for each command
# its stdout (.out), stderr (.err), exit code (.code) and CSV dump (.csv).
# Two such directories, of two commits, compare with diff -rq.
#
#   blp verify --csv for every family, on its default grid and on a wide
#   grid that crosses the domain edges of many families;
#   blp reduce --csv for R2_4 and R2_9;
#   blp algebra.
#
# usage: cd <checkout> && bash .github/scripts/cli_outputs.sh <out-dir>
set -u
out=$1
mkdir -p "$out"
export PYTHONPATH=src

run() {
    name=$1; shift
    python -m blp.cli "$@" > "$out/$name.out" 2> "$out/$name.err"
    echo $? > "$out/$name.code"
}

wide='{"t": [0.1, 1.0, 3], "x": [-2.0, 2.0, 9], "y": [-2.0, 2.0, 9]}'
families=$(python -c "from blp import catalog; print(' '.join(d.id for d in catalog.list_families()))")
for family in $families; do
    run "verify_$family" verify --family "$family" --csv "$out/verify_$family.csv"
    run "verify_wide_$family" verify --family "$family" --grid "$wide" \
        --csv "$out/verify_wide_$family.csv"
done
for id in R2_4 R2_9; do
    run "reduce_$id" reduce --id "$id" --csv "$out/reduce_$id.csv"
done
run algebra algebra
