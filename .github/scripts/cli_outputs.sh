#!/usr/bin/env bash
# Write the outputs of a fixed set of blp commands, run from the source
# tree of the current directory with RuntimeWarning as an error, into the
# directory $1: for each command its stdout (.out), stderr (.err), exit
# code (.code) and CSV dump (.csv).  Two such directories, of two
# commits, compare with diff -rq; .github/scripts/cli_gate.sh checks the
# exit codes and stderr of one.
#
#   blp verify --csv for every family, on its default grid and on a wide
#   grid that crosses the domain edges of many families;
#   blp reduce --csv for R2_4 and R2_9;
#   blp algebra;
#   blp transform --csv for one step of each Laplace map (forward and
#   inverse, in (u,v) and in (u,q)) on a 2^3 grid of each family's box,
#   and for the single Darboux dressings over both constrained seeds, with
#   and without a theta.
#
# usage: cd <checkout> && bash .github/scripts/cli_outputs.sh <out-dir>
set -u
out=$1
mkdir -p "$out"
export PYTHONPATH=src

run() {
    name=$1; shift
    python -W error::RuntimeWarning -m blp.cli "$@" > "$out/$name.out" 2> "$out/$name.err"
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
while read -r family grid; do
    for op in laplace_fwd_uv laplace_fwd_uq laplace_inv_uv laplace_inv_uq; do
        run "transform_${op}_$family" transform --family "$family" \
            --chain "[{\"op\": \"$op\"}]" --grid "$grid" \
            --csv "$out/transform_${op}_$family.csv"
    done
done < <(python -c "
import json
from blp import catalog
for d in catalog.list_families():
    grid = {ax: [lo, hi, 2] for ax, (lo, hi) in zip('txy', d.box)}
    print(d.id, json.dumps(grid, separators=(',', ':')))")
theta='"theta": {"kind": "plane_exp", "k": 0.5}'
for seed in seed_qy0:q_y=0 seed_uyqy:u_y=q_y; do
    family=${seed%%:*}; constraint=${seed#*:}
    for step in dt1: dt2: "dt2:, $theta"; do
        op=${step%%:*}; extra=${step#*:}
        name="darboux_${family}_$op${extra:+_theta}"
        run "$name" transform --family "$family" \
            --chain "[{\"op\": \"$op\", \"phi\": {\"constraint\": \"$constraint\", \"zeta\": \"1+0.2*y^2\"$extra}}]" \
            --grid '{"t": [0.5, 1.0, 2], "x": [0.3, 0.9, 2], "y": [0.4, 1.0, 2]}' \
            --csv "$out/$name.csv"
    done
done
