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
#   and without a theta;
#   the profile integrations of R2_9 at a negative C1 and across its pole,
#   three Laplace chains of depth 2 and 3, and malformed command-line
#   inputs (the config files they read are written into <out-dir>).
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

# profiles: a negative C1 takes the real cube root of 2 C1, and a span
# across the pole at z = 0 of the default profile, -1/z, is a verdict
run reduce_R2_9_C1_neg reduce --id R2_9 --param C1=-1
run verify_window_F_R29_PAINLEVE2_C1_neg verify --family F_R29_PAINLEVE2 \
    --param C1=-2 \
    --grid '{"t": [0.1, 1.0, 3], "x": [0.3, 0.6, 3], "y": [0.3, 0.6, 3]}'
run reduce_R2_9_pole_span reduce --id R2_9 --param 'span=[-2.0, 0.5]'
# a witness undefined at some probe points, valid on the family's box
run verify_gaussian_t0_F_HOPFCOLE2D verify --family F_HOPFCOLE2D \
    --param 'Phi={"kind": "gaussian", "t0": 0.5}'

# Laplace chains: three (u,v) steps; a (u,q) step, then a (u,v) step on
# the field converted back, which reads the w the conversion carried;
# two forward (u,v) steps, the second reading the first image's w
chain_grid='{"t": [0.9, 1.3, 2], "x": [0.4, 1.0, 2], "y": [0.4, 0.9, 2]}'
vxxx1=(--family F_VXXX_1 --param 'alpha=sin(y)' --param 'beta=2+cos(y)'
       --param 'gamma=y' --param 'delta=1')
run chain_depth3_F_VXXX_1 transform "${vxxx1[@]}" \
    --chain '[{"op": "laplace_fwd_uv"}, {"op": "laplace_inv_uv"}, {"op": "laplace_fwd_uv"}]' \
    --grid "$chain_grid" --base '[1.0, 0.0, 0.5]'
run chain_uq_uv_F_VXXX_1 transform "${vxxx1[@]}" \
    --chain '[{"op": "laplace_fwd_uq"}, {"op": "laplace_fwd_uv"}]' \
    --grid "$chain_grid" --base '[1.0, 0.0, 0.5]'
run chain_fwd_fwd_F_VXXX_5 transform --family F_VXXX_5 \
    --chain '[{"op": "laplace_fwd_uv"}, {"op": "laplace_fwd_uv"}]' \
    --grid "$chain_grid" --base '[1.0, 0.0, 0.5]'

# malformed inputs
echo '{"family": "F_UY0_TRIV", "tolerance": 1e-30}' > "$out/undeclared.json"
echo '{"id": "R2_9", "span": [-2, -1]}' > "$out/reduce_span.json"
echo '{"family": "F_UY0_TRIV", "grid": {}}' > "$out/grid_empty.json"
echo '{"family": "F_UY0_TRIV", "grid": null}' > "$out/grid_null.json"
echo '{"family": "F_UY0_TRIV", "tol": "1e-6"}' > "$out/tol_string.json"
run malformed_grid_count_fraction verify --family F_UY0_TRIV \
    --grid '{"t": [0.5, 1, 2.5], "x": [0, 1, 2], "y": [0, 1, 2]}'
run malformed_grid_count_string verify --family F_UY0_TRIV \
    --grid '{"t": [0.5, 1, 2], "x": [0, 1, "2"], "y": [0, 1, 2]}'
run malformed_grid_count_bool verify --family F_UY0_TRIV \
    --grid '{"t": [0.5, 1, 2], "x": [0, 1, 2], "y": [0, 1, true]}'
for config in undeclared grid_empty grid_null tol_string; do
    run "malformed_config_$config" verify --config "$out/$config.json"
done
run malformed_config_reduce_span reduce --config "$out/reduce_span.json"
run malformed_perturb_nan verify --family F_UY0_TRIV --perturb nan
run malformed_tol_not_json verify --family F_UY0_TRIV --tol .5
run malformed_list_constraint list --constraint bogus
run malformed_witness_undefined verify --family F_VX0 \
    --param 'Phi={"kind": "gaussian"}'
run malformed_zeta_not_finite verify --family F_UY0_QA --param 'zeta=1e400*y'
run malformed_zeta_superscript verify --family F_UY0_QA --param 'zeta=y+²'
