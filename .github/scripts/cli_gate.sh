#!/usr/bin/env bash
# Check the outputs that cli_outputs.sh wrote into the directory $1, and
# name each command that fails its rule.  No command may print a
# traceback (an uncaught exception exits 1 with one on stderr), and each
# has the rule of the first name pattern it matches:
#
#   verify_*           blp verify on a family's default grid, on a grid
#                      inside a profile's window, or (verify_wide_*) on the
#                      wide grid, which crosses the domain edges of many
#                      families, so a batch drops the lanes its errors name
#                      and asks them alone: exit 0;
#   transform_*        one Laplace step: exit 0 or 1 is a verdict and 2 a
#                      toolkit error: exit <= 2;
#   darboux_*_dt2      a dt2 dressing without a theta skips every point
#                      (u + psi_x/psi vanishes when psi is built on the
#                      seed's own witness): exit <= 1;
#   darboux_*          the other Darboux dressings: exit 0;
#   reduce_*_pole_span a span across the pole of a profile: exit 1, with
#                      one JSON line on stdout whose last safe node lies
#                      in (-0.01, 0);
#   reduce_*           blp reduce: exit 0;
#   algebra            blp algebra: exit 0, with all 56 bundled
#                      subalgebras and all 7 normalizer lists checked and
#                      no closure or normalizer failure named;
#   chain_depth3_*     a depth-3 Laplace chain: exit <= 1;
#   chain_*            a depth-2 Laplace chain: exit 0;
#   malformed_*        a malformed input: exit 2, with one JSON error line
#                      on stderr;
#   nonfinite_*        an input whose residuals overflow: exit 1, with a
#                      report that fails and counts nonfinite points.
#
# A name that matches no pattern fails, and each set must be there.
# Exit 1 if any check fails.
#
# usage: bash .github/scripts/cli_gate.sh <out-dir>
set -u
out=$1
fail=0
for set in verify_ verify_wide_ transform_ darboux_ reduce_ algebra chain_ \
        malformed_ nonfinite_; do
    if ! ls "$out/$set"*.code > /dev/null 2>&1; then
        echo "no outputs of $set* in $out"; fail=1
    fi
done

# the file $1, one JSON object r, passes the Python test $2
holds() {
    python -c "import json, sys; r = json.load(sys.stdin); assert ($2)" \
        < "$1" 2> /dev/null
}

for code_file in "$out"/*.code; do
    [ -e "$code_file" ] || continue
    name=$(basename "$code_file" .code)
    code=$(cat "$code_file")
    case $name in
        verify_*) ok=$(( code == 0 )) ;;
        transform_*) ok=$(( code <= 2 )) ;;
        darboux_*_dt2) ok=$(( code <= 1 )) ;;
        darboux_*) ok=$(( code == 0 )) ;;
        reduce_*_pole_span)
            ok=$(( code == 1 ))
            holds "$out/$name.out" '-0.01 < r["last_safe"] < 0' || ok=0 ;;
        reduce_*) ok=$(( code == 0 )) ;;
        algebra)
            ok=$(( code == 0 ))
            holds "$out/$name.out" '(r["subalgebras_checked"],
                r["normalizer_lists_checked"]) == (56, 7)
                and r["closure_failures"] == r["normalizer_failures"] == []' \
                || ok=0 ;;
        chain_depth3_*) ok=$(( code <= 1 )) ;;
        chain_*) ok=$(( code == 0 )) ;;
        malformed_*)
            ok=$(( code == 2 ))
            [ "$(wc -l < "$out/$name.err")" -eq 1 ] \
                && holds "$out/$name.err" 'set(r) == {"error"}' || ok=0 ;;
        nonfinite_*)
            ok=$(( code == 1 ))
            holds "$out/$name.out" 'not r["passed"] and r["nonfinite"] > 0' \
                || ok=0 ;;
        *) echo "$name: no rule"; ok=0 ;;
    esac
    grep -q Traceback "$out/$name.err" && ok=0
    if [ "$ok" -ne 1 ]; then
        echo "$name: exit $code"; cat "$out/$name.err"; fail=1
    fi
done
exit $fail
