#!/usr/bin/env bash
# Check the exit codes (.code) and stderr (.err) that cli_outputs.sh wrote
# into the directory $1, and name each command that fails its rule:
#
#   verify_*       blp verify on a family's default grid: exit 0;
#   verify_wide_*  blp verify on the wide grid, which crosses the domain
#                  edges of many families, so a batch drops the lanes its
#                  errors name and asks them alone: exit 0, no traceback;
#   transform_*    one Laplace step: exit 0 or 1 is a verdict and 2 a
#                  toolkit error, but an uncaught exception exits 1 with
#                  a traceback: exit <= 2, no traceback;
#   darboux_*      one Darboux dressing: exit 0 and no traceback, except
#                  the dt2 runs without a theta, which skip every point
#                  (u + psi_x/psi vanishes when psi is built on the seed's
#                  own witness): exit <= 1 and no traceback.
#
# Each of the four sets must be there.  Exit 1 if any check fails.
#
# usage: bash .github/scripts/cli_gate.sh <out-dir>
set -u
out=$1
fail=0
for set in verify_ verify_wide_ transform_ darboux_; do
    if ! ls "$out/$set"*.code > /dev/null 2>&1; then
        echo "no outputs of $set* in $out"; fail=1
    fi
done
for code_file in "$out"/*.code; do
    [ -e "$code_file" ] || continue
    name=$(basename "$code_file" .code)
    code=$(cat "$code_file")
    tb=0
    grep -q Traceback "$out/$name.err" && tb=1
    case $name in
        verify_wide_*) ok=$(( code == 0 && !tb )) ;;
        verify_*) ok=$(( code == 0 )) ;;
        transform_*) ok=$(( code <= 2 && !tb )) ;;
        darboux_*_dt2) ok=$(( code <= 1 && !tb )) ;;
        darboux_*) ok=$(( code == 0 && !tb )) ;;
        *) continue ;;
    esac
    if [ "$ok" -ne 1 ]; then
        echo "$name: exit $code"; cat "$out/$name.err"; fail=1
    fi
done
exit $fail
