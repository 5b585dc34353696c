"""The point-symmetry group in action, and its Lie algebra.

A group element acts by

    t~ = T(t), x~ = eps sqrt(T_t) x + X0(t), y~ = Y(y),
    u~ = eps u/sqrt(T_t) - eps T_tt x/(4 T_t^(3/2)) - X0_t/(2 T_t),
    v~ = v/Y_y + V0(y).

Applying one to a solution field gives another solution field; the
residual check below demonstrates it on a composed, randomly built
element.  The infinitesimal counterpart is the algebra spanned by
D(f), S(alpha), P(g), Z(beta), whose structure is verified by sampling.
The demo exits 1 if a residual of the image exceeds 1e-7, the bound that
the acceptance criteria and the benchmark set for symmetry images.
"""

import sys

from blp import catalog, liealg, transforms
from blp.jets import Point
from blp.system import residual

field = catalog.instantiate("F_UEQV", {"alpha": "4+sin(y)"})

g1 = transforms.d_transform("t + 0.3*sin(t)")
g2 = transforms.s_transform("y + 0.4*sin(y)")
g3 = transforms.p_transform("0.2*t^2")
g = g3.compose(g2.compose(g1))
moved = transforms.apply_symmetry(g, field)

residuals = []
for p in [Point(0.9, 0.4, 0.6), Point(1.2, -0.1, 0.8)]:
    r = residual(moved, p)
    print("residual after the composed group element:", r)
    residuals.extend(r)
if not all(abs(r) <= 1e-7 for r in residuals):  # a NaN fails too
    sys.exit(f"a residual of the symmetry image exceeds 1e-7: {residuals}")

print()
print("Bracket relations, evaluated as sampled coefficient functions:")
br = liealg.commutator(liealg.D("t"), liealg.D("t^2"))
print("[D(t), D(t^2)] =", br)
br = liealg.commutator(liealg.S("1"), liealg.Z("y"))
print("[S(1), Z(y)]   =", br)
br = liealg.commutator(liealg.P("1"), liealg.D("t^2"))
print("[P(1), D(t^2)] =", br)

print()
print("Closure of the bundled subalgebra classification:")
lib = liealg.load_subalgebra_library()
closed = sum(1 for s in lib if liealg.check_subalgebra(s).closed)
print(f"{closed}/{len(lib)} bundled subalgebras close under the bracket")

table = liealg.load_normalizer_table()
label = "s1.1"
sub, gens = table[label]
print(f"normalizer generators of {label} all certified:",
      all(liealg.normalizer_check(gq, sub) for gq in gens))
print("Z(y^2) correctly rejected:",
      not liealg.normalizer_check(liealg.Z("y^2"), sub))
