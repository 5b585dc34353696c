"""Generating new solutions with Laplace and Darboux transformations.

In (u, q) coordinates the forward Laplace map is

    u~ = u + q_xy / q_y,   q~ = q + u~,

defined away from q_y = 0; over a fixed solution the covering system

    psi_xy + u psi_y + q_y psi = 0,   psi_t + psi_xx + 2 q_x psi = 0

supplies eigenfunctions that drive the two Darboux dressings.  Each
output below is verified against the (u, q) form of the system.
"""

from blp import jets, transforms
from blp.jets import Point
from blp.system import residual_uq

pts = [Point(0.7, 0.3, 0.45), Point(1.0, 0.6, 0.8)]


class Witness:
    """A three-mode heat witness whose x- and y-dependence stay entangled
    through two forward Laplace steps (two modes would collapse to a
    separable product after one step)."""
    @staticmethod
    def Phi(p, n):
        t, x, y = jets.coordinate_jets(p, n)
        return (jets.exp(0.5 * x + 0.25 * t)
                + (1.0 + y * y) * jets.exp(x + t)
                + y * jets.exp(1.5 * x + 2.25 * t))


seed = transforms.uq_seed(Witness, constraint="u_y=q_y")
print("seed residual:",
      max(max(map(abs, residual_uq(seed, p))) for p in pts))

once = transforms.laplace_forward_uq(seed)
twice = transforms.laplace_forward_uq(once)
for name, fld in (("forward once", once), ("forward twice", twice)):
    print(f"{name:14s} residual:",
          max(max(map(abs, residual_uq(fld, p))) for p in pts))

print()
print("Darboux dressing with two covering eigenfunctions:")
def theta1(p, n):
    t, x, _ = jets.coordinate_jets(p, n)
    return jets.exp(x - t)


def theta2(p, n):
    t, x, _ = jets.coordinate_jets(p, n)
    return jets.exp(2.0 * x - 4.0 * t)


phi1 = transforms.covering_solutions_for_constraint(
    "u_y=q_y", seed, Witness, theta=theta1,
    zeta=lambda yj: 1.0 + 0.2 * yj * yj)
phi2 = transforms.covering_solutions_for_constraint(
    "u_y=q_y", seed, Witness, theta=theta2, zeta=lambda yj: yj)

for kind in ("DT1", "DT2"):
    dressed = transforms.darboux(kind, seed, phi1)
    print(f"{kind} residual:",
          max(max(map(abs, residual_uq(dressed, p))) for p in pts))

both = transforms.darboux_iterated("DT2", seed, [phi1, phi2])
print("two-fold DT2 (two single dressings) residual:",
      max(max(map(abs, residual_uq(both, p))) for p in pts))
print("u at", pts[0], "->", both.u(pts[0], 0).value)
