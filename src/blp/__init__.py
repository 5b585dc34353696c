"""Symbolic-numeric toolkit for the Boiti-Leon-Pempinelli system.

The system for u(t,x,y), v(t,x,y) is

    u_ty = (u^2 - u_x)_xy + 2 v_xxx,
    v_t  = v_xx + 2 u v_x.

Subpackages: truncated Taylor series and the degree recurrences of the
elementary functions (blp.series), truncated Taylor jets (blp.jets), a
small expression language for parameter functions (blp.exprdsl),
Weierstrass functions and quartic first-order ODEs (blp.specfun),
residual/current/conversion machinery (blp.system), the solution-family
catalog (blp.catalog), point-symmetry / Laplace / Darboux transformations
(blp.transforms), the symmetry algebra (blp.liealg), and the
Painleve-backed reductions (blp.reductions).
"""

from . import (catalog, exprdsl, jets, liealg, quadrature, reductions,
               series, specfun, system, transforms)

__all__ = ["catalog", "exprdsl", "jets", "liealg", "quadrature",
           "reductions", "series", "specfun", "system", "transforms"]

__version__ = "0.1.0"
