"""Numerical realization of conjugation-symmetric operator semigroups on a
truncated space of entire functions, with evolution-family machinery for the
nonautonomous case.

Everything acts on finite coefficient vectors, plain complex arrays (see
:mod:`focksym.fock`); all analytic claims are exercised as finite-dimensional
residual checks.  Names are imported from their modules
(``from focksym.wco import wco_matrix``); the package itself binds none.
"""

__version__ = "0.1.0"
