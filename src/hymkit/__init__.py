"""Numerical toolkit for monad-induced Hermitian connections.

Modules:

* :mod:`hymkit.geometry` - conventions, Wirtinger finite differences,
  the Kahler contraction.
* :mod:`hymkit.monads` - monad validity, cohomology fibers, induced metrics
  and the curvature of the induced connection.
* :mod:`hymkit.adhm` - the ADHM one-instanton family on C^2.
* :mod:`hymkit.ansatz` - the reflexive kernel-sheaf family over C^3, its
  decay diagnostics, the twisted family near the z-axis, the Fueter map and
  the conical tangent-cone model.
* :mod:`hymkit.potential` - the barrier potential by stratified Monte Carlo.
* :mod:`hymkit.flow` - Dirichlet heat flow for Hermitian metrics on boxes.
* :mod:`hymkit.growth` - growth-degree filtrations of holomorphic sections.
* :mod:`hymkit.cli` - the `hymkit` command-line entry point.
"""

from .geometry import fd_derivative, lambda_contract

__version__ = "0.1.0"

__all__ = ["fd_derivative", "lambda_contract", "__version__"]
