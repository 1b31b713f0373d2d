"""Exact cycle data on the modular curve.

Capped modular symbols with polynomial coefficients, split-lattice theta
series, the generating-series identity between theta and intersection data,
half-integral weight comparisons, and completed L-value periods.
"""

__version__ = "0.1.0"
