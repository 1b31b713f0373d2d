"""Exact cycle data on the modular curve.

Capped modular symbols with polynomial coefficients, split-lattice theta
series, the generating-series identity between theta and intersection data,
half-integral weight comparisons, and completed L-value periods.
"""

from .exact_arith import (
    Rational,
    bernoulli_number,
    bernoulli_poly,
    divisor_power_sum,
    generalized_bernoulli,
    kronecker_symbol,
)
from .quad_space import (
    IsotropicLine,
    VecV,
    cross,
    epsilon_sign,
    inner,
    isotropic_lines_of,
    qform,
    triple,
)
from .sym_rep import SymVector, act, embed_power, pairing, raising, weight_vector
from .caps import CapInput, SpectacleCycle, cap_closed_form, cap_solve, spectacle_assemble
from .qseries import QExpansion, cohen_eisenstein, eisenstein_level1
from .theta11 import SplitLatticeU, global_sign, siegel_weil_check, theta11_series
from .shintani_lift import (
    LiftConfig,
    LiftReport,
    SignConvention,
    lift_geometric_side,
    lift_theta_side,
    main_theorem_check,
    plus_space_check,
)
from .periods import (
    HolomorphicFormSpec,
    completed_L,
    geodesic_intersection_numeric,
    spectacle_period,
)
from .verify import verify_all

__version__ = "0.1.0"
