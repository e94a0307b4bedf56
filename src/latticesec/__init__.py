"""Secrecy certification and eavesdropper-confusion metrics for lattice
coding on wiretap channels.

Layers, from analytic to combinatorial:

- `theta`: Jacobi theta values at tau = y*i and the z-variable they induce.
- `zpoly` / `conjecture`: secrecy polynomials of unimodular lattices and
  exact certificates that their secrecy functions peak at y = 1.
- `theta_series`: exact lattice vector counts by squared norm, used as an
  independent cross-check oracle.
- `numfields`: totally real quartic fields, canonical embeddings, the
  three rotated-lattice generator matrices shipped as versioned data, and
  the lattice-point walker that the sums, the carve and the theta-series
  oracle share.
- `constellation`: deterministic enumeration of box/spherical codebooks
  and the inverse-norm power sum.
- `wiretap`: the channel prefactor turning a sum into Eve's
  correct-decision probability, plus ranked comparisons.
"""

from .conjecture import ConjectureCertificate, verify_conjecture
from .constellation import (
    SumReport,
    TableRow,
    carve_lowest_energy,
    inverse_norm_power_sum,
    reports_to_csv,
    table_sweep,
)
from .errors import (
    ConstructionError,
    DiversityError,
    DomainError,
    EvaluationError,
    InternalConsistencyError,
    LatticeSecError,
)
from .numfields import (
    GeneratorMatrix,
    LatticeSpec,
    LATTICE_NAMES,
    build_lattice,
    canonical_embedding,
    load_lattice,
    min_product_distance,
    number_field,
)
from .theta import ThetaTriple, eval_z, theta_triple
from .theta_series import theta_series_oracle
from .wiretap import (
    ChannelParams,
    ComparisonReport,
    compare_report,
    db_to_linear,
    eve_correct_probability,
)
from .zpoly import (
    ZPolynomial,
    known_extremal_table,
    secrecy_function,
    secrecy_gain,
    table_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ComparisonReport",
    "ConjectureCertificate",
    "ConstructionError",
    "DiversityError",
    "DomainError",
    "EvaluationError",
    "GeneratorMatrix",
    "InternalConsistencyError",
    "LATTICE_NAMES",
    "LatticeSecError",
    "LatticeSpec",
    "SumReport",
    "TableRow",
    "ThetaTriple",
    "ZPolynomial",
    "build_lattice",
    "canonical_embedding",
    "carve_lowest_energy",
    "compare_report",
    "db_to_linear",
    "eval_z",
    "eve_correct_probability",
    "inverse_norm_power_sum",
    "known_extremal_table",
    "load_lattice",
    "min_product_distance",
    "number_field",
    "reports_to_csv",
    "secrecy_function",
    "secrecy_gain",
    "table_polynomial",
    "table_sweep",
    "theta_series_oracle",
    "theta_triple",
    "verify_conjecture",
]
