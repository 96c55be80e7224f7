"""conehelly: exact-arithmetic polyhedral cone toolkit.

Computes lineality spaces, positive bases and Reay partitions, polar
duality quantities of homogeneous halfspace systems, and checks the
associated Helly-type statements on finite instances, with certificates
and bounded witnesses throughout.  All arithmetic is exact rational.
"""

from .errors import CapacityError, TheoremContradiction
from .ratlin import (
    SubspaceBasis,
    Vec,
    VectorSet,
    dot,
    kernel_basis,
    span_basis,
    vec,
)
from .cone import (
    FarkasCertificate,
    HalfspaceSystem,
    InfeasibleCone,
    complementary_point,
    extract_cone,
    lineality_dim,
    lineality_of_polar,
    lineality_space,
    max_cone_dim,
    membership,
    relative_interior_point,
    verify_cone_generators,
)
from .posbasis import (
    PositiveBasis,
    ReayPartition,
    extract_positive_basis,
    is_positive_basis,
    reay_partition,
    verify_reay,
)
from .helly import (
    ConeHellyReport,
    CorollaryReport,
    FlatHellyReport,
    HellyBounds,
    Witness,
    bound_h,
    bound_m,
    check_flat_helly,
    check_lineality_hypothesis,
    corollary_check,
    verify_cone_helly,
    witness_lineality_enum,
    witness_lineality_reay,
)
from .gens import (
    SplitMix64,
    gen_axis_pairs,
    gen_example2,
    gen_random,
    gen_simplex_like,
    verify_tightness_example1,
    verify_tightness_example2,
)

__version__ = "0.1.0"
