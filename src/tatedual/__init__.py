"""tatedual: exact arithmetic for the p-adic / UHF duality toolchain.

Everything is computed over exact integers and rationals: fixed-precision
p-adic residues and their canonical sequences, the rational subgroup
spanned by their scaled residues, supernatural-number K0 invariants with
the stable-isomorphism decision, Tate curve coefficients to a proven
truncation depth, and the finite-level Pontryagin pairing.  A residue
mod p**N is held as one canonical integer, so every ring operation is a
single big-integer operation; base-p digits are derived only when asked for.
"""

from .duality import CircleElement, PerfectnessReport, bidual_eval, pair, perfectness_check
from .errors import DomainError, PrecisionError
from .gamma import (
    ContainsOneReport,
    CyclicSubgroupQ,
    DensityWitness,
    PruferElement,
    PruferRelationsReport,
    SupernaturalLimit,
    contains,
    contains_one_report,
    cyclic_hull,
    density_witness,
    gamma_generators,
    gamma_group,
    prufer_image,
    prufer_relations_check,
    supernatural_limit,
)
from .padic import (
    AT_LEAST_PRECISION,
    CanonicalSequence,
    PAdicInt,
    arithmetic,
    canonical_sequence,
    padic_from_integer,
    valuation,
)
from .supernatural import (
    INF,
    StableIsomorphism,
    SupernaturalNumber,
    TateUHF,
    UHFDescriptor,
    k0_of,
    qn_contains,
    stably_isomorphic,
    supernatural_from_sizes,
    uhf_from_tate,
)
from .tate import TateCoefficients, a4, a6, tate_coefficients, truncation_index

__version__ = "0.1.0"

__all__ = [
    "AT_LEAST_PRECISION",
    "CanonicalSequence",
    "CircleElement",
    "ContainsOneReport",
    "CyclicSubgroupQ",
    "DensityWitness",
    "DomainError",
    "INF",
    "PAdicInt",
    "PerfectnessReport",
    "PrecisionError",
    "PruferElement",
    "PruferRelationsReport",
    "StableIsomorphism",
    "SupernaturalLimit",
    "SupernaturalNumber",
    "TateCoefficients",
    "TateUHF",
    "UHFDescriptor",
    "arithmetic",
    "a4",
    "a6",
    "bidual_eval",
    "canonical_sequence",
    "contains",
    "contains_one_report",
    "cyclic_hull",
    "density_witness",
    "gamma_generators",
    "gamma_group",
    "k0_of",
    "pair",
    "padic_from_integer",
    "perfectness_check",
    "prufer_image",
    "prufer_relations_check",
    "qn_contains",
    "stably_isomorphic",
    "supernatural_from_sizes",
    "supernatural_limit",
    "tate_coefficients",
    "truncation_index",
    "uhf_from_tate",
    "valuation",
]
