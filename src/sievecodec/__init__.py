"""Bijections between 0/1 words and subset-closed families of integer sets.

A forbidden-structure operator turns a set of positive integers into the set
of integers it rules out; a greedy encoder maps any bit word to a member of
the operator's family, and a star-deletion decoder inverts it.  Iterating the
decoder gives a discrete dynamical system whose fixed points and limits this
package computes over explicit finite prefixes.
"""

from .codec import (
    DEFAULT_CANDIDATE_CEILING,
    CandidateCeilingExceeded,
    DecodeResult,
    EncodeResult,
    decode,
    encode,
    roundtrip_ok,
)
from .core import (
    IntSetPrefix,
    from_characteristic,
)
from .dynamics import (
    CompletenessVerdict,
    OrbitRecord,
    SufficiencyEvidence,
    completeness_sufficient_condition,
    decode_orbit,
    encoder_fixed_points,
    find_limit,
    is_encoder_fixed_point,
    ultimately_complete_on,
)
from .operators import (
    OperatorKind,
    is_member,
    parse_operator,
)
from .relations import (
    DEFAULT_MAX_NORM_BOUND,
    CostTable,
    Relation,
    find_anchored_relation,
)

__all__ = [
    "CandidateCeilingExceeded",
    "CompletenessVerdict",
    "CostTable",
    "DecodeResult",
    "DEFAULT_CANDIDATE_CEILING",
    "DEFAULT_MAX_NORM_BOUND",
    "EncodeResult",
    "IntSetPrefix",
    "OperatorKind",
    "OrbitRecord",
    "Relation",
    "SufficiencyEvidence",
    "completeness_sufficient_condition",
    "decode",
    "decode_orbit",
    "encode",
    "encoder_fixed_points",
    "find_anchored_relation",
    "find_limit",
    "from_characteristic",
    "is_encoder_fixed_point",
    "is_member",
    "parse_operator",
    "roundtrip_ok",
    "ultimately_complete_on",
]
