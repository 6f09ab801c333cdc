"""Rate bounds and verified vector-linear encoders for cyclic-interference index coding."""

from .air import (
    AirMatrix,
    VerificationReport,
    build_air,
    verify_adjacent_independence,
)
from .codec import (
    Encoder,
    SimReport,
    build_encoder,
    decodable,
    decode,
    encode,
    interference_set,
    receiver_ranks,
    simulate,
)
from .linalg import (
    det_exact,
    is_prime,
    rank_mod_p,
    require_prime,
)
from .rates import (
    ProblemInstance,
    RateSolution,
    find_min_rate,
    is_feasible,
    oracle_min_rate,
    rate_upper_bound,
    solution_for_pair,
    truncated_decimal,
)

__version__ = "0.1.0"

__all__ = [
    "AirMatrix",
    "Encoder",
    "ProblemInstance",
    "RateSolution",
    "SimReport",
    "VerificationReport",
    "build_air",
    "build_encoder",
    "decodable",
    "decode",
    "det_exact",
    "encode",
    "find_min_rate",
    "interference_set",
    "is_feasible",
    "is_prime",
    "oracle_min_rate",
    "rank_mod_p",
    "rate_upper_bound",
    "receiver_ranks",
    "require_prime",
    "simulate",
    "solution_for_pair",
    "truncated_decimal",
    "verify_adjacent_independence",
]
