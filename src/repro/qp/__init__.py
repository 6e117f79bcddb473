"""QP problem representation, scaling, and KKT assembly."""

from .kkt import ReducedKKTOperator, assemble_kkt_upper
from .problem import QProblem, check_same_structure, updated_vectors
from .scaling import (RuizPlan, Scaling, ruiz_equilibrate,
                      ruiz_equilibrate_batch)

__all__ = [
    "QProblem",
    "updated_vectors",
    "check_same_structure",
    "Scaling",
    "RuizPlan",
    "ruiz_equilibrate",
    "ruiz_equilibrate_batch",
    "ReducedKKTOperator",
    "assemble_kkt_upper",
]
