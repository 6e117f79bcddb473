"""QP problem representation, scaling, and KKT assembly."""

from .kkt import ReducedKKTOperator, assemble_kkt_upper
from .problem import QProblem, updated_vectors
from .scaling import (RuizPlan, Scaling, ruiz_equilibrate,
                      ruiz_equilibrate_batch)

__all__ = [
    "QProblem",
    "updated_vectors",
    "Scaling",
    "RuizPlan",
    "ruiz_equilibrate",
    "ruiz_equilibrate_batch",
    "ReducedKKTOperator",
    "assemble_kkt_upper",
]
