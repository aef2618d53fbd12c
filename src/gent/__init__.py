"""Distance-type Gaussian entanglement measures for symmetric two-mode states.

Covariance-matrix convention: hbar = 1, vacuum CM = (1/2) * identity,
quadrature ordering (q1, p1, q2, p2).

Importing gent loads no numpy: the names below compute with ``math``, and
``grid_rel_ent`` imports numpy when called.  The covariance-matrix modules
(``cm_core``, ``standard_forms``, ``optics``, ``fock``) load it on import.
"""

from .bures import bures_entanglement, numeric_max_fidelity
from .formation import entanglement_of_formation
from .relent import grid_rel_ent, rel_ent_entanglement, rel_entropy_one_mode
from .scalar import SymmetricState, symmetric_sts

__version__ = "0.1.0"

__all__ = [
    "SymmetricState",
    "bures_entanglement",
    "entanglement_of_formation",
    "grid_rel_ent",
    "numeric_max_fidelity",
    "rel_ent_entanglement",
    "rel_entropy_one_mode",
    "symmetric_sts",
]
