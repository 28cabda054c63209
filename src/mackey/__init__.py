"""Exact computation of Mackey-functor-valued homology of representation
spheres for the groups C2, C4, K4 and Q8, together with the slice data and
spectral-sequence charts built from it."""

__version__ = "0.1.0"

from .bredon import (  # noqa: F401
    cohomology_mackey,
    homology_mackey,
    identify,
    suspension_homotopy,
)
from .catalog import named, names  # noqa: F401
from .functors import (  # noqa: F401
    MackeyFunctor,
    box_dual,
    check_axioms,
    is_isomorphic,
    match_expression,
    ses_check,
)
from .inflation import phi_inflate, psi_inflate, q_push  # noqa: F401
from .repcw import parse_rep, sphere_complex, unit_sphere_complex  # noqa: F401
from .slices import e2_page, r_tower, slice_list, slice_tower  # noqa: F401
