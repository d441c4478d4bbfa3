"""Biharmonic-algebra toolkit: commutative hypercomplex arithmetic,
monogenic functions on the unit disk, the (first, fourth)-component
boundary value solver, and reconstruction of plane-strain elastic fields
from boundary values of du/dx and dv/dy.
"""

from .balgebra import (BElement, E1, E2, NilpotentForm, RHO, ZeroDivisorError,
                       embed_point, from_nilpotent, invert, multiply, power,
                       to_nilpotent)
from .elasticity import (ElasticState, FieldEvaluator, LameConstants,
                         PolarGrid, airy_boundary, boundary_map,
                         displacements, lame_pairs, lame_residual,
                         mixed_derivative, solve_pipeline)
from .holomorphic import (BoundaryFunction, DomainError, TaylorSeries,
                          boundary_im_trace, boundary_re_trace,
                          harmonic_conjugate_trace, multiply_boundary,
                          schwarz_solve)
from .monogenic import (MonogenicFunction, biharmonic_residual,
                        biharmonic_stencil, cr_residual, from_b_polynomial,
                        random_b_polynomial)
from .schwarz import (DegreeOverflowError, Problem14, boundary_residual,
                      kernel_basis, solve_14)

__version__ = "0.1.0"
