"""egl: chart-level elliptic groupoid local models, verified.

Explicit coordinate models of the Lie groupoids integrating elliptic
tangent bundles (smooth, double-covered and normal-crossing divisors),
the two symplectic local models with their multiplicative structures
and covering morphisms, exact integer/mod-2 decision procedures for
Hausdorff integrability, and the sampled numerical suites that verify
all of it.
"""

__version__ = "1.1.0"

from .apaths import APath, PolarCurve, apath_anchor_residual, apath_rescale
from .divisors import AlgebroidFrame, DivisorLocalModel, residue_model_frame
from .groupoids import (GroupoidChartModel, action_groupoid_model, case1_model,
                        case2_quotient_model, caseIV_model,
                        elliptic_ideal_pullback, fibre_product, pair_groupoid,
                        smooth_factor_model, ssc_surface_model)
from .homology import (HomologyPresentation, IntHom, double_cover_exists,
                       hausdorff_smooth_decision, integer_kernel_basis,
                       kernel_generators, lattice_member, smith_normal_form)
from .kernel import (FormField, SmoothMap, ToleranceProfile, exterior_derivative,
                     jacobian, nullspace, pullback, pullback_form, subspace_angle,
                     subspace_equal)
from .signedperm import (GroupDescriptor, MonodromyRep, SignedPermutation,
                         TwistGroup, covering_isotropy, full_hyperoctahedral,
                         hausdorff_nc_decision, semidirect_inverse,
                         semidirect_mul, twist_group)
from .symplectic import (MorphismBundle, SymplecticModel, morphism_phi_nonzero,
                         morphism_phi_zero, morphism_psi, psi_domain_candidates,
                         symplectic_nonzero_residue_model,
                         symplectic_zero_residue_model)
from .twisted import TwistedArrow, kappa_restrict, twisted_compose

__all__ = [name for name in dir() if not name.startswith("_")]
