"""Reflexive Weyl polytopes, boundary measures, and exact transport stability."""

from .errors import (GroupCapExceeded, InternalTableViolation,
                     MalformedHeader, NonIntegerEntry, NotDominant,
                     NotFullDimensional, NotLatticePoint, NotReflexive,
                     OrbitCapExceeded, OriginNotInterior, OutOfTableRange,
                     UnbalancedMasses, UnsupportedType, VertexNotFound,
                     WeylotError)
from .polytope import Face, Polytope, convex_hull
from .rootsystems import (RootSystem, WeylGroup, build_from_label,
                          build_root_system, weight_to_coords)
from .symmetry import automorphism_group, unimodular_equivalent
from .weyl import (ClassificationRecord, WeylPolytopeRecord, classify,
                   is_dual_weyl_polytope, is_weyl_polytope, mr_family,
                   star_containment_check, vertex_condition, weyl_polytope)
from .transport import (CertificationReport, KantorovichPotentials,
                        TransportPlan, certify, check_chamber_support,
                        check_cyclical_monotonicity, check_reflection_sign,
                        check_stability_support, solve_ot)
from .measures import (SurfaceMeasure, WeightedPointCloud, chamber_mass,
                       discretize, dominant_cloud, surface_measure)

__version__ = "0.1.0"
