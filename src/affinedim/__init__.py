"""Planar self-affine set toolkit: affinity dimension, equilibrium
cylinder weights, invariant cones and limit directions, separation
checks, and finite-sample dimension estimators."""

from .carpets import CarpetSpec, carpet_affinity, example_fixture, \
    fraser_lower, mackay_assouad, mcmullen_hausdorff, to_ifs, uniform_fibers
from .errors import AffinedimError, BudgetExceeded, DegenerateRange, \
    HypothesisViolated, Inconclusive, IndexOutOfRange, NotConverged, \
    NotDominated, NotSeparated, PlacementFailed
from .estimators import CoverReport, PointCloud, assouad_two_scale, \
    box_dim, grid_count, lower_two_scale, two_scale_exponents
from .geometry import ContentEstimate, PoscReport, SscReport, \
    bochi_morris_scan, content_consistency, hausdorff_content_projection, \
    interval_content, posc_check, projected_gap, sigma_count, slice_points, \
    slice_root, slice_upper_bound, ssc_check, tangent_dimension_scan, \
    transversality_derivative, transversality_tail_bound, weak_tangent
from .ifs import Ifs, batch_singular_values, log_svf, word_label
from .projective import DirectionsApprox, IrreducibilityClass, Multicone, \
    ProjPoint, classify_irreducibility, find_invariant_multicone, \
    furstenberg_directions, is_dominated, strictly_affine
from .thermo import EqState, GibbsWeights, PressureSample, \
    affinity_dimension, equilibrium_state, gibbs_spread_by_depth, \
    kaenmaki_weights, pressure, transfer_matrix

__version__ = "0.1.0"
