"""greedylab: a numerical laboratory for thresholding greedy algorithms in
sequence spaces.

It computes t-greedy sets and greedy sums under pluggable (quasi-)norms,
estimates greedy-type constants on finite truncations, and exercises the
summing-norm divergence example and the quasi-Banach perturbation toolkit at
desk scale.
"""

from .coeffspace import (CoeffVector, GapSequence, SpaceDescriptor, lp_norm,
                         lp_space, projection, space_from_key, summing_norm,
                         summing_space, sup_norm, sup_space, weighted_lp_norm,
                         weighted_lp_space)
from .constants import (alternating_witness, alternating_witness_estimate,
                        bounded_gap_projection_bound,
                        check_suppression_one_implies_qg,
                        estimate_quasi_greedy_constant, exact_constant_grid,
                        exact_constant_polyhedral,
                        transfer_bound_t_from_s)
from .counterexample import (ExampleSequence, SpikeBlockSelection, build_example,
                             divergence_experiment, greedy_sum_norm,
                             phi_lower_bound, truncation_norm)
from .estimates import BoundCheck, ConstantEstimate
from .greedy import (EnumerationResult, GreedySelection, StaleSelectionError,
                     enumerate_t_greedy_sets, greedy_sum, is_t_greedy,
                     one_greedy_set)
from .perturb import (PerturbationError, crude_bound_suite, equivalence_audit,
                      lemma_perturbation_suite, padding_set_construction,
                      padding_suite, perturb_to_finite_support,
                      projection_crude_bound, trial_draws)

__version__ = "0.1.0"
