"""Section spaces of continuous maps over covered marked spaces.

The package models finite marked spaces whose points carry feature
fibers, covers and staged cover refinements of them, and the vector
spaces of sections over the covered pieces.  On top of that it builds
executable witnesses: restriction collapses, gluing by
inclusion-exclusion, exact cochain ranks, aggregation-network attacks,
unreachable targets, and unfolding-tree comparisons of graphs.
"""

from .topology import (AxiomReport, Cover, CoverSequence, MarkedSpace,
                       StageAxioms, check_na_axioms, global_stage,
                       load_space_document, make_cover, singleton_stage)
from .sections import (ACTIVATIONS, Activation, Section, affine_section,
                       compose_coord, constant_section, evaluate,
                       open_set_dim, polynomial_coefficients,
                       polynomial_section, product_counterexample,
                       projection_map, sections_equal, slot_layout,
                       zero_pad_map, zero_section)
from .cech import (CechComplex, ExactnessReport, build_cech_complex,
                   cech_cohomology, hom_report_json, sheaf_axiom_check)
from .network import (Deviation, ForwardResult, GeneralLayer,
                      InclusionLayer, MultiHeadAttentionOp, Network,
                      Reducer, build_attention, build_cnn, build_rnn_cover,
                      build_sequential, composed_layer_sections,
                      factors_check, forward, network_from_json,
                      network_to_json, positional_encoding)
from .witnesses import (AttackSpec, IncompatibleLocalsError,
                        KernelPremiseError, WitnessReport,
                        adversarial_attack, classify_activation,
                        cosheaf_kernel_decompose, dataset_dependency,
                        glue_inclusion_exclusion, glue_report,
                        indistinguishability_report, kernel_report,
                        locality_witness, multi_mixed_difference,
                        pooled_collision, surjectivity_witness)
from .graphs import (ComparisonResult, Graph, WLColoring, compare_graphs,
                     cycle_graph, disjoint_union, load_graph, path_graph,
                     unfolding_codes, wl_equals_unfolding, wl_refine)

__version__ = "0.1.0"
