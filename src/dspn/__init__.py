"""Dynamic sum-product networks for variable-length discrete sequences."""

from .graph import (GraphBuilder, GraphError, InvalidGraph, MissingInputScope,
                    Node, NodeKind, Scope, SpnGraph, ValidityReport,
                    check_validity, compute_scopes)
from .inference import (Evidence, DisjointnessError, ZeroEvidence, backward,
                        conditional_query, forward, log_likelihood,
                        sum_edge_statistics)
from .dynamic import (BottomNetwork, DegenerateTemplate, DspnModel,
                      EmptySequence, InvalidModel, InvarianceReport,
                      ScopeAssignment, TemplateNetwork, TopNetwork,
                      check_invariance, dataset_logliks, derive_bottom,
                      sample, sequence_loglik, unroll, verify_model_validity)
from .partitions import (CursorStore, IndependenceOracle, InsufficientData,
                         Partition, RgsCursor, bell_number, decode_rgs,
                         encode_rgs, get_partition, independent_components,
                         random_partition)
from .training import (NumericalUnderflow, TiedStatistics, TrainConfig,
                       collect_statistics, em_step, gradient_step, train)
from .structure import (IterationRecord, SearchConfig, SearchState,
                        generate_neighbour, initial_structure, search)
from .hmm import (DiscreteHmm, baum_welch, hmm_dataset, hmm_loglik,
                  hmm_sample, hmm_to_model, random_hmm)
from .data import (ArityViolation, ParseError, SequenceDataset, fold_indices,
                   load_dataset, load_graph, load_hmm, load_model,
                   save_dataset, save_graph, save_hmm, save_model, split)

__version__ = "0.1.0"
