"""Signed tree models as a compact graph representation.

Conversion pipeline (models -> interval biclique partitions -> DAG
compressions / positive models), shortest paths on the derived distance
models, randomized sd-degeneracy sequences, and structured matrix
multiplication, all checked against brute-force oracles.
"""

from .convert import (ConstructionSequence, DagCompression,
                      IntervalBicliquePartition, PartitionViolation,
                      SdDegenSequence, SequenceError, cover_set, cseq_replay,
                      cseq_shorten, cseq_to_stm, dag_to_graph, ibp_to_dag,
                      ibp_to_graph, ibp_to_positive_model, radius_r_width,
                      sdseq_to_stm, stm_to_ibp)
from .graph import (Graph, InputError, LinearOrder, bfs_sssp_oracle,
                    graphs_equal, symmetric_difference)
from .matmul import INT64_GROUP, AdditiveGroup, adjacency_matmul, ibp_matvec
from .paths import (DistanceModel, ShortestPathTree, apsp,
                    dag_to_distance_model, scattered_maximal_subset, sssp,
                    zero_one_bfs)
from .rect import (InclusionForest, LaminarityError, complement_partition,
                   inclusion_forest)
from .sddegen import (CapExceeded, SdConfig, WidthReport, preset_symdiff,
                      preset_twinwidth, sd_sequence_greedy,
                      sd_sequence_randomized, validate_sequence)
from .stm import (InvalidModelError, SignedTreeModel, ValidationReport,
                  clean_same_sign, decode_bruteforce, remove_loops, validate)

__version__ = "0.1.0"

__all__ = [
    "AdditiveGroup", "CapExceeded", "ConstructionSequence", "DagCompression",
    "DistanceModel", "Graph", "INT64_GROUP",
    "InclusionForest", "InputError", "IntervalBicliquePartition",
    "InvalidModelError", "LaminarityError", "LinearOrder",
    "PartitionViolation", "SdConfig", "SdDegenSequence",
    "SequenceError", "ShortestPathTree", "SignedTreeModel",
    "ValidationReport", "WidthReport", "adjacency_matmul", "apsp",
    "bfs_sssp_oracle", "clean_same_sign", "complement_partition", "cover_set",
    "cseq_replay", "cseq_shorten", "cseq_to_stm", "dag_to_distance_model",
    "dag_to_graph", "decode_bruteforce", "graphs_equal",
    "ibp_matvec", "ibp_to_dag", "ibp_to_graph", "ibp_to_positive_model",
    "inclusion_forest", "preset_symdiff",
    "preset_twinwidth", "radius_r_width", "remove_loops",
    "scattered_maximal_subset", "sd_sequence_greedy", "sd_sequence_randomized",
    "sdseq_to_stm", "sssp", "stm_to_ibp",
    "symmetric_difference", "validate", "validate_sequence", "zero_one_bfs",
]
