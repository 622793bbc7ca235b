"""Nice vertices and nice pairs in cubic graphs.

Perfect-matching and barrier machinery for cubic graphs: nice-vertex and
nice-pair analysis, brick/brace classification, tight cuts and their
contractions, splice-family constructors and recognizers, exhaustive
small-order enumeration, and verification suites that replay the underlying
combinatorial claims over the whole corpus.
"""

from .analyze import analyze_graph, analyze_text
from .catalog import (
    h44,
    k4,
    k33,
    k33_triangle,
    k33_triangle_non_nice,
    named_graph,
    r8,
    triangular_prism,
)
from .counterexample import search_barrier_counterexample
from .enumeration import CorpusEntry, corpus_up_to, enumerate_cubic
from .errors import (
    DomainError,
    FormatUnsupportedError,
    GraphParseError,
    InternalCheckError,
    InvalidFamilySpecError,
    NotTightCutError,
    SpliceError,
    UnknownSuiteError,
)
from .families import (
    FamilyFSpec,
    FamilyG1Spec,
    FamilyG2Spec,
    FamilyMembership,
    FamilyTSpec,
    HdiamondSpec,
    Replacement,
    TStep,
    build_family,
    family_spec_from_dict,
    family_spec_to_dict,
    recognize_family,
    verify_membership,
)
from .graph6 import parse_graph6, read_graph6_lines, write_graph6
from .graphs import (
    Bipartition,
    ConnectivityProfile,
    Contraction,
    EdgeCut,
    Graph,
    InducedSubgraph,
    VertexSet,
    bipartition,
    connected_components,
    connectivity_profile,
    contract,
    edge_cut,
    enumerate_cuts,
    induced_subgraph,
    is_connected,
)
from .isomorphism import canonical_graph, is_isomorphic, is_isomorphism
from .matching import (
    Matching,
    count_perfect_matchings,
    has_perfect_matching,
    is_matching_covered,
    make_matching,
    maximum_matching,
    nice_check,
    pair_deletion_table,
    perfect_matchings,
    tutte_condition_holds,
)
from .nice import (
    NicePairMatrix,
    NicePairSet,
    NiceReport,
    all_pairs_nice,
    find_nice_pair_set,
    is_nice_pair,
    is_nice_vertex,
    nice_pair_matrix,
    nice_pair_sets_bounded,
    nice_vertices,
    upsilon,
)
from .splicing import (
    SpliceResult,
    chain_end_edges,
    edge_splice,
    linear_chain,
    splice,
    twotwo_edges,
)
from .structure import (
    Barrier,
    Classification,
    CutWitness,
    barriers,
    classify,
    is_barrier,
    is_tight_cut,
    nontrivial_tight_cuts,
    odd_component_count,
    tight_cut_contractions,
)
from .suites import (
    SUITES,
    VerificationReport,
    Violation,
    list_suites,
    verify_suite,
    verify_suites,
)

__version__ = "0.1.0"
