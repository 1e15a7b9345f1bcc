"""Train-track maps for free group automorphisms.

Verification of the train-track property, Perron-Frobenius spectral data
and eigenmetrics, limits of normalized translation lengths, attracting
lamination leaves, and bounded-cancellation constants.
"""

from .cancellation import (
    CancellationBound,
    CancellationSample,
    cancellation_bound,
    lipschitz_constant,
    measure_cancellation,
    measure_split,
)
from .errors import (
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    NotALeafSegmentError,
    NotIrreducibleError,
    ParseError,
    PreconditionError,
)
from .graphs import (
    Graph,
    Metric,
    block_path_length,
    path_length,
    rose,
    unit_metric,
)
from .laminations import (
    LeafCorpus,
    LeafMatch,
    LeafPrefix,
    LeafSeed,
    ProbeReport,
    WindowCertificate,
    build_leaf_corpus,
    expand_leaf,
    find_eigen_seed,
    leaf_contains,
    longest_leaf_segment,
    quasiperiodicity_window,
    weak_limit_probe,
)
from .limits import (
    ConvergenceReport,
    CyclicOrbit,
    GrowthClass,
    LimitLengthReport,
    PerBlockReport,
    classify_growth,
    convergence_constants,
    limit_length,
    per_block_lengths,
    polynomial_degree,
)
from .maps import (
    GraphMap,
    TrainTrackVerdict,
    is_degenerate,
    rose_map,
    to_automorphism,
)
from .pipeline import (
    AnalysisConfig,
    EquivalenceReport,
    analyze,
    equivalence_sweep,
    parse_input,
    report_json,
    round_floats,
)
from .spectral import (
    PFData,
    TrainTrackData,
    analyze_train_track,
    cyclic_index,
    is_simplicial,
    pf_eigen,
    train_track_twist,
)
from .words import (
    Automorphism,
    ValidationReport,
    canonical_rotation,
    cyclic_reduce,
    enumerate_cyclic_words,
    format_word,
    invert_word,
    parse_word,
    reduce_word,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
