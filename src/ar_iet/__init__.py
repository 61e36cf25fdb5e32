"""Arnoux-Rauzy systems over exact rational arithmetic.

Three coupled presentations of the same dynamics:

* symbolic: substitutive words on three and nine letters (`words`),
* geometric: exchanges of nine intervals and six circle arcs (`iet`),
* arithmetic: a subtractive renormalization on ordered triples (`gasket`),

tied together by induction with return-word verification (`induction`),
Rokhlin tower combinatorics (`towers`), and ergodicity/eigenvalue probes
(`analysis`).  All interval arithmetic is exact (fractions.Fraction); no
floats enter any core computation.
"""
from types import ModuleType as _ModuleType

from .errors import (
    DomainError,
    Inadmissible,
    IncompletePrefix,
    InvalidSeed,
    NotAFactor,
    NotInGasket,
    OutOfDomain,
    PrefixTooLong,
    ReturnTimeCapExceeded,
    WordOverflow,
)
from .gasket import (
    DEFAULT_SEED,
    GasketExit,
    PartialQuotients,
    Prefix,
    Sym,
    Triple,
    ar_step,
    directing_prefix,
    format_prefix,
    omega_lengths,
    parse_prefix,
    parse_triple,
    partial_quotients,
    reconstruct_triple,
    triple,
)
from .words import (
    A3,
    A3_MEMBERS,
    A9,
    Substitution,
    factor_complexity,
    heights_by_matrix,
    letter_height,
    multiplicative_heights,
    multiplicative_stage_words,
    project,
    sigma3,
    sigma9,
    stage_words,
)
from .iet import (
    FIRST_ORDER,
    ORDER_TAGS,
    Ar6Map,
    Ar9Map,
    Interval,
    OrderTag,
    ar6_apply,
    ar6_rotation_match,
    ar9_apply,
    build_ar6_canonical,
    build_ar9,
    glue_point,
    glue_to_ar6,
    parse_order,
    trajectory,
)
from .induction import (
    InductionStage,
    StageChain,
    induce_step,
    iterate_induction,
)
from .towers import (
    Tower,
    TowerFamily,
    adjacency_check,
    level_component_counts,
    locate,
    partition_check,
    tower_families,
)
from .analysis import (
    ConditionReport,
    EigenScan,
    FrequencyVector,
    PreimageReport,
    TourabReport,
    TwmReport,
    TwoMeasureReport,
    birkhoff_frequencies,
    eigenvalue_scan,
    l1_distance,
    preimage_clusters,
    reciprocal_sum_upper_bound,
    tourab_patterns,
    twm_pattern,
    two_measure_experiment,
    xi_sequence,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are attributes of the
# package but not part of its interface
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
