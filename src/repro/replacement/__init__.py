"""Replacement paths: single- and dual-failure selection, detour theory."""

from repro.replacement.base import SourceContext
from repro.replacement.classify import (
    ClassifiedPath,
    PathClass,
    class_counts,
    classify_new_ending,
    d_interferes,
    interferes,
    pi_interferes,
)
from repro.replacement.detours import (
    DetourConfiguration,
    DetourPair,
    are_dependent,
    classify_pair,
    common_segment_coincides,
    configuration_census,
    excluded_suffix,
    first_common_vertex,
    last_common_vertex,
    order_pair,
)
from repro.replacement.dual import (
    DualReplacement,
    pid_replacement,
    pipi_replacement,
    plain_dual_replacement,
)
from repro.replacement.kernel import KernelEntry, KernelSubgraph, build_kernel, xy_order
from repro.replacement.triple import (
    TripleClass,
    TripleRecord,
    build_triple_ftbfs,
    census_table,
    classify_triple,
)
from repro.replacement.single import (
    SingleReplacement,
    all_single_replacements,
    decompose_replacement,
    earliest_divergence_index,
    plain_replacement_path,
    single_replacement,
    single_replacements_by_target,
)

__all__ = [
    "ClassifiedPath",
    "DetourConfiguration",
    "DetourPair",
    "DualReplacement",
    "KernelEntry",
    "KernelSubgraph",
    "PathClass",
    "SingleReplacement",
    "SourceContext",
    "TripleClass",
    "TripleRecord",
    "all_single_replacements",
    "are_dependent",
    "build_kernel",
    "build_triple_ftbfs",
    "census_table",
    "class_counts",
    "classify_new_ending",
    "classify_pair",
    "classify_triple",
    "common_segment_coincides",
    "configuration_census",
    "d_interferes",
    "decompose_replacement",
    "earliest_divergence_index",
    "excluded_suffix",
    "first_common_vertex",
    "interferes",
    "last_common_vertex",
    "order_pair",
    "pi_interferes",
    "pid_replacement",
    "pipi_replacement",
    "plain_dual_replacement",
    "plain_replacement_path",
    "single_replacement",
    "single_replacements_by_target",
]
