"""Link graphs, path graphs, and enumeration of their minimal roots."""

from .canon import (
    CanonicalForm,
    canonical_form,
    canonical_labeling,
    find_isomorphism,
    is_isomorphic,
    vertex_orbits,
)
from .construct import (
    LinkGraphResult,
    LinkPartitions,
    link_graph,
    link_partitions,
    partitioned_link_graph,
    path_graph,
    project_link,
    shunt_reachable,
)
from .incidence import (
    ExpansionRecipe,
    IncidenceReport,
    PasteInstruction,
    count_incidence_pairs,
    expand_class,
    incidence_subgraph,
    is_l_equivalent,
    is_l_minimal,
    is_unit_l_incident,
)
from .links import (
    Link,
    count_links,
    enumerate_links,
    enumerate_paths,
    induced_graph,
    iter_links,
    link_girth,
)
from .multigraph import (
    INFINITE,
    GraphMetrics,
    Multigraph,
    TreeSplit,
    metrics,
    subdivision,
    tree_split,
)
from .partition import ComponentCensus, PartitionedGraph, count_cyclic_components
from .search import (
    RootRecord,
    RootSet,
    SearchBounds,
    SearchOptions,
    attach_tail,
    compute_bounds,
    cycle_roots,
    minimal_link_roots,
    minimal_path_roots,
    pair_empty_roots,
    tail_threshold,
)

__all__ = [name for name in dir() if not name.startswith("_")]
