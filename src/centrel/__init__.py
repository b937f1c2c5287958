"""centrel: exact centrality measures and clustering-coefficient relation
checks for simple undirected graphs.

The fast implementations live in :mod:`centrel.paths`,
:mod:`centrel.centralities`, and :mod:`centrel.neighborhood`;
:mod:`centrel.oracle` recomputes everything from the definitions (n <= 300),
and :mod:`centrel.relations` verifies the identities and bounds that tie the
measures together.
"""

from .centralities import (CentralityReport, average_clustering,
                           betweenness_and_stress, closeness, compute_report,
                           global_clustering, local_clustering,
                           local_clusterings, local_efficiency, radiality,
                           triangle_count)
from .graphs import (FamilySpec, Graph, bfs, from_edge_list, generate,
                     is_connected, load_graph, read_edge_list_text,
                     read_json_graph, to_edge_list_text, to_json_graph)
from .neighborhood import (NeighborhoodProfile, bc_loc, clo_loc,
                           is_complete_neighborhood, profile, profiles,
                           rad_loc)
from .oracle import oracle_measures, oracle_neighborhood_profiles
from .paths import (Analysis, DisconnectedGraphError, all_pairs,
                    avg_path_length, density, diameter, global_efficiency)
from .relations import (PreconditionError, RelationReport, SweepResult,
                        check_all, check_cor_sandwich, check_lemma1,
                        check_lemma2, check_lemma3, check_thm1, check_thm2,
                        check_thm3, check_thm4, check_thm5, check_thm6,
                        sweep_windmill)

__version__ = "0.1.0"
