"""Graph perturbation models.

Implements the paper"s robustness perturbation (Section IV-C: random
degree-proportional edge insertion with weights drawn from the global edge
weight distribution, plus weight-proportional unit deletions), the label
masquerading simulation (Section V), and auxiliary noise models used in
failure-injection tests.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".edge_perturbation": ("delete_weight_units", "insert_random_edges", "perturb_graph"),
        ".masquerade": ("MasqueradePlan", "apply_masquerade", "relabel_graph"),
        ".noise": ("jitter_weights", "drop_random_nodes"),
    },
)
