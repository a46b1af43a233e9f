"""Experiment harness: one module per paper figure/table.

Each ``fig*_*.py`` module exposes a ``run_*`` function returning plain
dataclasses/dicts, plus a ``format_*`` helper rendering the same rows or
series the paper reports.  The ``benchmarks/`` suite calls these to
regenerate every table and figure; ``repro.cli`` exposes them on the
command line.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": (
            "ExperimentConfig", "get_enterprise_dataset", "get_querylog_dataset", "make_schemes",
        ),
        ".fig1_properties": ("run_fig1", "format_fig1"),
        ".fig2_roc": ("run_fig2", "format_fig2"),
        ".fig3_auc": ("run_fig3", "format_fig3"),
        ".fig4_robustness": ("run_fig4", "format_fig4"),
        ".fig5_multiusage": ("run_fig5", "format_fig5"),
        ".fig6_masquerading": ("run_fig6", "format_fig6"),
        ".tables": ("derive_table4", "format_table4"),
        ".ext_streaming": ("run_streaming_fidelity", "format_streaming_fidelity"),
        ".ext_lsh": ("run_lsh_quality", "format_lsh_quality"),
    },
)
