"""Anomaly detection: flag labels whose behaviour broke between windows.

An anomaly is "an abrupt and discernible change in the behavior of a
fixed label" — fraud, compromise, or a benign vacation.  The detector
scores each label's persistence between consecutive windows and flags the
outliers; we inject a behaviour swap into the second window and watch the
detector find it.

Run:  python examples/anomaly_monitoring.py
"""

from repro import (
    AnomalyDetector,
    EnterpriseFlowGenerator,
    EnterpriseParams,
    edges_in_build_order,
    rebuilt,
)
from repro.core.distances import get_distance
from repro.core.scheme import create_scheme


def main() -> None:
    params = EnterpriseParams(
        num_hosts=60,
        num_external=600,
        num_services=10,
        num_windows=2,
        num_alias_users=6,
        seed=33,
    )
    dataset = EnterpriseFlowGenerator(params).generate()
    window_now, window_next = dataset.graphs[0], dataset.graphs[1]
    hosts = dataset.local_hosts

    # Inject one anomaly: a host's machine is compromised and starts
    # talking to a completely fresh set of destinations in window two.
    import numpy as np

    rng = np.random.default_rng(4)
    victim = hosts[7]
    edges = edges_in_build_order(window_next)
    edges = {edge: weight for edge, weight in edges.items() if edge[0] != victim}
    for _ in range(25):
        edge = (victim, f"ext-{rng.integers(0, params.num_external):05d}")
        edges[edge] = edges.get(edge, 0.0) + float(rng.integers(1, 6))
    window_next = rebuilt(window_next, edges)
    print(f"injected behaviour replacement on {victim}")
    print()

    # The framework recommends the full RWR scheme for anomaly detection:
    # persistence and robustness matter, uniqueness does not.
    detector = AnomalyDetector(
        scheme=create_scheme("rwr", k=10, reset_probability=0.1),
        distance=get_distance("shel"),
        zscore_cutoff=3.0,
    )
    report = detector.detect(window_now, window_next, population=hosts)
    print(
        f"population persistence: median={report.median_persistence:.3f} "
        f"(robust std {report.mad_persistence:.3f})"
    )
    print(f"flagged anomalies: {len(report.anomalies)}")
    for anomaly in report.anomalies:
        marker = " <-- injected" if anomaly.node == victim else ""
        print(
            f"  {anomaly.node}: persistence={anomaly.persistence:.3f} "
            f"z={anomaly.zscore:.1f}{marker}"
        )
    print()

    if victim in set(report.flagged_nodes):
        print("the injected anomaly was detected.")
    else:
        ranked = detector.rank(window_now, window_next, population=hosts)
        positions = {node: rank for rank, (node, _value) in enumerate(ranked)}
        print(
            f"injected anomaly ranks {positions[victim]} of {len(ranked)} "
            "by ascending persistence"
        )


if __name__ == "__main__":
    main()
