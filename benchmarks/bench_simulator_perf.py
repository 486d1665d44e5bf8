"""Substrate performance: the packet-level simulator's event throughput.

Not a paper figure, but the quantity that bounds dataset-generation cost
(the paper's 480k-sample dataset is exactly this, at OMNeT++ scale).  Also
benchmarks routing-scheme construction, the other dataset-generation cost.
"""

from repro.routing import RoutingScheme
from repro.simulator import SimulationConfig, simulate
from repro.topology import nsfnet, synthetic_topology
from repro.traffic import scale_to_utilization, uniform_traffic

from .conftest import report


def test_simulator_event_throughput(benchmark):
    topo = nsfnet()
    routing = RoutingScheme.shortest_path(topo)
    tm = scale_to_utilization(uniform_traffic(14, 1.0, seed=0), topo, routing, 0.6)
    config = SimulationConfig(duration=40.0, warmup=4.0, seed=1)

    result = benchmark(lambda: simulate(topo, routing, tm, config))
    throughput = result.events_processed / result.wall_time_seconds
    report(
        "SIMULATOR — event throughput (NSFNET, util 0.6)",
        f"events: {result.events_processed}   wall: {result.wall_time_seconds:.3f}s"
        f"   throughput: {throughput:,.0f} events/s",
    )
    assert throughput > 10_000


def test_routing_scheme_construction(benchmark):
    topo = nsfnet()
    scheme = benchmark(lambda: RoutingScheme.random_weighted(topo, seed=7))
    assert len(scheme) == 182


def test_random_ksp_construction(benchmark):
    """Yen's 3-shortest paths for all 2,450 pairs of a 50-node network: the
    costliest routing kind of dataset generation."""
    topo = synthetic_topology(50, seed=50)
    scheme = benchmark(lambda: RoutingScheme.random_ksp(topo, k=3, seed=7))
    assert len(scheme) == 50 * 49
