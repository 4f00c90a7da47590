"""Network topology: one flat fabric, every node pair pays the same base latency."""

from repro.units import usec


def test_flat_topology_ignores_groups(cluster):
    net = cluster.networks["mgmt"]
    base = net.spec.base_latency
    # Intra and inter partition messages draw from the same base.
    samples = [net.latency_sample() for _ in range(20)]
    assert min(samples) >= base
    assert min(samples) < base + usec(120)  # no systematic uplink charge
