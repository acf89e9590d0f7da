"""Tests for distributed-network latency semantics in the data plane."""

import dataclasses

import pytest

from repro.checkpoint import restore_network, snapshot_network
from repro.dataplane.forwarding import ForwardingPlane
from repro.net.packet import Packet
from repro.topology.generator import ACCESS_LATENCY_S
from repro.topology.geo import link_latency_s
from repro.topology.relationships import AsClass
from repro.topology.testbed import PROBE_SOURCE, SPECIFIC_PREFIX, build_deployment

from tests.conftest import FAST_TIMING


@pytest.fixture(scope="module")
def converged_plane():
    deployment = build_deployment()
    network = deployment.topology.build_network(seed=17, timing=FAST_TIMING)
    network.announce(deployment.site_node("ath"), SPECIFIC_PREFIX)
    network.converge()
    return deployment, network, ForwardingPlane(network, deployment.topology)


def exit_charge(topology, last_concrete: str, to: str) -> float:
    """The geo latency charged for leaving a distributed network."""
    return link_latency_s(topology.ases[last_concrete].location, topology.ases[to].location)


class TestLastConcrete:
    """The hop that leaves a distributed network is charged from the
    path's most recent non-distributed node (``path[0]`` if none)."""

    def test_concrete_only_path(self, converged_plane):
        deployment, network, plane = converged_plane
        topology = deployment.topology
        # eye -> regional is a concrete link; the exit from t1-0 is then
        # charged from the regional, the last concrete node before it.
        path = ["eye-us-west-0", "rg-us-west-2", "t1-0", "tr-eu-west-0"]
        expected = (
            topology.link_latency("eye-us-west-0", "rg-us-west-2")
            + ACCESS_LATENCY_S
            + exit_charge(topology, "rg-us-west-2", "tr-eu-west-0")
        )
        assert topology.path_latency(path) == expected

    def test_distributed_tail_skipped(self, converged_plane):
        deployment, network, plane = converged_plane
        topology = deployment.topology
        # tier-1 (t1-0) and R&E (re-0) are distributed: the exit to the
        # university is charged from the regional before them.
        path = ["eye-us-west-0", "rg-us-west-2", "t1-0", "re-0", "uni-eu-south-0"]
        expected = (
            topology.link_latency("eye-us-west-0", "rg-us-west-2")
            + ACCESS_LATENCY_S
            + ACCESS_LATENCY_S
            + exit_charge(topology, "rg-us-west-2", "uni-eu-south-0")
        )
        assert topology.path_latency(path) == expected

    def test_all_distributed_falls_back_to_origin(self, converged_plane):
        deployment, network, plane = converged_plane
        topology = deployment.topology
        path = ["t1-0", "t1-1", "tr-eu-west-0"]
        expected = ACCESS_LATENCY_S + exit_charge(topology, "t1-0", "tr-eu-west-0")
        assert topology.path_latency(path) == expected


class TestForwardingLatencyConsistency:
    def test_event_forward_matches_path_latency(self, converged_plane):
        """The event-driven reply forwarder must accumulate exactly the
        topology's distributed-aware path latency (when routes are
        stable)."""
        deployment, network, plane = converged_plane
        topology = deployment.topology
        target = topology.web_client_ases()[0].node_id
        snapshot = plane.snapshot_path(target, PROBE_SOURCE)
        assert snapshot.delivered
        expected = topology.path_latency(list(snapshot.path))

        results = []
        start = network.now
        plane.forward(
            target, Packet(src=PROBE_SOURCE, dst=PROBE_SOURCE), results.append
        )
        network.converge()
        assert results[0].delivered
        measured = results[0].completed_at - start
        assert measured == pytest.approx(expected, rel=1e-6)

    def test_regional_reply_is_fast(self, converged_plane):
        """A eu-south client's reply to the eu-south site crosses only
        regional links: single-digit milliseconds one way."""
        deployment, network, plane = converged_plane
        topology = deployment.topology
        client = next(
            info.node_id
            for info in topology.web_client_ases()
            if info.location.region == "eu-south"
        )
        path = plane.snapshot_path(client, PROBE_SOURCE)
        assert path.delivered_to == deployment.site_node("ath")
        assert topology.path_latency(list(path.path)) < 0.025

    def test_transatlantic_reply_is_slow(self, converged_plane):
        deployment, network, plane = converged_plane
        topology = deployment.topology
        client = next(
            info.node_id
            for info in topology.web_client_ases()
            if info.location.region == "us-west"
        )
        path = plane.snapshot_path(client, PROBE_SOURCE)
        assert path.delivered
        assert topology.path_latency(list(path.path)) > 0.025


class TestForwardMatchesPathLatencyExactly:
    def test_every_delivered_forward_matches_path_latency(self, converged_plane):
        """Every reply forwarded over quiescent FIBs completes exactly
        ``path_latency(path)`` after it started: the forwarder's carried
        last-concrete node prices each hop as ``path_latency`` does.

        The converged network is forked with its clock at 0, so the
        forwarder's running sum ``0 + l1 + l2 + ...`` and
        ``path_latency``'s ``0.0 + l1 + l2 + ...`` are the same float
        additions in the same order and must agree bit for bit."""
        deployment, network, _ = converged_plane
        topology = deployment.topology
        snapshot = dataclasses.replace(snapshot_network(network), now=0.0)
        fork = restore_network(snapshot)
        plane = ForwardingPlane(fork, topology)
        results = {}
        for node in sorted(topology.ases):
            plane.forward(
                node,
                Packet(src=PROBE_SOURCE, dst=PROBE_SOURCE),
                lambda result, node=node: results.setdefault(node, result),
            )
        fork.converge()

        delivered = [r for r in results.values() if r.delivered]
        assert len(results) == len(topology.ases)
        assert len(delivered) > 100
        for result in delivered:
            assert result.completed_at - 0.0 == topology.path_latency(list(result.path))

        def classes(nodes):
            return {topology.ases[n].as_class for n in nodes}

        entered_and_left = classes(n for r in delivered for n in r.path[1:-1])
        assert {AsClass.TIER1, AsClass.RE_BACKBONE} <= entered_and_left
        # Replies starting inside a distributed network leave it with no
        # concrete node behind them: the path[0] fallback.
        assert {AsClass.TIER1, AsClass.RE_BACKBONE, AsClass.HYPERGIANT} <= classes(
            r.path[0] for r in delivered if len(r.path) > 1
        )
