"""Cross-module integration tests: hybrid DNS in the authoritative
server, damped failover experiments, and configuration surface checks."""

import pytest

from repro.bgp.damping import DampingConfig
from repro.bgp.session import SessionTiming
from repro.core.cell import PROBE_INTERVAL_S
from repro.core.experiment import FailoverConfig, FailoverExperiment
from repro.core.techniques import ReactiveAnycast
from repro.dns.authoritative import AuthoritativeServer
from repro.dns.hybrid import HybridMapping
from repro.dns.resolver import RecursiveResolver
from repro.net.addr import IPv4Address

ANYCAST_ADDR = IPv4Address.parse("184.164.244.1")
SEA1_ADDR = IPv4Address.parse("184.164.245.10")


class TestHybridMappingWithAuthoritative:
    def make_server(self) -> AuthoritativeServer:
        """The integration pattern: the anycast pseudo-site gets an
        address entry like any real site."""
        mapping = HybridMapping(
            ANYCAST_ADDR, {"sea1": SEA1_ADDR}, steering={"vip": "sea1"}
        )
        return AuthoritativeServer(
            "cdn.example",
            mapping,
            {HybridMapping.ANYCAST: ANYCAST_ADDR, "sea1": SEA1_ADDR},
            ttl=20.0,
        )

    def test_default_clients_get_anycast(self):
        server = self.make_server()
        assert server.query("cdn.example", "normal", 0.0).address == ANYCAST_ADDR

    def test_steered_clients_get_site_address(self):
        server = self.make_server()
        assert server.query("cdn.example", "vip", 0.0).address == SEA1_ADDR

    def test_through_recursive_resolver(self):
        """Caution the resolver cache implies: hybrid steering is
        per-client at the authoritative, but a shared resolver cache
        serves whatever answer it cached first."""
        server = self.make_server()
        resolver = RecursiveResolver("shared", server)
        first = resolver.resolve("cdn.example", "normal", now=0.0)
        second = resolver.resolve("cdn.example", "vip", now=1.0)
        assert first.address == ANYCAST_ADDR
        assert second.address == ANYCAST_ADDR  # cache hit wins


class TestDampedExperiment:
    def test_failover_experiment_with_damping(self, deployment):
        """The full §5.2 pipeline runs with damping enabled and still
        recovers most targets (sanity for the damping bench)."""
        config = FailoverConfig(
            probe_duration=120.0,
            targets_per_site=8,
            timing=SessionTiming(latency=0.05, jitter=0.3, mrai=5.0, busy_prob=0.2),
            damping=DampingConfig(
                penalty_per_flap=1000.0,
                suppress_threshold=3000.0,
                reuse_threshold=750.0,
                half_life=60.0,
            ),
        )
        experiment = FailoverExperiment(deployment.topology, deployment, config)
        result = experiment.run_site(ReactiveAnycast(), "msn")
        assert result.outcomes
        reconnected = [o for o in result.outcomes if o.reconnection_s is not None]
        assert len(reconnected) >= 0.7 * len(result.outcomes)


class TestConfigSurface:
    def test_failover_config_defaults_match_paper(self):
        config = FailoverConfig()
        assert PROBE_INTERVAL_S == 1.5         # "every ~1.5s"
        assert config.probe_duration == 600.0  # "for ~600s"
        assert config.rtt_limit_ms == 50.0     # §5.1 proximity bound
        assert config.exclude_anycast_routed   # §5.1 criterion
        assert not config.silent_failure
        assert config.damping is None

    def test_config_is_frozen(self):
        config = FailoverConfig()
        with pytest.raises(AttributeError):
            config.probe_duration = 2.0
