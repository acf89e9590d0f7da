"""Tests for the CDN controller's failure handling."""

import pytest

from repro.core.controller import CdnController
from repro.core.techniques import (
    Anycast,
    ProactiveSuperprefix,
    ReactiveAnycast,
    Unicast,
)
from repro.dns.authoritative import AuthoritativeServer, StaticMapping
from repro.topology.testbed import SPECIFIC_PREFIX, SUPERPREFIX

from tests.conftest import FAST_TIMING


def make_controller(deployment, technique, dns=None, detection_delay=2.0):
    net = deployment.topology.build_network(seed=4, timing=FAST_TIMING)
    return CdnController(
        network=net,
        deployment=deployment,
        technique=technique,
        prefix=SPECIFIC_PREFIX,
        superprefix=SUPERPREFIX,
        detection_delay=detection_delay,
        dns=dns,
    )


class TestFailureHandling:
    def test_fail_site_withdraws_immediately(self, deployment):
        controller = make_controller(deployment, Anycast())
        controller.deploy("sea1")
        controller.network.converge()
        event = controller.fail_site("sea1")
        assert SPECIFIC_PREFIX in event.withdrawn_prefixes
        node = deployment.site_node("sea1")
        assert controller.network.router(node).originated_prefixes() == []

    @pytest.mark.parametrize("silent", [False, True])
    def test_withdrawn_prefixes_most_specific_first(self, deployment, silent):
        """A forked deployment originates the site's /23 (base plan)
        before its /24 (per-site delta); the failure still withdraws, and
        records, the /24 first."""
        controller = make_controller(deployment, ProactiveSuperprefix())
        net = controller.network
        controller.technique.announce_base(
            net, deployment, SPECIFIC_PREFIX, SUPERPREFIX
        )
        net.converge()
        controller.deploy_specific("sea1")
        net.converge()
        fail = controller.fail_site_silently if silent else controller.fail_site
        event = fail("sea1")
        assert event.withdrawn_prefixes == (SPECIFIC_PREFIX, SUPERPREFIX)

    def test_detection_delay_gates_reaction(self, deployment):
        controller = make_controller(deployment, ReactiveAnycast(), detection_delay=5.0)
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("sea1")
        ams = deployment.site_node("ams")
        controller.network.run_for(4.0)
        assert SPECIFIC_PREFIX not in controller.network.router(ams).originated_prefixes()
        controller.network.run_for(2.0)
        assert SPECIFIC_PREFIX in controller.network.router(ams).originated_prefixes()

    def test_failure_event_record(self, deployment):
        controller = make_controller(deployment, Anycast(), detection_delay=3.0)
        controller.deploy("sea1")
        controller.network.converge()
        before = controller.network.now
        event = controller.fail_site("sea1")
        assert event.site == "sea1"
        assert event.failed_at == before
        assert event.detected_at == before + 3.0
        assert controller.failures == [event]

    def test_unknown_site_rejected(self, deployment):
        controller = make_controller(deployment, Anycast())
        with pytest.raises(KeyError):
            controller.deploy("lhr")
        with pytest.raises(KeyError):
            controller.fail_site("lhr")


class TestDnsIntegration:
    def make_dns(self, deployment):
        addresses = {
            site: SPECIFIC_PREFIX.address(10 + i)
            for i, site in enumerate(deployment.site_names)
        }
        return AuthoritativeServer(
            "cdn.example", StaticMapping(default_site="sea1"), addresses, ttl=20.0
        )

    def test_dns_repointed_after_detection(self, deployment):
        dns = self.make_dns(deployment)
        controller = make_controller(deployment, Unicast(), dns=dns, detection_delay=2.0)
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("sea1")
        controller.network.run_for(3.0)
        assert "sea1" not in dns.site_addresses
        assert dns.policy.default_site != "sea1"

    def test_steered_clients_remapped(self, deployment):
        dns = self.make_dns(deployment)
        dns.policy.steer("client-1", "sea1")
        controller = make_controller(deployment, Unicast(), dns=dns)
        controller.deploy("sea1")
        controller.network.converge()
        controller.fail_site("sea1")
        controller.network.run_for(3.0)
        assert dns.policy.overrides["client-1"] != "sea1"
