"""What the CDE counting assumes about component topology, checked in a world.

The techniques read egress IPs off the source addresses our nameserver
logs, and count caches by the upstream queries they send (PAPER.md §1).
Both readings are only sound if every component that sends upstream puts
its *own* egress address on the query, and if every cache object belongs
to exactly one platform.  These tests drive real resolutions and real
platform builds and check both properties directly:

* **Address provenance.**  A fresh name resolved through each
  upstream-sending component, from its own client address, reaches the
  CDE authoritative only from that component's egress IPs — never from
  the client.  A relay's upstream sees the relay, not the client.
* **Cache identity.**  Platforms built from drawn specs of every
  population, plus a multipool platform, share no cache object, and each
  holds exactly as many distinct caches as its spec says.
"""

from __future__ import annotations

import pytest

from repro.dns import DnsMessage, RRType
from repro.resolver import ForwardingResolver, Misbehavior, \
    MisbehavingResolver
from repro.study import POPULATIONS, PopulationGenerator

#: Spec caps small enough for a quick build, large enough that most
#: drawn platforms run several caches behind several egress IPs.
CAPS = {"max_caches": 6, "max_ingress": 3, "max_egress": 4}


def _client_ip(world) -> str:
    return world.client_allocator.allocate_pool(1).allocate()


def _relay_ip(world) -> str:
    return world.platform_allocator.allocate_pool(1).allocate()


def _recording_ingress(monkeypatch, platform) -> list[str]:
    """Record the source address of every message the platform receives."""
    seen: list[str] = []
    handle = platform.handle_message

    def recording(message, src_ip, network):
        seen.append(src_ip)
        return handle(message, src_ip, network)

    monkeypatch.setattr(platform, "handle_message", recording)
    return seen


def _resolve_from(world, client_ip: str, target_ip: str, label: str):
    qname = world.cde.unique_name(label)
    world.network.query(client_ip, target_ip,
                        DnsMessage.make_query(qname, RRType.A))
    return qname


def test_upstream_queries_carry_the_component_egress_never_the_client(
        world, monkeypatch):
    hosted = world.add_platform(n_ingress=2, n_caches=3, n_egress=4)
    platform = hosted.platform
    upstream_sources = _recording_ingress(monkeypatch, platform)
    multipool = world.add_multipool_platform([(1, 2, 2), (2, 1, 3)])
    forwarder = ForwardingResolver("fwd", _relay_ip(world),
                                   [platform.ingress_ips[0]], world.network)
    forwarder.attach()
    misbehaving = MisbehavingResolver(
        listen_ip=_relay_ip(world),
        upstream_ip=platform.ingress_ips[1], network=world.network,
        misbehavior=Misbehavior(rewrite_ttl_to=60))
    misbehaving.attach()
    stub = world.make_stub(hosted)

    # (component, client address, what it resolved, its egress IPs)
    probes = []
    client = _client_ip(world)
    probes.append(("ResolutionPlatform", client,
                   _resolve_from(world, client, platform.ingress_ips[0],
                                 "platform"),
                   set(platform.egress_ips)))
    for pool in multipool.config.pools:
        client = _client_ip(world)
        probes.append((f"MultiPoolPlatform/{pool.name}", client,
                       _resolve_from(world, client, pool.ingress_ips[0],
                                     "multipool"),
                       set(pool.egress_ips)))
    for relay in (forwarder, misbehaving):
        client = _client_ip(world)
        before = len(upstream_sources)
        qname = _resolve_from(world, client, relay.listen_ip, "relay")
        # The relay re-sends as itself: its upstream never sees the client.
        assert upstream_sources[before:] == [relay.listen_ip]
        probes.append((type(relay).__name__, client, qname,
                       set(platform.egress_ips)))
    before = len(upstream_sources)
    stub_name = world.cde.unique_name("stub")
    assert stub.query(stub_name).addresses
    assert set(upstream_sources[before:]) == {stub.host_ip}
    probes.append(("StubResolver", stub.host_ip, stub_name,
                   set(platform.egress_ips)))

    clients = [client for _, client, _, _ in probes]
    assert len(set(clients)) == len(clients)
    log = world.cde.query_log
    for component, client, qname, egress in probes:
        sources = log.sources(qname=qname)
        assert sources, f"{component}: {qname} never reached the CDE server"
        assert sources <= egress, (component, sorted(sources - egress))
        assert client not in sources, component


@pytest.mark.parametrize("seed", [3, 11])
def test_every_platform_owns_exactly_its_own_caches(world, seed):
    hosted = []
    for population in POPULATIONS:
        generator = PopulationGenerator(population, seed=seed, **CAPS)
        hosted.extend(world.add_platform_from_spec(spec)
                      for spec in generator.draw_many(12))
    assert any(h.spec.n_caches > 1 for h in hosted)
    multipool = world.add_multipool_platform([(1, 3, 1), (2, 2, 2)])

    owned: list[tuple[str, list]] = [
        (h.spec.name, h.platform.caches) for h in hosted]
    owned.extend((pool.config.name, pool.caches)
                  for pool in multipool.pools.values())
    for h in hosted:
        distinct = {id(cache) for cache in h.platform.caches}
        assert len(distinct) == h.spec.n_caches, h.spec.name
    for shape, pool in zip(multipool.config.pools, multipool.pools.values()):
        assert len({id(cache) for cache in pool.caches}) == shape.n_caches

    owner_of: dict[int, str] = {}
    for name, caches in owned:
        for cache in caches:
            first = owner_of.setdefault(id(cache), name)
            assert first == name, f"{name} shares a cache with {first}"
    assert len(owner_of) == sum(len(caches) for _, caches in owned)
