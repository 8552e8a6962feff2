"""Micro-bench: the RFC 1035 codec with and without the name-wire cache.

``wire_fidelity`` worlds push every routed message through
``encode_message``/``decode_message``, so codec cost multiplies directly
into probe throughput (the carpet-bombing and enumeration sweeps of §V
route millions of messages).  The per-``DnsName`` encode cache
(``dns/wire.py``) computes each distinct name's label bytes and
compression suffixes once instead of once per occurrence; this bench
measures what that buys on a realistic message mix and prints it.

Legs:

* ``encode-cached`` — steady-state encoding (cache warm after the first
  pass over the mix: the realistic regime, since probe traffic re-uses
  zone origins and infrastructure names).
* ``encode-cold``   — the cache is cleared before every message, forcing
  the per-name work back into every encode: the pre-cache cost model.
* ``decode``        — wire→message for the same mix (decoding shares the
  intern table but not the encode cache; recorded for context).

Asserts a round-trip sanity check plus cached-encode ≥ cold-encode
throughput, and that a warm pass over the mix hits the cache for every
name occurrence.
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.dns import wire as wire_mod
from repro.dns.message import DnsMessage
from repro.dns.name import name
from repro.dns.record import a_record, cname_record, ns_record
from repro.dns.rrtype import RRType
from repro.dns.wire import decode_message, encode_message, wire_cache_counters

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Distinct platforms in the mix; probe names repeat across rounds the way
#: zone origins and resolver infrastructure names repeat in a real sweep.
N_PLATFORMS = 8 if SMOKE else 64
ROUNDS = 3 if SMOKE else 25


def _message_mix() -> list[DnsMessage]:
    """A probe-sweep-shaped batch: queries plus referral-style responses."""
    messages = []
    for platform in range(N_PLATFORMS):
        origin = name(f"cde-{platform}.measure.example")
        server = name(f"ns.cde-{platform}.measure.example")
        for probe in range(6):
            qname = name(f"p{probe}.cde-{platform}.measure.example")
            messages.append(DnsMessage.make_query(qname, RRType.A,
                                                  msg_id=probe + 1))
            response = DnsMessage.make_query(qname, RRType.A,
                                             msg_id=probe + 1)
            response.is_response = True
            response.authoritative = True
            response.answers = [a_record(qname, "192.0.2.7", ttl=300)]
            response.authority = [ns_record(origin, server, ttl=3600)]
            response.additional = [a_record(server, "192.0.2.53", ttl=3600)]
            messages.append(response)
        alias = name(f"www.cde-{platform}.measure.example")
        cname = DnsMessage.make_query(alias, RRType.A, msg_id=99)
        cname.is_response = True
        cname.answers = [cname_record(alias, origin, ttl=120),
                         a_record(origin, "192.0.2.9", ttl=120)]
        messages.append(cname)
    return messages


def _time_encode(messages, rounds: int, cold: bool) -> tuple[float, int]:
    total_bytes = 0
    elapsed = 0.0
    for _ in range(rounds):
        for message in messages:
            if cold:
                wire_mod._name_wire_cache.clear()
            started = time.perf_counter()
            data = encode_message(message)
            elapsed += time.perf_counter() - started
            total_bytes += len(data)
    return elapsed, total_bytes


def _time_decode(blobs, rounds: int) -> float:
    started = time.perf_counter()
    for _ in range(rounds):
        for blob in blobs:
            decode_message(blob)
    return time.perf_counter() - started


def test_bench_wire_codec(benchmark):
    messages = _message_mix()
    blobs = [encode_message(message) for message in messages]
    # Round-trip sanity: the fast path must not change what survives the
    # wire.
    sample = decode_message(blobs[1])
    assert sample.answers and sample.authority and sample.additional

    def workload():
        legs = {}
        # Warm the cache, then count a full pass: every name occurrence
        # must hit (the mix's name set fits the cache with room to spare).
        _time_encode(messages, 1, cold=False)
        hits0, misses0 = wire_cache_counters()
        _time_encode(messages, 1, cold=False)
        hits1, misses1 = wire_cache_counters()
        assert misses1 == misses0, "warm pass missed the encode cache"
        assert hits1 > hits0

        cached_s, total_bytes = _time_encode(messages, ROUNDS, cold=False)
        cold_s, _ = _time_encode(messages, ROUNDS, cold=True)
        decode_s = _time_decode(blobs, ROUNDS)
        count = ROUNDS * len(messages)
        legs["encode-cached"] = {
            "messages_per_second": count / cached_s if cached_s else 0.0,
            "seconds": cached_s,
        }
        legs["encode-cold"] = {
            "messages_per_second": count / cold_s if cold_s else 0.0,
            "seconds": cold_s,
        }
        legs["decode"] = {
            "messages_per_second": count / decode_s if decode_s else 0.0,
            "seconds": decode_s,
        }
        hits, misses = wire_cache_counters()
        return legs, count, total_bytes, hits, misses

    legs, count, total_bytes, hits, misses = run_once(benchmark, workload)

    cached = legs["encode-cached"]["messages_per_second"]
    cold = legs["encode-cold"]["messages_per_second"]
    speedup = cached / cold if cold else 0.0

    print()
    print(f"wire codec over {count} messages ({total_bytes} bytes/round set)")
    for leg_name, leg in legs.items():
        print(f"  {leg_name:<15} {leg['messages_per_second']:10.0f} msg/s")
    print(f"  cached vs cold encode: {speedup:.2f}x "
          f"({hits} cache hits, {misses} misses in this process)")

    assert cached >= cold, "the name-wire cache must not slow encoding"
