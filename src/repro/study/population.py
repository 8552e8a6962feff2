"""Synthetic network populations (paper §III, Figures 3–8).

The paper studied three populations: networks operating **open resolvers**
(1K of the Alexa top-10K), **enterprises** probed through their email
servers (top-1K), and **ISPs** reached through an ad network.  We cannot
probe the 2017 Internet, so each population is a generative model whose
*structural* distributions — ingress IPs, caches, egress IPs, selector
unpredictability, per-country loss — are fit to the shapes the paper
reports:

* open resolvers: ~70% one IP/one cache, 85% ≤5 egress IPs, a long thin
  tail of giants (>500 IPs, >30 caches — the top-right circles of Fig. 5);
* enterprises: the heaviest platforms — 50% with >20 egress IPs, 65% with
  1–4 caches, >80% multi-IP *and* multi-cache, <5% single/single;
* ISPs: in between — 50% with >11 egress IPs, ~60% with 1–3 caches, <10%
  single/single;
* all populations: >80% unpredictable cache selection (§IV-A).

The generators emit :class:`PlatformSpec` values; wiring them into live
platforms is :mod:`repro.study.internet`'s job.  The Figures 3–8 benches
then *measure* the resulting platforms with the CDE — the figures are
regenerated from measurements, not echoed from these configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .operators import country_of_operator, draw_operator

POPULATIONS = ("open-resolvers", "email-servers", "ad-network")

#: §IV-A: "more than 80% of the networks in our dataset support
#: unpredictable cache selection."
SELECTOR_MIX: list[tuple[str, float]] = [
    ("uniform-random", 0.70),
    ("sticky-random", 0.12),
    ("round-robin", 0.08),
    ("least-loaded", 0.04),
    ("qname-hash", 0.03),
    ("source-ip-hash", 0.03),
]


@dataclass(frozen=True)
class PlatformSpec:
    """Structural description of one generated platform."""

    population: str
    index: int
    operator: str
    country: str
    n_ingress: int
    n_caches: int
    n_egress: int
    selector_name: str

    @property
    def name(self) -> str:
        return f"{self.population}-{self.index}"

    @property
    def is_single_single(self) -> bool:
        return self.n_ingress == 1 and self.n_caches == 1

    @property
    def selector_unpredictable(self) -> bool:
        return self.selector_name in ("uniform-random", "sticky-random")


@dataclass(frozen=True)
class _Category:
    """One mixture component: weight + inclusive ranges."""

    weight: float
    ingress: tuple[int, int]
    caches: tuple[int, int]
    egress: tuple[int, int]


#: Open resolvers: dominated by single-IP single-cache front caches whose
#: "main purpose is to reduce traffic to the nameservers" (§III-A), plus a
#: sparse tail of big public services (Google Public DNS, OpenDNS scale).
OPEN_RESOLVER_CATEGORIES = [
    _Category(0.68, (1, 1), (1, 1), (1, 1)),
    _Category(0.12, (1, 2), (1, 2), (1, 3)),
    _Category(0.10, (2, 8), (1, 3), (2, 5)),
    _Category(0.06, (8, 48), (2, 8), (3, 10)),
    _Category(0.025, (48, 400), (8, 24), (8, 30)),
    _Category(0.015, (500, 1000), (30, 48), (20, 60)),
]

#: Enterprises: heavyweight platforms; "50% of the platforms use more than
#: 20 IP addresses" and "65% use 1-4 caches per egress IP" (§V-A).
ENTERPRISE_CATEGORIES = [
    _Category(0.04, (1, 1), (1, 1), (1, 2)),
    _Category(0.11, (1, 2), (2, 4), (3, 20)),
    _Category(0.35, (2, 6), (1, 4), (6, 20)),
    _Category(0.35, (2, 8), (2, 6), (21, 50)),
    _Category(0.15, (4, 12), (4, 16), (51, 120)),
]

#: ISPs: "50% use more than 11 IP addresses", "60% ... 1-3 caches",
#: fewer than 10% single/single (§V-A).
ISP_CATEGORIES = [
    _Category(0.08, (1, 1), (1, 1), (1, 1)),
    _Category(0.12, (1, 2), (1, 2), (2, 6)),
    _Category(0.30, (2, 6), (1, 3), (5, 12)),
    _Category(0.35, (3, 10), (2, 5), (12, 30)),
    _Category(0.15, (5, 16), (4, 12), (25, 80)),
]

_CATEGORY_TABLES = {
    "open-resolvers": OPEN_RESOLVER_CATEGORIES,
    "email-servers": ENTERPRISE_CATEGORIES,
    "ad-network": ISP_CATEGORIES,
}


def draw_selector_name(rng: random.Random) -> str:
    names = [name for name, _ in SELECTOR_MIX]
    weights = [weight for _, weight in SELECTOR_MIX]
    return rng.choices(names, weights=weights, k=1)[0]


def _draw_category(categories: list[_Category], rng: random.Random) -> _Category:
    weights = [category.weight for category in categories]
    return rng.choices(categories, weights=weights, k=1)[0]


def _draw_range(bounds: tuple[int, int], rng: random.Random) -> int:
    low, high = bounds
    return rng.randint(low, high)


class PopulationGenerator:
    """Draws :class:`PlatformSpec` values for one of the three populations."""

    def __init__(self, population: str, seed: int = 0,
                 max_caches: Optional[int] = None,
                 max_ingress: Optional[int] = None,
                 max_egress: Optional[int] = None):
        if population not in POPULATIONS:
            raise ValueError(f"unknown population {population!r}; "
                             f"expected one of {POPULATIONS}")
        self.population = population
        self.rng = random.Random(seed)
        self._categories = _CATEGORY_TABLES[population]
        # Optional caps let fast test runs bound the tail without changing
        # the body of the distribution.
        self.max_caches = max_caches
        self.max_ingress = max_ingress
        self.max_egress = max_egress
        self._index = 0

    def draw(self) -> PlatformSpec:
        self._index += 1
        rng = self.rng
        category = _draw_category(self._categories, rng)
        operator = draw_operator(self.population, rng)
        country = country_of_operator(operator, rng)
        n_ingress = _draw_range(category.ingress, rng)
        n_caches = _draw_range(category.caches, rng)
        n_egress = _draw_range(category.egress, rng)
        if self.max_ingress is not None:
            n_ingress = min(n_ingress, self.max_ingress)
        if self.max_caches is not None:
            n_caches = min(n_caches, self.max_caches)
        if self.max_egress is not None:
            n_egress = min(n_egress, self.max_egress)
        return PlatformSpec(
            population=self.population,
            index=self._index,
            operator=operator,
            country=country,
            n_ingress=n_ingress,
            n_caches=n_caches,
            n_egress=n_egress,
            selector_name=draw_selector_name(rng),
        )

    def draw_many(self, count: int) -> list[PlatformSpec]:
        return [self.draw() for _ in range(count)]

    def iter_draws(self, count: int) -> Iterator[PlatformSpec]:
        """Stream ``count`` draws without materializing the list.

        Same RNG, same order — ``list(gen.iter_draws(n))`` equals
        ``gen.draw_many(n)`` from the same generator state.  The streaming
        census uses this so million-platform populations never exist as a
        list anywhere.
        """
        for _ in range(count):
            yield self.draw()


def generate_population(population: str, count: int, seed: int = 0,
                        **caps: Optional[int]) -> list[PlatformSpec]:
    """Convenience: ``count`` specs of one population."""
    return PopulationGenerator(population, seed=seed, **caps).draw_many(count)


def iter_population(population: str, count: int, seed: int = 0,
                    **caps: Optional[int]) -> Iterator[PlatformSpec]:
    """Streaming sibling of :func:`generate_population` (identical specs)."""
    return PopulationGenerator(population, seed=seed,
                               **caps).iter_draws(count)
