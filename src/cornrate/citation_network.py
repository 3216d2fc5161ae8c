"""Citation DAG, SPNP centrality and the second predictive model.

SPNP (search path node pairs) for a node i counts ordered pairs of
patents connected by a citation path running through i, with i itself
allowed as an endpoint:

    SPNP(i) = (1 + P_down(i)) * (1 + P_up(i))

where P_down(i) is the number of directed citation paths from i to any
earlier patent and P_up(i) the number of paths from later patents into
i. Path counts are exact Python integers; they grow exponentially with
network size, so a log-space approximation is available behind a flag.

Downstream: per-application-year mid-rank percentiles of SPNP, the
domain centrality (mean over domain patents of the mean percentile of
their cited patents), the growth rate Z of the domain's highly cited
patents (those whose application-year cohort percentile of forward
citations is >= constants.DEFAULT_HIGHLY_CITED_THRESHOLD), and

    K2 = exp(5.0575 * Centrality + 10.1261 * Z - 5.8486).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Mapping

from . import constants
from .core_data import EDGE_COLUMNS, NODE_COLUMNS, _open_csv, _require_columns
from .ranking import midrank_percentiles
from .trend import TrendSeries, fit_exponential


class NetworkError(Exception):
    """Malformed network: cycle, self-edge, duplicate or year violation."""


class CitationNetwork:
    """Directed acyclic citation graph; edges point citing -> cited."""

    def __init__(self, application_years: Mapping[str, int],
                 edges: Iterable[tuple[str, str]]):
        self.application_years = dict(application_years)
        self.out_edges: dict[str, list[str]] = {n: [] for n in self.application_years}
        self.in_edges: dict[str, list[str]] = {n: [] for n in self.application_years}
        seen: set[tuple[str, str]] = set()
        for citing, cited in edges:
            if citing == cited:
                raise NetworkError(f"self-citation on {citing}")
            if (citing, cited) in seen:
                raise NetworkError(f"duplicate edge {citing} -> {cited}")
            for node in (citing, cited):
                if node not in self.application_years:
                    raise NetworkError(f"edge endpoint {node} not in node set")
            if self.application_years[cited] > self.application_years[citing]:
                raise NetworkError(
                    f"cited patent {cited} applied after citing patent {citing}")
            seen.add((citing, cited))
            self.out_edges[citing].append(cited)
            self.in_edges[cited].append(citing)
        self._topo_order = self._topological_order()

    def _topological_order(self) -> list[str]:
        # Kahn's algorithm over citing -> cited; detects same-year cycles.
        indegree = {n: len(self.in_edges[n]) for n in self.application_years}
        queue = deque(sorted(n for n, d in indegree.items() if d == 0))
        order = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for cited in self.out_edges[node]:
                indegree[cited] -= 1
                if indegree[cited] == 0:
                    queue.append(cited)
        if len(order) != len(self.application_years):
            raise NetworkError("citation network contains a cycle")
        return order

    @classmethod
    def from_files(cls, node_csv, edge_csv) -> "CitationNetwork":
        for p in (node_csv, edge_csv):
            if not Path(p).is_file():
                raise NetworkError(f"missing file: {p}")
        handle, reader = _open_csv(node_csv)
        with handle:
            number, year = _require_columns(reader, NODE_COLUMNS, node_csv).values()
            years = {row[number].strip(): int(row[year]) for row in reader}
        handle, reader = _open_csv(edge_csv)
        with handle:
            citing, cited = _require_columns(reader, EDGE_COLUMNS, edge_csv).values()
            edges = [(row[citing].strip(), row[cited].strip()) for row in reader]
        return cls(years, edges)


def compute_spnp(net: CitationNetwork, approximate: bool = False) -> dict:
    """Exact SPNP per node; with approximate=True, natural-log values.

    The log-space mode is for networks whose path counts overflow any
    practical exact computation; near-ties may rank differently there.
    """
    order = net._topo_order  # citing before cited
    if approximate:
        # log(1 + P_down), via logaddexp over children.
        log_down: dict[str, float] = {}
        for node in reversed(order):
            acc = 0.0  # log(1): the empty-path term
            for cited in net.out_edges[node]:
                acc = _logaddexp(acc, log_down[cited])
            log_down[node] = acc
        log_up: dict[str, float] = {}
        for node in order:
            acc = 0.0
            for citing in net.in_edges[node]:
                acc = _logaddexp(acc, log_up[citing])
            log_up[node] = acc
        # log_down[n] = log(1 + P_down(n)), likewise up, so the sum is log SPNP.
        return {n: log_down[n] + log_up[n] for n in net.application_years}

    p_down: dict[str, int] = {}
    for node in reversed(order):
        p_down[node] = sum(1 + p_down[cited] for cited in net.out_edges[node])
    p_up: dict[str, int] = {}
    for node in order:
        p_up[node] = sum(1 + p_up[citing] for citing in net.in_edges[node])
    return {n: (1 + p_down[n]) * (1 + p_up[n]) for n in net.application_years}


def _logaddexp(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


@dataclass
class DomainCentrality:
    value: float
    n_used: int                 # domain patents entering the outer mean
    n_excluded_no_citations: int
    n_skipped_unknown_cited: int


def domain_centrality(domain_patents: Iterable[str], net: CitationNetwork,
                      rank_percentile: Mapping[str, float]) -> DomainCentrality:
    """Mean over domain patents of the mean percentile of their cited patents.

    Patents citing nothing contribute nothing (1/CB_i undefined) and are
    tallied; cited patents without a percentile (outside the scored
    corpus) are skipped and tallied.
    """
    inner_means = []
    excluded = 0
    skipped = 0
    for patent in sorted(set(domain_patents)):
        cited = net.out_edges.get(patent, [])
        scored = [rank_percentile[c] for c in cited if c in rank_percentile]
        skipped += len(cited) - len(scored)
        if not scored:
            excluded += 1
            continue
        inner_means.append(math.fsum(scored) / len(scored))
    if not inner_means:
        raise NetworkError("no domain patent has scored citations")
    return DomainCentrality(
        value=math.fsum(inner_means) / len(inner_means),
        n_used=len(inner_means),
        n_excluded_no_citations=excluded,
        n_skipped_unknown_cited=skipped,
    )


def classify_highly_cited(citation_percentiles: Mapping[str, float],
                          threshold: float = constants.DEFAULT_HIGHLY_CITED_THRESHOLD
                          ) -> dict[str, bool]:
    """Inclusive threshold on the cohort citation rank percentile."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    return {k: v >= threshold for k, v in citation_percentiles.items()}


def compute_z(domain_patents: Iterable[str], highly_cited: Mapping[str, bool],
              application_years: Mapping[str, int]) -> float:
    """Exponential rate of the cumulative highly-cited count by application year.

    Years before the first highly cited patent are excluded (log of zero);
    with no highly cited patents at all, or only in the last domain year,
    Z = 0 by convention.
    """
    domain = sorted(set(domain_patents))
    counts: dict[int, int] = {}
    for patent in domain:
        if highly_cited.get(patent, False):
            year = application_years[patent]
            counts[year] = counts.get(year, 0) + 1
    if not counts:
        return 0.0
    years = range(min(counts), max(application_years[p] for p in domain) + 1)
    if len(years) < 2:
        return 0.0
    cumulative = accumulate(counts.get(year, 0) for year in years)
    return fit_exponential(TrendSeries(tuple(zip(years, cumulative)))).k


def predict_k2(centrality: float, z: float) -> float:
    return math.exp(constants.K2_CENTRALITY * centrality
                    + constants.K2_Z * z
                    + constants.K2_INTERCEPT)


@dataclass
class CentralityResult:
    spnp: dict[str, int]
    rank_percentile: dict[str, float]
    centrality: DomainCentrality
    z: float
    k2: float
    n_highly_cited: int = 0


def evaluate_domain(net: CitationNetwork, domain_patents: Iterable[str],
                    citation_percentiles: Mapping[str, float],
                    threshold: float = constants.DEFAULT_HIGHLY_CITED_THRESHOLD
                    ) -> CentralityResult:
    """Full second-model evaluation for one domain within a network.

    Centrality comes from the cohort SPNP percentiles of the network.
    citation_percentiles are the cohort (application-year) mid-rank
    percentiles of forward-citation counts; a domain patent is highly
    cited when its percentile is >= threshold, and those flags drive Z.
    """
    domain = sorted(set(domain_patents))
    spnp = compute_spnp(net)
    percentile = midrank_percentiles(spnp, net.application_years)
    centrality = domain_centrality(domain, net, percentile)
    flags = classify_highly_cited(citation_percentiles, threshold)
    z = compute_z(domain, flags, net.application_years)
    return CentralityResult(
        spnp=spnp,
        rank_percentile=percentile,
        centrality=centrality,
        z=z,
        k2=predict_k2(centrality.value, z),
        n_highly_cited=sum(1 for p in domain if flags.get(p, False)),
    )
