"""Patent-metadata citation statistics and the first predictive model.

Cite3 is the average number of forward citations a domain patent
receives within 3 years of publication (grant). Together with the mean
publication year it feeds the affine rate model

    K1 = -31.1285 + 0.0155 * AvePubYear + 0.1406 * Cite3

whose coefficients are fixed constants (see constants module).
domain_citation_stats, the call behind `predict k1`, gives K1 and its
inputs for a domain slice of a patent collection; per_patent_cite3 gives
every patent's Cite3 count and grant-year cohort percentile for the
regressions. Both count only citations between patents of the collection
they are given, so a run's excluded patents are dropped from the
collection beforehand (core_data.without_patents).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from . import constants
from .core_data import CornrateError, PatentRecord
from .ranking import midrank_percentiles


class CitationError(CornrateError):
    """Missing publication year or impossible (backwards-in-time) citation."""


def build_internal_edges(patents: Mapping[str, PatentRecord]) -> list[tuple[str, str]]:
    """(citing, cited) pairs restricted to patents present in the collection."""
    edges = []
    for p in patents.values():
        for cited in p.cited_patents:
            if cited in patents:
                edges.append((p.patent_number, cited))
    return edges


def cite3_counts(patents: Iterable[PatentRecord],
                 citation_edges: Iterable[tuple[str, str]],
                 pub_years: Mapping[str, int]) -> dict[str, int]:
    """Per-patent count of forward citations within the 3-year window.

    pub_years gives the publication year of each patent counted and of
    every patent citing one.
    """
    counts = {p.patent_number: 0 for p in patents}
    for citing, cited in citation_edges:
        if cited not in counts:
            continue
        if citing not in pub_years:
            raise CitationError(f"no publication year for citing patent {citing}")
        delta = pub_years[citing] - pub_years[cited]
        if delta < 0:
            raise CitationError(
                f"citation from {citing} predates cited patent {cited}")
        if delta <= 3:
            counts[cited] += 1
    return counts


def per_patent_cite3(patents: Mapping[str, PatentRecord]
                     ) -> tuple[dict[str, int], dict[str, float]]:
    """Each patent's cite3 count over the collection's internal edges, and its
    mid-rank percentile within its grant-year cohort."""
    granted = {n: p.granted_year for n, p in patents.items()}
    counts = cite3_counts(patents.values(), build_internal_edges(patents), granted)
    return counts, midrank_percentiles(counts, granted)


def predict_k1(ave_pub_year: float, cite3: float) -> float:
    return (constants.K1_INTERCEPT
            + constants.K1_AVE_PUB_YEAR * ave_pub_year
            + constants.K1_CITE3 * cite3)


def domain_citation_stats(patents: Mapping[str, PatentRecord],
                          domain: Iterable[PatentRecord]) -> dict:
    """K1 and its inputs for a domain slice of a patent collection.

    The citations are the collection's internal edges, so a citing patent
    may fall outside the slice; each patent is published in its grant
    year. spc is the number of domain patents and cite3_total the sum of
    their cite3_counts, whose mean is cite3. An empty domain is a
    CitationError.
    """
    domain = list(domain)
    if not domain:
        raise CitationError("no domain patents")
    total = sum(cite3_counts(domain, build_internal_edges(patents),
                             {n: p.granted_year for n, p in patents.items()}).values())
    cite3 = total / len(domain)
    ave_pub_year = math.fsum(p.granted_year for p in domain) / len(domain)
    return {"spc": len(domain), "cite3": cite3, "cite3_total": total,
            "ave_pub_year": ave_pub_year, "k1": predict_k1(ave_pub_year, cite3)}
