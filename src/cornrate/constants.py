"""Published model coefficients and default analysis parameters.

Every coefficient here is taken as a given constant; nothing in this
package refits them. Reports echo this module's contents so that any
output can be traced back to the constant set that produced it.
"""

CONSTANTS_VERSION = "1"

# Benson & Magee patent-metadata model:
#   K1 = K1_INTERCEPT + K1_AVE_PUB_YEAR * AvePubYear + K1_CITE3 * Cite3
K1_INTERCEPT = -31.1285
K1_AVE_PUB_YEAR = 0.0155
K1_CITE3 = 0.1406

# Triulzi & Magee network model:
#   K2 = exp(K2_CENTRALITY * Centrality + K2_Z * Z + K2_INTERCEPT)
K2_CENTRALITY = 5.0575
K2_Z = 10.1261
K2_INTERCEPT = -5.8486

# Four heavily cited early patents conventionally excluded from the
# citation statistics, plus the cutoffs used for the six-way K1/K2 split.
HIGHLY_CITED_EXCLUSIONS = ("4629819", "4607453", "4731499", "4737596")
FILED_UNTIL_EARLY = 2005
FILED_UNTIL_LATE = 2013

# Forward citations are counted up to the end of this year.
DEFAULT_CITATION_CUTOFF_YEAR = 2015

# Artifact defaults (not published values): the highly-cited criterion is
# unspecified upstream, and 7 is the shortest control run worth fitting.
# Highly-cited rule used for Z: a patent is highly cited when the mid-rank
# percentile of its forward-citation count within its application-year
# cohort is >= DEFAULT_HIGHLY_CITED_THRESHOLD (inclusive); a run config's
# highly_cited_threshold replaces the default.
DEFAULT_HIGHLY_CITED_THRESHOLD = 0.90
DEFAULT_CONTROL_MIN_YEARS = 7


def provenance() -> dict:
    """Constant set echoed into every CLI report for auditability."""
    return {
        "constants_version": CONSTANTS_VERSION,
        "k1": {
            "intercept": K1_INTERCEPT,
            "ave_pub_year": K1_AVE_PUB_YEAR,
            "cite3": K1_CITE3,
        },
        "k2": {
            "centrality": K2_CENTRALITY,
            "z": K2_Z,
            "intercept": K2_INTERCEPT,
        },
        "highly_cited_exclusions": list(HIGHLY_CITED_EXCLUSIONS),
        "filed_until_early": FILED_UNTIL_EARLY,
        "filed_until_late": FILED_UNTIL_LATE,
        "citation_cutoff_year": DEFAULT_CITATION_CUTOFF_YEAR,
        "highly_cited_threshold_default": DEFAULT_HIGHLY_CITED_THRESHOLD,
        "control_min_years_default": DEFAULT_CONTROL_MIN_YEARS,
    }
