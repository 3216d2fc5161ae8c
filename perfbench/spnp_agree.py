"""Exact-versus-log SPNP agreement on one citation network.

Usage: python3 perfbench/spnp_agree.py NODES_CSV EDGES_CSV

Ranks every node by exact SPNP and by log-space SPNP within its
application-year cohort and prints one JSON object: the time of the log
mode, the largest exact SPNP bit length, and the number of nodes whose
cohort percentile differs between the modes. Log mode is exact only up
to near-ties, so the mismatch count is what a faster log path must hold.
"""

from __future__ import annotations

import json
import sys
import time

from cornrate.citation_network import CitationNetwork, compute_spnp
from cornrate.ranking import midrank_percentiles


def agreement(nodes_csv: str, edges_csv: str) -> dict:
    net = CitationNetwork.from_files(nodes_csv, edges_csv)
    exact = compute_spnp(net)
    start = time.perf_counter()
    logs = compute_spnp(net, approximate=True)
    log_s = time.perf_counter() - start
    exact_pct = midrank_percentiles(exact, net.application_years)
    log_pct = midrank_percentiles(logs, net.application_years)
    return {
        "spnp_log_s": log_s,
        "max_spnp_bits": max(v.bit_length() for v in exact.values()),
        "log_rank_mismatch": sum(exact_pct[n] != log_pct[n] for n in exact_pct),
    }


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.rsplit("Usage: ", 1)[1].split("\n")[0])
    print(json.dumps(agreement(sys.argv[1], sys.argv[2])))
