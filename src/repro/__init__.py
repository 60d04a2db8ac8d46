"""repro — threshold-based frequent closed itemset mining over probabilistic data.

A full reproduction of Tong, Chen & Ding, *"Discovering Threshold-based
Frequent Closed Itemsets over Probabilistic Data"* (ICDE 2012): the MPFCI
depth-first miner with its Chernoff-Hoeffding, superset, subset and
probability-bound prunings, the ApproxFCP FPRAS, the comparison frameworks
(BFS, Naive), the exact- and uncertain-data mining substrates, the paper's
dataset generators, and an experiment harness that regenerates every table
and figure of the evaluation section.

Quickstart::

    from repro import UncertainDatabase, mine_pfci

    db = UncertainDatabase.from_rows([
        ("T1", "abcd", 0.9),
        ("T2", "abc", 0.6),
        ("T3", "abc", 0.7),
        ("T4", "abcd", 0.9),
    ])
    for result in mine_pfci(db, min_sup=2, pfct=0.8):
        print(result)          # {a, b, c}: 0.8754   {a, b, c, d}: 0.8100
"""

from .core import (
    MinerConfig,
    MinerStatistics,
    MiningStats,
    MPFCIMiner,
    ProbabilisticFrequentClosedItemset,
    SupportDPCache,
    UncertainDatabase,
    UncertainTransaction,
    mine_pfci,
    paper_table2_database,
    paper_table4_database,
)
from .core.bfs import MPFCIBreadthFirstMiner
from .core.closedness import (
    closed_probability_exact,
    frequent_closed_probability_exact,
    frequent_probability_of,
)
from .core.naive import NaiveMiner
from .core.topk import TopKResult, mine_top_k_pfci
from .core.verify import VerificationReport, verify_results
from .core.rules import (
    ProbabilisticAssociationRule,
    generate_probabilistic_rules,
    rule_confidence_probability,
)
from .runtime import mine_pfci_parallel

__version__ = "1.0.0"

__all__ = [
    "MinerConfig",
    "MinerStatistics",
    "MiningStats",
    "MPFCIMiner",
    "SupportDPCache",
    "MPFCIBreadthFirstMiner",
    "NaiveMiner",
    "ProbabilisticFrequentClosedItemset",
    "UncertainDatabase",
    "UncertainTransaction",
    "closed_probability_exact",
    "frequent_closed_probability_exact",
    "frequent_probability_of",
    "mine_pfci",
    "mine_pfci_parallel",
    "mine_top_k_pfci",
    "TopKResult",
    "VerificationReport",
    "ProbabilisticAssociationRule",
    "generate_probabilistic_rules",
    "rule_confidence_probability",
    "verify_results",
    "paper_table2_database",
    "paper_table4_database",
    "__version__",
]
