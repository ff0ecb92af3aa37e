import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from eqcover import Graph, decide_elb, generate_family


def build_corpus():
    g = {
        "K2": generate_family("complete", 2),
        "K3": generate_family("complete", 3),
        "K4": generate_family("complete", 4),
        "K5": generate_family("complete", 5),
        "C4": generate_family("cycle", 4),
        "C5": generate_family("cycle", 5),
        "C6": generate_family("cycle", 6),
        "C7": generate_family("cycle", 7),
        "P3": generate_family("path", 3),
        "P4": generate_family("path", 4),
        "P5": generate_family("path", 5),
        "star3": generate_family("star", 3),
        "star5": generate_family("star", 5),
        "tri_pendant": generate_family("triangle-plus-pendant"),
        "K23": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        "bull": Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
        "matching2": Graph(4, [(0, 1), (2, 3)]),
        "petersen": generate_family("petersen", 5),
        "grotzsch": generate_family("mycielski-iterate", 4),
    }
    return g


def least_elb_by_word_search(g):
    """elb(g) as the least k at which ``decide_elb``, the per-edge word
    search, is sat: a reference that does not read elb off chi."""
    k = 0
    while decide_elb(g, k).status != "sat":
        k += 1
    return k


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


# graphs small enough that every invariant is exactly solvable in milliseconds
EXACT_NAMES = [
    "K2",
    "K3",
    "K4",
    "K5",
    "C4",
    "C5",
    "C6",
    "C7",
    "P3",
    "P4",
    "P5",
    "star3",
    "star5",
    "tri_pendant",
    "K23",
    "bull",
    "matching2",
]
