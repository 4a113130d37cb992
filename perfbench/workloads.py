"""Seeded job lists for the four benchmark workloads.

A job is one ``posetlab`` command line plus the input documents it
reads and the oracle that checks its output. ``--seed`` only picks
values: function coefficients and supports, witness bases and avoid
sets, conjecture sample points and large primes. Sizes and factor
shapes are fixed, so every seed asks for comparable work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from arith import factorize, format_scalar, next_prime, small_primes, window_elements

WORKLOADS = ("invert", "search", "witness", "factor")

# (family, window bound, coefficient kind, support size besides the bottom)
INVERT_FAMILIES = (
    ("divisibility", 1500, "int", 24),
    ("multisets", 500, "rational", 16),
    ("subsets", 8, "gaussian", 12),
)

# (family, window bound, shell bound)
SEARCHES = (
    ("divisibility", 64, 128),
    ("multisets", 48, 96),
    ("subsets", 5, 7),
    ("chain", 80, 160),
)
CONJECTURE = ("divisibility", 48, 96, 3)  # family, window, shell, sample points

FIRST_PRIMES = small_primes(10)


@dataclass
class Job:
    """One CLI invocation. ``argv`` follows ``posetlab``; ``files`` maps
    file names (relative to the work directory) to document text, or to
    ``None`` for a document that another job's expected output fills.
    ``check`` names the oracle in ``oracles.py`` and ``facts`` carries
    what the oracle needs to know about the generated input."""

    name: str
    argv: list
    check: str
    facts: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    output_of: str | None = None  # file this job's stdout becomes


def jobs_for(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"posetlab-bench:{workload}:{seed}")
    return globals()[f"_{workload}_jobs"](rng)


# -- element encodings -------------------------------------------------


def encode(family: str, element) -> str:
    """Element encoding for an int (divisibility, chain, multisets by
    integer image) or a sorted tuple (subsets)."""
    if family == "subsets":
        return "{" + ",".join(map(str, element)) + "}"
    if family == "multisets":
        if element == 1:
            return "1"
        return "*".join(
            f"{p}^{k}" if k > 1 else str(p) for p, k in sorted(factorize(element).items())
        )
    return str(element)


def _coefficient(rng: random.Random, kind: str) -> str:
    def nonzero(lo, hi):
        return rng.choice([v for v in range(lo, hi + 1) if v])

    if kind == "int":
        return format_scalar(nonzero(-9, 9), 0)
    if kind == "rational":
        return format_scalar(Fraction(nonzero(-9, 9), rng.randint(1, 7)), 0)
    return format_scalar(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(nonzero(-5, 5), rng.randint(1, 4)),
    )


def _function_document(rng, family, bound, kind, extra) -> dict:
    window = window_elements(family, bound)
    bottom = window[0] if family != "subsets" else ()
    support = [bottom] + rng.sample(window[1:], extra)
    return {
        "poset": family,
        "values": {encode(family, x): _coefficient(rng, kind) for x in support},
    }


# -- workloads -------------------------------------------------------------


def _invert_jobs(rng):
    jobs = []
    for family, bound, kind, extra in INVERT_FAMILIES:
        doc = _function_document(rng, family, bound, kind, extra)
        f_name, g_name = f"{family}_f.json", f"{family}_g.json"
        facts = {"family": family, "bound": bound, "document": doc}
        jobs.append(
            Job(
                name=f"transform-{family}",
                argv=["transform", "--fn", f_name, "--bound", str(bound), "--json"],
                check="transform",
                facts=facts,
                files={f_name: json.dumps(doc)},
                output_of=g_name,
            )
        )
        jobs.append(
            Job(
                name=f"invert-{family}",
                argv=["invert-transform", "--fn", g_name, "--bound", str(bound), "--json"],
                check="invert",
                facts=facts,
                files={g_name: None},
            )
        )
    return jobs


def _search_jobs(rng):
    jobs = []
    for family, bound, shell in SEARCHES:
        jobs.append(
            Job(
                name=f"search-{family}",
                argv=["search", "--poset", family, "--bound", str(bound),
                      "--shell-bound", str(shell), "--json"],
                check="search",
                facts={"family": family, "bound": bound, "shell": shell},
            )
        )
    family, bound, shell, points = CONJECTURE
    sample = sorted(rng.sample(range(1, bound + 1), points))
    jobs.append(
        Job(
            name=f"conjecture-{family}",
            argv=["conjecture", "--poset", family, "--alpha", "mobius", "--beta", "zeta",
                  "--bound", str(bound), "--shell-bound", str(shell),
                  "--sample", ",".join(map(str, sample)), "--json"],
            check="conjecture",
            facts={"family": family, "bound": bound, "shell": shell, "sample": sample},
        )
    )
    return jobs


def _witness_jobs(rng):
    jobs = []

    def witness(family, y, avoid, count, budget=None, expect_found=None):
        argv = ["witness", "--poset", family, "--y", encode(family, y),
                "--avoid", ",".join(encode(family, s) for s in avoid), "--count", str(count)]
        if budget is not None:
            argv += ["--budget", str(budget)]
        jobs.append(
            Job(
                name=f"witness-{family}",
                argv=argv + ["--json"],
                check="witness",
                facts={"family": family, "y": y, "avoid": avoid, "count": count,
                       "found": count if expect_found is None else expect_found},
            )
        )

    # Divisibility: y has 6 prime factors; the avoid set blocks two or three more.
    base = rng.sample(FIRST_PRIMES, 6)
    spare = [p for p in FIRST_PRIMES if p not in base]
    witness("divisibility", prod(base), [rng.choice(spare), prod(rng.sample(spare, 2))], 12)
    # Chain: only z = 2 passes above 1, so the budget runs out by design.
    witness("chain", 1, [], 3, budget=1500, expect_found=1)
    # Subsets: y = {1..6}; the avoid set blocks three fresh ground elements.
    fresh = rng.sample(range(7, 20), 3)
    witness("subsets", tuple(range(1, 7)), [(fresh[0],), tuple(sorted(fresh[1:]))], 10)
    # Multisets: y has 5 prime factors; the avoid set blocks one more prime.
    base = rng.sample(FIRST_PRIMES, 5)
    spare = [p for p in FIRST_PRIMES if p not in base]
    witness("multisets", prod(base), [rng.choice(spare)], 12)

    # Verify: a divisibility function with the bottom in its support.
    support = [1] + rng.sample(range(2, 121), 7)
    doc = {"poset": "divisibility",
           "values": {str(x): _coefficient(rng, "int") for x in support}}
    jobs.append(
        Job(
            name="verify-divisibility",
            argv=["verify", "--fn", "verify_g.json", "--count", "40", "--json"],
            check="verify",
            facts={"family": "divisibility", "document": doc, "count": 40},
            files={"verify_g.json": json.dumps(doc)},
        )
    )
    return jobs


def _factor_jobs(rng):
    def large_prime():
        return next_prime(3 * 10**13 + rng.randrange(10**11))

    def seven_digit_prime():
        return next_prime(2_000_000 + rng.randrange(100_000))

    def composite():
        smalls = rng.sample(FIRST_PRIMES[:6], 2)
        p = seven_digit_prime()
        q = seven_digit_prime()
        while q == p:
            q = seven_digit_prime()
        return p * q * prod(smalls), [p, q] + smalls

    jobs = []
    n = large_prime()
    jobs.append(Job("classical-mobius", ["classical-mobius", "--n", str(n), "--json"],
                    "factor", {"n": n, "factors": [n]}))
    n = large_prime()
    jobs.append(Job("isomap", ["isomap", "--n", str(n), "--json"],
                    "factor", {"n": n, "factors": [n]}))
    n, factors = composite()
    jobs.append(Job("census-divisors", ["census", "--poset", "divisibility", "--x", "1",
                                        "--divisors", str(n), "--json"],
                    "factor", {"n": n, "factors": factors}))
    n, factors = composite()
    jobs.append(Job("mobius", ["mobius", "--poset", "divisibility", "--x", "1",
                               "--y", str(n), "--json"],
                    "factor", {"n": n, "factors": factors}))
    return jobs
