"""Golden CLI table: stdout, stderr and exit status of every subcommand,
in text and with ``--json``, pinned as literals captured from the CLI at
commit 4f9069b. Documents live in a temporary working directory and are
named relatively, so labels and messages carry no machine path."""

import json
import os
import subprocess
import sys

import pytest

import posetlab
from posetlab.cli import run

FILES = {
    "diamond.json": {"elements": ["a", "b", "c", "d"], "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]},
    "div.json": {"poset": "divisibility", "values": {"1": "1", "6": "-2/3"}},
    "chain.json": {"values": {"1": "1", "3": "1/2+1i"}},
    "bad.json": {"values": {"1": "i/2"}},
    "multi.json": {"poset": "multisets", "values": {"1": "1", "2^1*3^1": "-1"}},
    "explicit.json": {"values": {"a": "1", "b": "-1"}},
    "list.json": [],
    "no-covers.json": {"elements": ["a"]},
    "object-elements.json": {"elements": {"a": 1}, "covers": []},
    "integer-id.json": {"elements": [1], "covers": []},
    "empty-id.json": {"elements": [""], "covers": []},
}

# (argv, exit status, stdout, stderr)
CASES = [
    (
        ["mobius", "--poset", "divisibility", "--x", "2", "--y", "12"],
        0,
        "1\n",
        "",
    ),
    (
        ["mobius", "--poset", "divisibility", "--x", "2", "--y", "12", "--json"],
        0,
        (
            "{\n"
            '  "poset": "divisibility",\n'
            '  "x": "2",\n'
            '  "y": "12",\n'
            '  "mobius": "1"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["mobius", "--poset", "subsets", "--x", "{}", "--y", "{1,2,3}"],
        0,
        "-1\n",
        "",
    ),
    (
        ["mobius", "--poset", "subsets", "--x", "{}", "--y", "{1,2,3}", "--json"],
        0,
        (
            "{\n"
            '  "poset": "subsets",\n'
            '  "x": "{}",\n'
            '  "y": "{1,2,3}",\n'
            '  "mobius": "-1"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["mobius", "--poset", "chain", "--x", "5", "--y", "3"],
        2,
        "",
        "error: not comparable: 5 !<= 3 in chain\n",
    ),
    (
        ["mobius", "--poset", "chain", "--x", "5", "--y", "3", "--json"],
        2,
        "",
        "error: not comparable: 5 !<= 3 in chain\n",
    ),
    (
        ["mobius", "--poset-file", "diamond.json", "--x", "a", "--y", "d"],
        0,
        "1\n",
        "",
    ),
    (
        ["mobius", "--poset-file", "diamond.json", "--x", "a", "--y", "d", "--json"],
        0,
        (
            "{\n"
            '  "poset": "diamond.json",\n'
            '  "x": "a",\n'
            '  "y": "d",\n'
            '  "mobius": "1"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["classical-mobius", "--n", "30"],
        0,
        "-1\n",
        "",
    ),
    (
        ["classical-mobius", "--n", "30", "--json"],
        0,
        (
            "{\n"
            '  "n": 30,\n'
            '  "mobius": -1\n'
            "}\n"
        ),
        "",
    ),
    (
        ["classical-mobius", "--n", "12"],
        0,
        "0\n",
        "",
    ),
    (
        ["classical-mobius", "--n", "12", "--json"],
        0,
        (
            "{\n"
            '  "n": 12,\n'
            '  "mobius": 0\n'
            "}\n"
        ),
        "",
    ),
    (
        ["transform", "--fn", "div.json", "--bound", "12"],
        0,
        (
            "1 = 1\n"
            "2 = 1\n"
            "3 = 1\n"
            "4 = 1\n"
            "5 = 1\n"
            "6 = 1/3\n"
            "7 = 1\n"
            "8 = 1\n"
            "9 = 1\n"
            "10 = 1\n"
            "11 = 1\n"
            "12 = 1/3\n"
        ),
        "",
    ),
    (
        ["transform", "--fn", "div.json", "--bound", "12", "--json"],
        0,
        (
            "{\n"
            '  "poset": "divisibility",\n'
            '  "values": {\n'
            '    "1": "1",\n'
            '    "2": "1",\n'
            '    "3": "1",\n'
            '    "4": "1",\n'
            '    "5": "1",\n'
            '    "6": "1/3",\n'
            '    "7": "1",\n'
            '    "8": "1",\n'
            '    "9": "1",\n'
            '    "10": "1",\n'
            '    "11": "1",\n'
            '    "12": "1/3"\n'
            "  }\n"
            "}\n"
        ),
        "",
    ),
    (
        ["transform", "--fn", "div.json", "--divisors", "12"],
        0,
        (
            "1 = 1\n"
            "2 = 1\n"
            "3 = 1\n"
            "4 = 1\n"
            "6 = 1/3\n"
            "12 = 1/3\n"
        ),
        "",
    ),
    (
        ["transform", "--fn", "div.json", "--divisors", "12", "--json"],
        0,
        (
            "{\n"
            '  "poset": "divisibility",\n'
            '  "values": {\n'
            '    "1": "1",\n'
            '    "2": "1",\n'
            '    "3": "1",\n'
            '    "4": "1",\n'
            '    "6": "1/3",\n'
            '    "12": "1/3"\n'
            "  }\n"
            "}\n"
        ),
        "",
    ),
    (
        ["transform", "--fn", "multi.json", "--bound", "8"],
        0,
        (
            "1 = 1\n"
            "2 = 1\n"
            "3 = 1\n"
            "2^2 = 1\n"
            "5 = 1\n"
            "7 = 1\n"
            "2^3 = 1\n"
        ),
        "",
    ),
    (
        ["transform", "--fn", "multi.json", "--bound", "8", "--json"],
        0,
        (
            "{\n"
            '  "poset": "multisets",\n'
            '  "values": {\n'
            '    "1": "1",\n'
            '    "2": "1",\n'
            '    "3": "1",\n'
            '    "2^2": "1",\n'
            '    "5": "1",\n'
            '    "7": "1",\n'
            '    "2^3": "1"\n'
            "  }\n"
            "}\n"
        ),
        "",
    ),
    (
        ["transform", "--poset", "chain", "--fn", "chain.json"],
        1,
        "",
        "error: --bound is required for chain posets\n",
    ),
    (
        ["transform", "--poset", "chain", "--fn", "chain.json", "--json"],
        1,
        "",
        "error: --bound is required for chain posets\n",
    ),
    (
        ["transform", "--poset", "chain", "--fn", "chain.json", "--divisors", "6"],
        1,
        "",
        "error: divisor-closure windows exist only for divisibility\n",
    ),
    (
        ["transform", "--poset", "chain", "--fn", "chain.json", "--divisors", "6", "--json"],
        1,
        "",
        "error: divisor-closure windows exist only for divisibility\n",
    ),
    (
        ["invert-transform", "--fn", "div.json", "--bound", "6"],
        0,
        (
            "1 = 1\n"
            "2 = -1\n"
            "3 = -1\n"
            "5 = -1\n"
            "6 = 1/3\n"
        ),
        "",
    ),
    (
        ["invert-transform", "--fn", "div.json", "--bound", "6", "--json"],
        0,
        (
            "{\n"
            '  "poset": "divisibility",\n'
            '  "values": {\n'
            '    "1": "1",\n'
            '    "2": "-1",\n'
            '    "3": "-1",\n'
            '    "5": "-1",\n'
            '    "6": "1/3"\n'
            "  }\n"
            "}\n"
        ),
        "",
    ),
    (
        ["invert-transform", "--poset", "chain", "--fn", "bad.json", "--bound", "4"],
        1,
        "",
        "error: invalid scalar: 'i/2'\n",
    ),
    (
        ["invert-transform", "--poset", "chain", "--fn", "bad.json", "--bound", "4", "--json"],
        1,
        "",
        "error: invalid scalar: 'i/2'\n",
    ),
    (
        ["invert-transform", "--poset", "chain", "--fn", "chain.json", "--bound", "4"],
        0,
        (
            "1 = 1\n"
            "2 = -1\n"
            "3 = 1/2+1i\n"
            "4 = -1/2-1i\n"
        ),
        "",
    ),
    (
        ["invert-transform", "--poset", "chain", "--fn", "chain.json", "--bound", "4", "--json"],
        0,
        (
            "{\n"
            '  "poset": "chain",\n'
            '  "values": {\n'
            '    "1": "1",\n'
            '    "2": "-1",\n'
            '    "3": "1/2+1i",\n'
            '    "4": "-1/2-1i"\n'
            "  }\n"
            "}\n"
        ),
        "",
    ),
    (
        ["invert-transform", "--poset-file", "diamond.json", "--fn", "explicit.json"],
        0,
        (
            "a = 1\n"
            "b = -2\n"
            "c = -1\n"
            "d = 2\n"
        ),
        "",
    ),
    (
        ["invert-transform", "--poset-file", "diamond.json", "--fn", "explicit.json", "--json"],
        0,
        (
            "{\n"
            '  "poset": "diamond.json",\n'
            '  "values": {\n'
            '    "a": "1",\n'
            '    "b": "-2",\n'
            '    "c": "-1",\n'
            '    "d": "2"\n'
            "  }\n"
            "}\n"
        ),
        "",
    ),
    (
        ["invert-transform", "--poset-file", "diamond.json", "--fn", "explicit.json", "--bound", "7"],
        0,
        (
            "a = 1\n"
            "b = -2\n"
            "c = -1\n"
            "d = 2\n"
        ),
        "",
    ),
    (
        ["invert-transform", "--poset-file", "diamond.json", "--fn", "explicit.json", "--bound", "7", "--json"],
        0,
        (
            "{\n"
            '  "poset": "diamond.json",\n'
            '  "values": {\n'
            '    "a": "1",\n'
            '    "b": "-2",\n'
            '    "c": "-1",\n'
            '    "d": "2"\n'
            "  }\n"
            "}\n"
        ),
        "",
    ),
    (
        ["convolve", "--poset", "divisibility", "--left", "mobius", "--right", "zeta", "--x", "1", "--y", "12"],
        0,
        "0\n",
        "",
    ),
    (
        ["convolve", "--poset", "divisibility", "--left", "mobius", "--right", "zeta", "--x", "1", "--y", "12", "--json"],
        0,
        (
            "{\n"
            '  "poset": "divisibility",\n'
            '  "left": "mobius",\n'
            '  "right": "zeta",\n'
            '  "x": "1",\n'
            '  "y": "12",\n'
            '  "value": "0"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["convolve", "--poset", "chain", "--left", "zeta", "--right", "zeta", "--x", "1", "--y", "4"],
        0,
        "4\n",
        "",
    ),
    (
        ["convolve", "--poset", "chain", "--left", "zeta", "--right", "zeta", "--x", "1", "--y", "4", "--json"],
        0,
        (
            "{\n"
            '  "poset": "chain",\n'
            '  "left": "zeta",\n'
            '  "right": "zeta",\n'
            '  "x": "1",\n'
            '  "y": "4",\n'
            '  "value": "4"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["witness", "--poset", "divisibility", "--y", "2", "--count", "2"],
        0,
        (
            "z=6  mu_yz=-1  disjoint=true  factorize=true  nonzero=true\n"
            "z=10  mu_yz=-1  disjoint=true  factorize=true  nonzero=true\n"
            "found 2 of 2 requested witnesses\n"
        ),
        "",
    ),
    (
        ["witness", "--poset", "divisibility", "--y", "2", "--count", "2", "--json"],
        0,
        (
            "{\n"
            '  "poset": "divisibility",\n'
            '  "y": "2",\n'
            '  "avoid_set": [],\n'
            '  "requested": 2,\n'
            '  "found": 2,\n'
            '  "certificates": [\n'
            "    {\n"
            '      "y": "2",\n'
            '      "avoid_set": [],\n'
            '      "z": "6",\n'
            '      "cond_disjoint": true,\n'
            '      "cond_factorize": true,\n'
            '      "cond_nonzero": true,\n'
            '      "mu_yz": "-1",\n'
            '      "predicted_fz": null,\n'
            '      "observed_fz": null\n'
            "    },\n"
            "    {\n"
            '      "y": "2",\n'
            '      "avoid_set": [],\n'
            '      "z": "10",\n'
            '      "cond_disjoint": true,\n'
            '      "cond_factorize": true,\n'
            '      "cond_nonzero": true,\n'
            '      "mu_yz": "-1",\n'
            '      "predicted_fz": null,\n'
            '      "observed_fz": null\n'
            "    }\n"
            "  ]\n"
            "}\n"
        ),
        "",
    ),
    (
        ["witness", "--poset", "subsets", "--y", "{1}", "--avoid", "{2},{3}", "--count", "2"],
        0,
        (
            "z={1,4}  mu_yz=-1  disjoint=true  factorize=true  nonzero=true\n"
            "z={1,5}  mu_yz=-1  disjoint=true  factorize=true  nonzero=true\n"
            "found 2 of 2 requested witnesses\n"
        ),
        "",
    ),
    (
        ["witness", "--poset", "subsets", "--y", "{1}", "--avoid", "{2},{3}", "--count", "2", "--json"],
        0,
        (
            "{\n"
            '  "poset": "subsets",\n'
            '  "y": "{1}",\n'
            '  "avoid_set": [\n'
            '    "{2}",\n'
            '    "{3}"\n'
            "  ],\n"
            '  "requested": 2,\n'
            '  "found": 2,\n'
            '  "certificates": [\n'
            "    {\n"
            '      "y": "{1}",\n'
            '      "avoid_set": [\n'
            '        "{2}",\n'
            '        "{3}"\n'
            "      ],\n"
            '      "z": "{1,4}",\n'
            '      "cond_disjoint": true,\n'
            '      "cond_factorize": true,\n'
            '      "cond_nonzero": true,\n'
            '      "mu_yz": "-1",\n'
            '      "predicted_fz": null,\n'
            '      "observed_fz": null\n'
            "    },\n"
            "    {\n"
            '      "y": "{1}",\n'
            '      "avoid_set": [\n'
            '        "{2}",\n'
            '        "{3}"\n'
            "      ],\n"
            '      "z": "{1,5}",\n'
            '      "cond_disjoint": true,\n'
            '      "cond_factorize": true,\n'
            '      "cond_nonzero": true,\n'
            '      "mu_yz": "-1",\n'
            '      "predicted_fz": null,\n'
            '      "observed_fz": null\n'
            "    }\n"
            "  ]\n"
            "}\n"
        ),
        "",
    ),
    (
        ["witness", "--poset", "chain", "--y", "1", "--avoid", "1,2", "--count", "1", "--budget", "50"],
        0,
        (
            "found 0 of 1 requested witnesses\n"
            "budget exhausted; absence is not implied\n"
        ),
        "",
    ),
    (
        ["witness", "--poset", "chain", "--y", "1", "--avoid", "1,2", "--count", "1", "--budget", "50", "--json"],
        0,
        (
            "{\n"
            '  "poset": "chain",\n'
            '  "y": "1",\n'
            '  "avoid_set": [\n'
            '    "1",\n'
            '    "2"\n'
            "  ],\n"
            '  "requested": 1,\n'
            '  "found": 0,\n'
            '  "certificates": []\n'
            "}\n"
        ),
        "",
    ),
    (
        ["verify", "--fn", "div.json", "--count", "2"],
        0,
        (
            "y = 1\n"
            "z=5  mu_yz=-1  disjoint=true  factorize=true  nonzero=true  predicted_fz=-1  observed_fz=-1\n"
            "z=7  mu_yz=-1  disjoint=true  factorize=true  nonzero=true  predicted_fz=-1  observed_fz=-1\n"
        ),
        "",
    ),
    (
        ["verify", "--fn", "div.json", "--count", "2", "--json"],
        0,
        (
            "{\n"
            '  "poset": "divisibility",\n'
            '  "count": 2,\n'
            '  "y": "1",\n'
            '  "certificates": [\n'
            "    {\n"
            '      "y": "1",\n'
            '      "avoid_set": [\n'
            '        "1",\n'
            '        "6"\n'
            "      ],\n"
            '      "z": "5",\n'
            '      "cond_disjoint": true,\n'
            '      "cond_factorize": true,\n'
            '      "cond_nonzero": true,\n'
            '      "mu_yz": "-1",\n'
            '      "predicted_fz": "-1",\n'
            '      "observed_fz": "-1"\n'
            "    },\n"
            "    {\n"
            '      "y": "1",\n'
            '      "avoid_set": [\n'
            '        "1",\n'
            '        "6"\n'
            "      ],\n"
            '      "z": "7",\n'
            '      "cond_disjoint": true,\n'
            '      "cond_factorize": true,\n'
            '      "cond_nonzero": true,\n'
            '      "mu_yz": "-1",\n'
            '      "predicted_fz": "-1",\n'
            '      "observed_fz": "-1"\n'
            "    }\n"
            "  ]\n"
            "}\n"
        ),
        "",
    ),
    (
        ["verify", "--poset", "chain", "--fn", "chain.json", "--count", "3", "--budget", "30"],
        2,
        "",
        "error: budget exhausted after 1 of 3 witnesses\n",
    ),
    (
        ["verify", "--poset", "chain", "--fn", "chain.json", "--count", "3", "--budget", "30", "--json"],
        2,
        "",
        "error: budget exhausted after 1 of 3 witnesses\n",
    ),
    (
        ["census", "--poset", "divisibility", "--x", "1", "--bound", "12"],
        0,
        (
            "members: 1,2,3,5,6,7,10,11\n"
            "count: 8\n"
            "verdict: infinite-certified\n"
            "note: squarefree multiples x*q over fresh primes never vanish\n"
        ),
        "",
    ),
    (
        ["census", "--poset", "divisibility", "--x", "1", "--bound", "12", "--json"],
        0,
        (
            "{\n"
            '  "x": "1",\n'
            '  "function": "mobius",\n'
            '  "window": "divisibility[bound=12]",\n'
            '  "members": [\n'
            '    "1",\n'
            '    "2",\n'
            '    "3",\n'
            '    "5",\n'
            '    "6",\n'
            '    "7",\n'
            '    "10",\n'
            '    "11"\n'
            "  ],\n"
            '  "count": 8,\n'
            '  "verdict": "infinite-certified",\n'
            '  "certificate_note": "squarefree multiples x*q over fresh primes never vanish",\n'
            '  "poset": "divisibility"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["census", "--poset", "subsets", "--x", "{}", "--bound", "3", "--alpha", "zeta"],
        0,
        (
            "members: {},{1},{2},{3},{1,2},{1,3},{2,3},{1,2,3}\n"
            "count: 8\n"
            "verdict: inconclusive-window-only\n"
            "note: no analytic certificate for this function on this poset\n"
        ),
        "",
    ),
    (
        ["census", "--poset", "subsets", "--x", "{}", "--bound", "3", "--alpha", "zeta", "--json"],
        0,
        (
            "{\n"
            '  "x": "{}",\n'
            '  "function": "zeta",\n'
            '  "window": "subsets[bound=3]",\n'
            '  "members": [\n'
            '    "{}",\n'
            '    "{1}",\n'
            '    "{2}",\n'
            '    "{3}",\n'
            '    "{1,2}",\n'
            '    "{1,3}",\n'
            '    "{2,3}",\n'
            '    "{1,2,3}"\n'
            "  ],\n"
            '  "count": 8,\n'
            '  "verdict": "inconclusive-window-only",\n'
            '  "certificate_note": "no analytic certificate for this function on this poset",\n'
            '  "poset": "subsets"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["census", "--poset", "chain", "--x", "1"],
        1,
        "",
        "error: --bound is required for chain posets\n",
    ),
    (
        ["census", "--poset", "chain", "--x", "1", "--json"],
        1,
        "",
        "error: --bound is required for chain posets\n",
    ),
    (
        ["census", "--poset", "chain", "--x", "1", "--divisors", "6"],
        1,
        "",
        "error: divisor-closure windows exist only for divisibility\n",
    ),
    (
        ["census", "--poset", "chain", "--x", "1", "--divisors", "6", "--json"],
        1,
        "",
        "error: divisor-closure windows exist only for divisibility\n",
    ),
    (
        ["census", "--poset-file", "diamond.json", "--x", "a"],
        0,
        (
            "members: a,b,c,d\n"
            "count: 4\n"
            "verdict: inconclusive-window-only\n"
            "note: no analytic certificate for this function on this poset\n"
        ),
        "",
    ),
    (
        ["census", "--poset-file", "diamond.json", "--x", "a", "--json"],
        0,
        (
            "{\n"
            '  "x": "a",\n'
            '  "function": "mobius",\n'
            '  "window": "explicit[all]",\n'
            '  "members": [\n'
            '    "a",\n'
            '    "b",\n'
            '    "c",\n'
            '    "d"\n'
            "  ],\n"
            '  "count": 4,\n'
            '  "verdict": "inconclusive-window-only",\n'
            '  "certificate_note": "no analytic certificate for this function on this poset",\n'
            '  "poset": "diamond.json"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["census", "--poset-file", "diamond.json", "--x", "b", "--bound", "3"],
        0,
        (
            "members: b,d\n"
            "count: 2\n"
            "verdict: inconclusive-window-only\n"
            "note: no analytic certificate for this function on this poset\n"
        ),
        "",
    ),
    (
        ["census", "--poset-file", "diamond.json", "--x", "b", "--bound", "3", "--json"],
        0,
        (
            "{\n"
            '  "x": "b",\n'
            '  "function": "mobius",\n'
            '  "window": "explicit[all]",\n'
            '  "members": [\n'
            '    "b",\n'
            '    "d"\n'
            "  ],\n"
            '  "count": 2,\n'
            '  "verdict": "inconclusive-window-only",\n'
            '  "certificate_note": "no analytic certificate for this function on this poset",\n'
            '  "poset": "diamond.json"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["search", "--poset", "chain", "--bound", "3", "--shell-bound", "5"],
        0,
        (
            "nullspace dimension: 2\n"
            "candidate f: 1 = 1; 2 = -1\n"
            "candidate g: 1 = 1\n"
            "caveat: verified only on shell\n"
        ),
        "",
    ),
    (
        ["search", "--poset", "chain", "--bound", "3", "--shell-bound", "5", "--json"],
        0,
        (
            "{\n"
            '  "window": "chain[bound=3]",\n'
            '  "shell": "chain[bound=5]",\n'
            '  "nullspace_dimension": 2,\n'
            '  "unknowns": [\n'
            '    "1",\n'
            '    "2",\n'
            '    "3"\n'
            "  ],\n"
            '  "candidate": {\n'
            '    "f": {\n'
            '      "1": "1",\n'
            '      "2": "-1"\n'
            "    },\n"
            '    "g": {\n'
            '      "1": "1"\n'
            "    }\n"
            "  },\n"
            '  "caveat": "verified only on shell",\n'
            '  "poset": "chain"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["search", "--poset", "divisibility", "--divisors", "6", "--shell-bound", "7"],
        0,
        (
            "nullspace dimension: 2\n"
            "candidate f: 3 = 1\n"
            "candidate g: 3 = 1; 6 = 1\n"
            "caveat: verified only on shell\n"
        ),
        "",
    ),
    (
        ["search", "--poset", "divisibility", "--divisors", "6", "--shell-bound", "7", "--json"],
        0,
        (
            "{\n"
            '  "window": "divisibility[divisors of 6]",\n'
            '  "shell": "divisibility[bound=7]",\n'
            '  "nullspace_dimension": 2,\n'
            '  "unknowns": [\n'
            '    "1",\n'
            '    "2",\n'
            '    "3",\n'
            '    "6"\n'
            "  ],\n"
            '  "candidate": {\n'
            '    "f": {\n'
            '      "3": "1"\n'
            "    },\n"
            '    "g": {\n'
            '      "3": "1",\n'
            '      "6": "1"\n'
            "    }\n"
            "  },\n"
            '  "caveat": "verified only on shell",\n'
            '  "poset": "divisibility"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["search", "--poset", "divisibility", "--bound", "6"],
        1,
        "",
        "error: --shell-bound is required for divisibility posets\n",
    ),
    (
        ["search", "--poset", "divisibility", "--bound", "6", "--json"],
        1,
        "",
        "error: --shell-bound is required for divisibility posets\n",
    ),
    (
        ["search", "--poset", "chain", "--bound", "5", "--shell-bound", "3"],
        2,
        "",
        "error: shell chain[bound=3] must strictly contain window chain[bound=5]\n",
    ),
    (
        ["search", "--poset", "chain", "--bound", "5", "--shell-bound", "3", "--json"],
        2,
        "",
        "error: shell chain[bound=3] must strictly contain window chain[bound=5]\n",
    ),
    (
        ["search", "--poset", "subsets", "--bound", "1", "--shell-bound", "2", "--beta", "mobius"],
        0,
        (
            "nullspace dimension: 0\n"
            "no candidate pair at this truncation\n"
        ),
        "",
    ),
    (
        ["search", "--poset", "subsets", "--bound", "1", "--shell-bound", "2", "--beta", "mobius", "--json"],
        0,
        (
            "{\n"
            '  "window": "subsets[bound=1]",\n'
            '  "shell": "subsets[bound=2]",\n'
            '  "nullspace_dimension": 0,\n'
            '  "unknowns": [\n'
            '    "{}",\n'
            '    "{1}"\n'
            "  ],\n"
            '  "candidate": null,\n'
            '  "caveat": "verified only on shell",\n'
            '  "poset": "subsets"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["conjecture", "--poset", "chain", "--bound", "3", "--shell-bound", "5", "--sample", "1,2"],
        0,
        (
            "x=1  alpha support 2 [finite-certified]  beta support 5 [inconclusive-window-only]\n"
            "x=2  alpha support 2 [finite-certified]  beta support 4 [inconclusive-window-only]\n"
            "pair search nullspace dimension: 2\n"
            "candidate pair found (verified only on shell)\n"
        ),
        "",
    ),
    (
        ["conjecture", "--poset", "chain", "--bound", "3", "--shell-bound", "5", "--sample", "1,2", "--json"],
        0,
        (
            "{\n"
            '  "poset": "chain",\n'
            '  "alpha": "mobius",\n'
            '  "beta": "zeta",\n'
            '  "window": "chain[bound=3]",\n'
            '  "shell": "chain[bound=5]",\n'
            '  "censuses": [\n'
            "    {\n"
            '      "x": "1",\n'
            '      "alpha_support": {\n'
            '        "x": "1",\n'
            '        "function": "mobius",\n'
            '        "window": "chain[bound=5]",\n'
            '        "members": [\n'
            '          "1",\n'
            '          "2"\n'
            "        ],\n"
            '        "count": 2,\n'
            '        "verdict": "finite-certified",\n'
            '        "certificate_note": "closed form is nonzero only at x and its successor"\n'
            "      },\n"
            '      "beta_support": {\n'
            '        "x": "1",\n'
            '        "function": "zeta",\n'
            '        "window": "chain[bound=5]",\n'
            '        "members": [\n'
            '          "1",\n'
            '          "2",\n'
            '          "3",\n'
            '          "4",\n'
            '          "5"\n'
            "        ],\n"
            '        "count": 5,\n'
            '        "verdict": "inconclusive-window-only",\n'
            '        "certificate_note": "no analytic certificate for this function on this poset"\n'
            "      }\n"
            "    },\n"
            "    {\n"
            '      "x": "2",\n'
            '      "alpha_support": {\n'
            '        "x": "2",\n'
            '        "function": "mobius",\n'
            '        "window": "chain[bound=5]",\n'
            '        "members": [\n'
            '          "2",\n'
            '          "3"\n'
            "        ],\n"
            '        "count": 2,\n'
            '        "verdict": "finite-certified",\n'
            '        "certificate_note": "closed form is nonzero only at x and its successor"\n'
            "      },\n"
            '      "beta_support": {\n'
            '        "x": "2",\n'
            '        "function": "zeta",\n'
            '        "window": "chain[bound=5]",\n'
            '        "members": [\n'
            '          "2",\n'
            '          "3",\n'
            '          "4",\n'
            '          "5"\n'
            "        ],\n"
            '        "count": 4,\n'
            '        "verdict": "inconclusive-window-only",\n'
            '        "certificate_note": "no analytic certificate for this function on this poset"\n'
            "      }\n"
            "    }\n"
            "  ],\n"
            '  "pair_search": {\n'
            '    "window": "chain[bound=3]",\n'
            '    "shell": "chain[bound=5]",\n'
            '    "nullspace_dimension": 2,\n'
            '    "unknowns": [\n'
            '      "1",\n'
            '      "2",\n'
            '      "3"\n'
            "    ],\n"
            '    "candidate": {\n'
            '      "f": {\n'
            '        "1": "1",\n'
            '        "2": "-1"\n'
            "      },\n"
            '      "g": {\n'
            '        "1": "1"\n'
            "      }\n"
            "    },\n"
            '    "caveat": "verified only on shell"\n'
            "  }\n"
            "}\n"
        ),
        "",
    ),
    (
        ["conjecture", "--poset", "chain", "--alpha", "zeta", "--beta", "zeta", "--bound", "2", "--shell-bound", "3"],
        2,
        "",
        "error: (a*b)(1, 2) != delta\n",
    ),
    (
        ["conjecture", "--poset", "chain", "--alpha", "zeta", "--beta", "zeta", "--bound", "2", "--shell-bound", "3", "--json"],
        2,
        "",
        "error: (a*b)(1, 2) != delta\n",
    ),
    (
        ["conjecture", "--poset-file", "diamond.json", "--sample", "a", "--shell-bound", "9"],
        2,
        "",
        "error: shell explicit[all] must strictly contain window explicit[all]\n",
    ),
    (
        ["conjecture", "--poset-file", "diamond.json", "--sample", "a", "--shell-bound", "9", "--json"],
        2,
        "",
        "error: shell explicit[all] must strictly contain window explicit[all]\n",
    ),
    (
        ["isomap", "--n", "360"],
        0,
        "2^3*3^2*5\n",
        "",
    ),
    (
        ["isomap", "--n", "360", "--json"],
        0,
        (
            "{\n"
            '  "n": 360,\n'
            '  "multiset": "2^3*3^2*5"\n'
            "}\n"
        ),
        "",
    ),
    (
        ["isomap", "--m", "2^3*5"],
        0,
        "40\n",
        "",
    ),
    (
        ["isomap", "--m", "2^3*5", "--json"],
        0,
        (
            "{\n"
            '  "multiset": "2^3*5",\n'
            '  "n": 40\n'
            "}\n"
        ),
        "",
    ),
    (
        ["isomap"],
        1,
        "",
        "error: pass exactly one of --n or --m\n",
    ),
    (
        ["isomap", "--json"],
        1,
        "",
        "error: pass exactly one of --n or --m\n",
    ),
    # Malformed explicit poset documents.
    (
        ["mobius", "--poset-file", "list.json", "--x", "a", "--y", "a"],
        1,
        "",
        "error: explicit poset document must be an object\n",
    ),
    (
        ["mobius", "--poset-file", "no-covers.json", "--x", "a", "--y", "a"],
        1,
        "",
        "error: explicit poset document lacks key 'covers'\n",
    ),
    (
        ["mobius", "--poset-file", "object-elements.json", "--x", "a", "--y", "a", "--json"],
        1,
        "",
        "error: 'elements' and 'covers' must be lists\n",
    ),
    (
        ["mobius", "--poset-file", "integer-id.json", "--x", "a", "--y", "a"],
        1,
        "",
        "error: element identifiers are nonempty strings, got 1\n",
    ),
    (
        ["mobius", "--poset-file", "empty-id.json", "--x", "a", "--y", "a"],
        1,
        "",
        "error: element identifiers are nonempty strings, got ''\n",
    ),
]


@pytest.mark.parametrize(("argv", "status", "stdout", "stderr"), CASES, ids=[" ".join(c[0]) for c in CASES])
def test_cli_output_is_pinned(argv, status, stdout, stderr, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, doc in FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert run(argv) == status
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (stdout, stderr)


def test_table_covers_every_subcommand_in_both_forms():
    from posetlab.cli import _HANDLERS

    seen = {(argv[0], "--json" in argv) for argv, *_ in CASES}
    assert seen == {(command, form) for command in _HANDLERS for form in (False, True)}


EXPLICIT_CASES = [case for case in CASES if "--poset-file" in case[0]]


@pytest.mark.parametrize(("argv", "status", "stdout", "stderr"), EXPLICIT_CASES, ids=[" ".join(c[0]) for c in EXPLICIT_CASES])
def test_explicit_posets_print_the_same_bytes_under_any_hash_seed(argv, status, stdout, stderr, tmp_path):
    """Explicit posets key their elements by strings, whose hashes vary
    with ``PYTHONHASHSEED``; each call prints the pinned bytes, and exits
    with the pinned status, in fresh processes under two seeds."""
    for name, doc in FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetlab.__file__)))
    env.pop("PYTHONOPTIMIZE", None)
    runs = [
        subprocess.run(
            [sys.executable, "-c", "from posetlab.cli import main; main()", *argv],
            capture_output=True, cwd=tmp_path, env=dict(env, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    assert [(done.returncode, done.stdout, done.stderr) for done in runs] == [(status, stdout.encode(), stderr.encode())] * 2
