"""Independent output checks, one per job kind.

Each oracle recomputes what a job's JSON output claims with the plain
int/Fraction code in ``arith`` and the facts the generator recorded
about the input, never with posetlab. ``check`` returns ``None`` when
the output holds and a one-line reason when it does not.
"""

from __future__ import annotations

import json
from math import prod

from arith import (closed_form_mobius, decode, factorize, is_prime, leq, parse_scalar, rank,
                   window_elements)


class Mismatch(Exception):
    pass


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def check(job, stdout: str) -> str | None:
    try:
        doc = json.loads(stdout)
        require(isinstance(doc, dict), "output is not a JSON object")
        ORACLES[job.check](job.facts, doc)
    except Mismatch as exc:
        return f"{job.name}: {exc}"
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"{job.name}: malformed output ({type(exc).__name__}: {exc})"
    return None


# -- shared pieces -----------------------------------------------------------


def _values(family: str, mapping: dict) -> dict:
    return {decode(family, k): parse_scalar(v) for k, v in mapping.items()}


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _scale(k: int, a):
    return k * a[0], k * a[1]


def _zeta_transform(family: str, f: dict, elements) -> dict:
    """y -> sum of f(x) over x <= y, nonzero values only."""
    out = {}
    for y in elements:
        total = (0, 0)
        for x, value in f.items():
            if leq(family, x, y):
                total = _add(total, value)
        if any(total):
            out[y] = total
    return out


def _mobius_inversion_at(family: str, g: dict, z):
    total = (0, 0)
    for x, value in g.items():
        if leq(family, x, z):
            total = _add(total, _scale(closed_form_mobius(family, x, z), value))
    return total


# -- oracles -------------------------------------------------------------------


def _transform(facts, doc):
    family = facts["family"]
    f = _values(family, facts["document"]["values"])
    expected = _zeta_transform(family, f, window_elements(family, facts["bound"]))
    require(_values(family, doc["values"]) == expected, "zeta transform differs from direct sums")


def _invert(facts, doc):
    family = facts["family"]
    require(doc["poset"] == family, "wrong poset label")
    require(
        _values(family, doc["values"]) == _values(family, facts["document"]["values"]),
        "inverting the transform does not give back the original document",
    )


def _pair_search(family, bound, shell, result):
    window = window_elements(family, bound)
    outside = [y for y in window_elements(family, shell) if y not in set(window)]
    zeta = [[1 if leq(family, x, y) else 0 for x in window] for y in outside]
    nullity = len(window) - rank(zeta)
    require(sorted(map(str, window)) == sorted(
        str(decode(family, u)) for u in result["unknowns"]), "unknowns are not the window")
    require(result["nullspace_dimension"] == nullity, f"nullity is not {nullity}")
    if not nullity:
        require(result["candidate"] is None, "candidate reported for a trivial kernel")
        return
    f = _values(family, result["candidate"]["f"])
    require(any(any(v) for v in f.values()), "candidate is zero")
    require(set(f) <= set(window), "candidate leaves the window")
    g = _zeta_transform(family, f, window_elements(family, shell))
    require(_values(family, result["candidate"]["g"]) == g, "reported transform is wrong")
    require(all(y in set(window) for y in g), "transform does not vanish on shell minus window")


def _search(facts, doc):
    _pair_search(facts["family"], facts["bound"], facts["shell"], doc)


def _conjecture(facts, doc):
    family, shell = facts["family"], facts["shell"]
    shell_elements = window_elements(family, shell)
    censuses = doc["censuses"]
    require([decode(family, c["x"]) for c in censuses] == facts["sample"], "wrong sample points")
    for census in censuses:
        x = decode(family, census["x"])
        above = [y for y in shell_elements if leq(family, x, y)]
        mobius = [y for y in above if closed_form_mobius(family, x, y)]
        alpha = [decode(family, m) for m in census["alpha_support"]["members"]]
        beta = [decode(family, m) for m in census["beta_support"]["members"]]
        require(alpha == mobius, f"mobius census at {x} is wrong")
        require(beta == above, f"zeta census at {x} is wrong")
    _pair_search(family, facts["bound"], shell, doc["pair_search"])


def _certificate(family, y, avoid, cert):
    z = decode(family, cert["z"])
    require(decode(family, cert["y"]) == y, "certificate for another base")
    require(leq(family, y, z) and z != y, f"z={cert['z']} is not strictly above y")
    escaped = [s for s in avoid if leq(family, s, z) and not leq(family, s, y)]
    require(not escaped, f"z={cert['z']} does not avoid the set")
    mu = closed_form_mobius(family, y, z)
    require(mu != 0 and parse_scalar(cert["mu_yz"]) == (mu, 0), f"mu(y, {cert['z']}) is wrong")
    require(cert["cond_disjoint"] and cert["cond_factorize"] and cert["cond_nonzero"],
            "a witness condition is reported false")
    return z, mu


def _witness(facts, doc):
    family = facts["family"]
    certs = doc["certificates"]
    require(doc["found"] == len(certs) == facts["found"], "wrong number of witnesses")
    zs = [_certificate(family, facts["y"], facts["avoid"], cert)[0] for cert in certs]
    require(len(set(zs)) == len(zs), "repeated witness")


def _verify(facts, doc):
    family = "divisibility"
    g = _values(family, facts["document"]["values"])
    certs = doc["certificates"]
    require(len(certs) == facts["count"], "wrong number of certificates")
    y = decode(family, doc["y"])
    closure = sorted({d for s in g for d in range(1, s + 1) if s % d == 0})
    first = next(x for x in closure if any(_mobius_inversion_at(family, g, x)))
    require(y == first, "base is not the first element where the inversion is nonzero")
    f_y = _mobius_inversion_at(family, g, y)
    for cert in certs:
        z, mu = _certificate(family, y, list(g), cert)
        observed = _mobius_inversion_at(family, g, z)
        require(any(observed), f"f({cert['z']}) vanishes")
        require(parse_scalar(cert["observed_fz"]) == observed, f"observed f({cert['z']}) is wrong")
        require(parse_scalar(cert["predicted_fz"]) == _scale(mu, f_y),
                f"predicted f({cert['z']}) is wrong")


def _factor(facts, doc):
    n, factors = facts["n"], facts["factors"]
    exponents = factorize(n, known=factors)
    require(all(is_prime(p) for p in exponents), "generator facts are not a factorisation")
    mu = 0 if any(k > 1 for k in exponents.values()) else (-1) ** len(exponents)
    if "multiset" in doc:
        require(doc["n"] == n, "wrong n")
        image = 1
        for factor in doc["multiset"].split("*"):
            base, _, exp = factor.partition("^")
            require(is_prime(int(base)), f"{base} is not prime")
            image *= int(base) ** int(exp or 1)
        require(image == n, "multiset does not multiply back to n")
    elif "members" in doc:
        primes = sorted(exponents)
        squarefree = sorted(
            prod(p for i, p in enumerate(primes) if mask >> i & 1)
            for mask in range(1 << len(primes))
        )
        require([int(m) for m in doc["members"]] == squarefree,
                "census members are not the squarefree divisors")
    elif "y" in doc:
        require(int(doc["y"]) == n and doc["mobius"] == str(mu), "mu(1, n) is wrong")
    else:
        require(doc["n"] == n and doc["mobius"] == mu, "classical mu(n) is wrong")


ORACLES = {
    "transform": _transform,
    "invert": _invert,
    "search": _search,
    "conjecture": _conjecture,
    "witness": _witness,
    "verify": _verify,
    "factor": _factor,
}
