"""Locally finite posets with a bottom element.

Four built-in families plus explicit finite posets loaded from cover
relations:

* ``divisibility`` -- positive integers ordered by divisibility,
* ``chain``        -- positive integers with the usual total order,
* ``subsets``      -- finite subsets of {1, 2, ...} ordered by inclusion,
* ``multisets``    -- finite prime-keyed multisets ordered pointwise,
* ``explicit``     -- a finite poset given by elements and cover pairs.

Elements use canonical structured encodings so that equality, hashing,
and output ordering are all decidable and reproducible: plain ints for
the integer families, sorted tuples for subsets, sorted ``(prime, mult)``
tuples for multisets, and identifier strings for explicit posets. Every
returned element list is in canonical order, which is always a linear
extension of the partial order, and reversed it is one of the reversed
order, which the Mobius solver walks for columns.

The built-in families are downward-closed parts of a product of chains:
one chain per prime (divisibility, multisets), one 2-chain per ground
element (subsets), or a single chain. Their shared base derives the
closed-form Mobius function (Rota's product theorem) and witness
candidates from each family's ``(coordinate, height)`` pairs.
Divisibility, subsets and multisets list an interval as a grid, in
mixed-radix order (``Poset._grid``); the canonical interval is that
grid sorted, and the Mobius solver runs the grid's passes over it, one
per digit level of each coordinate (``_grid_passes``, ``_run_passes``).
Whole-window transforms run passes over a listing of the window, which
each family reads from the ``Window`` itself (``window_passes``): a
subsets or divisor window, the ideal of its last element, is listed as
its grid, with its passes; a range window (divisibility and multisets
``1..N``, the chain) as enumerated, with one ``range`` pass per coordinate.
"""

from __future__ import annotations

import heapq
import itertools
import math

from . import numtheory
from .errors import (
    BoundTooLarge,
    CyclicCovers,
    DuplicateElement,
    InvalidElement,
    InvalidInput,
    NoClosedForm,
    NoUniqueBottom,
    NotComparable,
    UnknownElementInCover,
)
from .scalars import MINUS_ONE, ONE, ZERO, GaussianRational, _Immutable, _set

DEFAULT_ELEMENT_CAP = 1 << 20

# Support-census verdicts.
FINITE_CERTIFIED = "finite-certified"
INFINITE_CERTIFIED = "infinite-certified"
INCONCLUSIVE = "inconclusive-window-only"


class Poset:
    """A locally finite poset with a bottom element.

    Instances are immutable and hashable; all operations are pure, so a
    handle may be shared freely across threads. Public methods canonise
    their element arguments and raise ``InvalidElement`` on encodings
    from the wrong family; the underscore variants assume canonical
    input and skip validation.
    """

    family = "abstract"

    # -- encoding ----------------------------------------------------

    def canon(self, x):
        """Return the canonical encoding of ``x``, validating it."""
        raise NotImplementedError

    def format_element(self, x) -> str:
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def sort_key(self, x):
        """Canonical ordering key; a linear extension of the order."""
        raise NotImplementedError

    # -- order -------------------------------------------------------

    def leq(self, x, y) -> bool:
        return self._leq(self.canon(x), self.canon(y))

    def _leq(self, x, y) -> bool:
        raise NotImplementedError

    def bottom(self):
        raise NotImplementedError

    def _comparable(self, x, y) -> tuple:
        """Canonical ``(x, y)``; raises ``NotComparable`` unless x <= y."""
        x, y = self.canon(x), self.canon(y)
        if not self._leq(x, y):
            raise NotComparable(
                f"not comparable: {self.format_element(x)} !<= "
                f"{self.format_element(y)} in {self.family}"
            )
        return x, y

    def interval(self, x, y) -> list:
        """All z with x <= z <= y, in canonical order."""
        return self._interval(*self._comparable(x, y))

    def _interval(self, x, y) -> list:
        raise NotImplementedError

    def _grid(self, x, y):
        """``(elements, radices)`` for canonical x <= y where [x, y] is a
        product of chains, one per coordinate in which x and y differ,
        the c-th of ``radices[c]`` elements. ``elements`` lists the
        interval in mixed-radix order, first coordinate fastest: the
        element d_c steps above x in each coordinate c sits at index
        sum of d_c * radices[0] * ... * radices[c - 1]. That order is a
        linear extension, and an element's down-set in [x, y] is the
        indices whose digits are all at most its own. Refuses what
        ``_interval(x, y)`` refuses, with the same message. None where
        [x, y] has no such structure, or is always a single chain."""
        return None

    def ideal(self, x) -> list:
        """Principal order ideal: all y <= x, in canonical order."""
        return self._interval(self.bottom(), self.canon(x))

    # -- windows -----------------------------------------------------

    def window_elements(self, bound) -> list:
        raise NotImplementedError

    # -- Mobius facts: oracles and certificates, never the recursion ---

    mobius_census = None
    """``(verdict, note)`` for support censuses of this family's Mobius
    function, or None where no analytic certificate applies."""

    def _closed_form_mobius(self, x, y) -> GaussianRational:
        """mu(x, y) for canonical x <= y by a formula independent of the
        recursion."""
        raise NoClosedForm(f"no closed-form Mobius function for {self.family} posets")

    def witness_candidates(self, y, avoid: set):
        """Candidate elements z > y for witness streams, in deterministic
        order; the stream may be unbounded or run out."""
        raise NotImplementedError

    # -- product-of-chains structure -----------------------------------

    def window_passes(self, w, elements):
        """``(listing, passes)`` for zeta and Mobius on the window ``w``,
        whose ``elements`` are ``enumerate_window(w)``: ``_run_passes``
        runs the passes on values listed as ``listing`` is. A pass is a
        ``(targets, sources)`` pair of position sequences, all in one
        coordinate: ``listing[s]`` is ``listing[t]`` one lower there, for
        each t and the s beside it. A range window is listed as
        ``elements``, with one pass per coordinate, targets ascending;
        the ideal of its last element as its grid, with the grid's passes
        (``_grid_passes``), each from a single digit level to the level
        below, a coordinate's passes ascending by level. None elsewhere."""
        return None

    def __getstate__(self):
        # Copies and pickles leave out the Mobius memos; the copy builds its own.
        return {k: v for k, v in self.__dict__.items() if k != "_mobius"}

    def __repr__(self):
        return f"Poset({self.family})"

    def __eq__(self, other):
        return isinstance(other, Poset) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return (self.family,)


def _canon_positive_int(x, family: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidElement(f"{family} elements are positive integers, got {x!r}")
    if x < 1:
        raise InvalidElement(f"{family} elements are positive integers, got {x}")
    return x


def _parse_int(text: str, family: str) -> int:
    """The positive integer ``text`` reads as under ``int()``; what
    ``int()`` returns from a string needs no type check."""
    try:
        value = int(text.strip())
    except ValueError:
        raise InvalidElement(f"invalid {family} element: {text!r}") from None
    if value < 1:
        raise InvalidElement(f"{family} elements are positive integers, got {value}")
    return value


def _check_cap(size: int, refusal: str) -> None:
    """Raise ``BoundTooLarge(refusal)``, with ``{cap}`` replaced by the
    cap, when ``size`` exceeds ``DEFAULT_ELEMENT_CAP``. The one check
    behind every cap on windows, intervals and ``lab`` work (the
    multisets sort key makes the same test inline); it reads the
    constant when it runs."""
    if size > DEFAULT_ELEMENT_CAP:
        raise BoundTooLarge(refusal.format(cap=DEFAULT_ELEMENT_CAP))


_INTERVAL_REFUSAL = "interval of more than {cap} elements"


class _ChainProduct(Poset):
    """A downward-closed part of a product of chains 0 < 1 < 2 < ...

    A family supplies ``_pairs(x)``, the ascending ``(coordinate,
    height)`` pairs of x with height >= 1, its inverse ``_from_pairs``,
    and ``_coordinates()``, all coordinates in ascending order. It keeps
    a native order test or grid only where that is faster. Its interval
    is always the grid sorted by ``sort_key``; only the chain, which has
    no grid, lists its own.
    """

    def _leq(self, x, y) -> bool:
        # A merge walk over the two ascending pair tuples.
        upper = iter(self._pairs(y))
        for c, k in self._pairs(x):
            for d, h in upper:
                if d >= c:
                    break
            else:
                return False
            if d != c or h < k:
                return False
        return True

    def bottom(self):
        return self._from_pairs(())

    def _interval(self, x, y) -> list:
        elements = self._grid(x, y)[0]
        elements.sort(key=self.sort_key)
        return elements

    def _grid(self, x, y):
        lower = dict(self._pairs(x))
        top = self._pairs(y)
        size = 1
        for c, k in top:
            size *= k - lower.get(c, 0) + 1
            _check_cap(size, _INTERVAL_REFUSAL)
        # y's sort key is the interval's largest, so this refuses exactly
        # what sorting the interval would.
        self.sort_key(y)
        # One coordinate at a time, as numtheory.divisor_grid does: each
        # height h of coordinate c is a copy of the grid so far, so the
        # first coordinate varies fastest.
        pairs = [()]
        radices = []
        for c, k in top:
            low = lower.get(c, 0)
            pairs = [z + ((c, h),) if h else z for h in range(low, k + 1) for z in pairs]
            if k > low:
                radices.append(k - low + 1)
        return list(map(self._from_pairs, pairs)), radices

    def window_passes(self, w, elements):
        """The ideal of the last element as ``_grid`` lists it, and the
        grid's passes."""
        grid, radices = self._grid(elements[0], elements[-1])
        return grid, _grid_passes(radices)

    def _closed_form_mobius(self, x, y) -> GaussianRational:
        """Rota's product theorem: the product over coordinates of the
        chain Mobius function of the height gap, which is 1, -1 and 0
        for gaps 0, 1 and >= 2."""
        lower = dict(self._pairs(x))
        sign = 1
        for c, k in self._pairs(y):
            gap = k - lower.get(c, 0)
            if gap > 1:
                return ZERO
            if gap:
                sign = -sign
        return ONE if sign > 0 else MINUS_ONE

    def witness_candidates(self, y, avoid: set):
        """y raised to height 1 in each coordinate, ascending, whose atom
        lies below neither y nor any avoided element: z = y*q over fresh
        primes q for divisibility and multisets, y + {q} over fresh
        ground elements q for subsets."""
        pairs = self._pairs(y)
        for c in self._coordinates():
            atom = self._from_pairs(((c, 1),))
            if not (self._leq(atom, y) or any(self._leq(atom, s) for s in avoid)):
                yield self._from_pairs(tuple(sorted(pairs + ((c, 1),))))


class _PositiveIntegers(_ChainProduct):
    """Encoding and windows shared by the two integer families."""

    def canon(self, x):
        return _canon_positive_int(x, self.family)

    def format_element(self, x) -> str:
        return str(x)

    def parse_element(self, text: str):
        return _parse_int(text, self.family)

    def sort_key(self, x):
        return x

    def window_elements(self, bound) -> list:
        return list(range(1, _check_bound(bound) + 1))


class DivisibilityPoset(_PositiveIntegers):
    """Positive integers ordered by divisibility; bottom element 1. The
    coordinates are the primes, but order tests, grids and passes use
    divisibility itself."""

    family = "divisibility"

    def _pairs(self, x) -> tuple:
        return tuple(numtheory.prime_factors(x).items())

    def _from_pairs(self, pairs: tuple):
        return math.prod(p**k for p, k in pairs)

    def _coordinates(self):
        return numtheory.primes()

    def _leq(self, x, y) -> bool:
        return y % x == 0

    def _grid(self, x, y):
        factors = numtheory.prime_factors(y // x)
        radices = [k + 1 for k in factors.values()]
        _check_cap(math.prod(radices), _INTERVAL_REFUSAL)
        elements = numtheory.divisor_grid(factors)
        if x != 1:
            elements = [x * d for d in elements]
        return elements, radices

    def divisor_window_elements(self, n: int) -> list:
        """The divisors of ``n``: a downward-closed set in this order,
        refused before any is built when there are more than the cap."""
        factors = numtheory.prime_factors(_canon_positive_int(n, self.family))
        size = math.prod(k + 1 for k in factors.values())
        _check_cap(size, f"window of {size} elements exceeds cap")
        return sorted(numtheory.divisor_grid(factors))

    mobius_census = (
        INFINITE_CERTIFIED,
        "squarefree multiples x*q over fresh primes never vanish",
    )

    def window_passes(self, w, elements):
        """A divisor window as a grid, a range window 1..N by position
        arithmetic."""
        if w.divisor_closure:
            return super().window_passes(w, elements)
        return elements, _range_passes(len(elements))


class ChainPoset(_PositiveIntegers):
    """Positive integers with the usual total order; bottom element 1.
    One coordinate, in which n has height n - 1."""

    family = "chain"

    def _pairs(self, x) -> tuple:
        return ((0, x - 1),) if x > 1 else ()

    def _from_pairs(self, pairs: tuple):
        return pairs[0][1] + 1 if pairs else 1

    def _leq(self, x, y) -> bool:
        return x <= y

    def _interval(self, x, y) -> list:
        _check_cap(y - x + 1, _INTERVAL_REFUSAL)
        return list(range(x, y + 1))

    def _grid(self, x, y):
        return None

    def window_passes(self, w, elements):
        """One chain: n - 1 below n."""
        size = len(elements)
        return elements, [(range(1, size), range(size - 1))] if size > 1 else []

    mobius_census = (
        FINITE_CERTIFIED,
        "closed form is nonzero only at x and its successor",
    )

    def witness_candidates(self, y, avoid: set):
        """Only y + 1: mu(y, z) vanishes for every other z > y."""
        return (y + 1,)


class SubsetPoset(_ChainProduct):
    """Finite subsets of the positive integers ordered by inclusion.

    Elements are encoded as strictly increasing tuples; the bottom
    element is the empty tuple. Canonical order is size, then
    lexicographic.
    """

    family = "subsets"

    def canon(self, x):
        if isinstance(x, (str, bytes)) or not hasattr(x, "__iter__"):
            raise InvalidElement(f"subsets elements are integer collections, got {x!r}")
        members = set()
        for item in x:
            members.add(_canon_positive_int(item, self.family))
        return tuple(sorted(members))

    def format_element(self, x) -> str:
        return "{" + ",".join(str(v) for v in x) + "}"

    def parse_element(self, text: str):
        body = text.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise InvalidElement(f"invalid subsets element: {text!r}")
        body = body[1:-1].strip()
        if not body:
            return ()
        # Members are parsed in text order, so the first bad one raises.
        return tuple(sorted({_parse_int(part, self.family) for part in body.split(",")}))

    def sort_key(self, x):
        return (len(x), x)

    def _pairs(self, x) -> tuple:
        return tuple((member, 1) for member in x)

    def _from_pairs(self, pairs: tuple):
        return tuple(member for member, _ in pairs)

    def _coordinates(self):
        return itertools.count(1)

    def _leq(self, x, y) -> bool:
        return set(x).issubset(y)

    def _grid(self, x, y):
        # 2**gap elements, where y itself holds at least gap members.
        _check_cap(1 << (len(y) - len(x)), _INTERVAL_REFUSAL)
        elements = [x]
        for member in y:
            if member not in x:
                # z + (member,) is sorted unless a member of x is larger.
                if x and x[-1] > member:
                    elements += [tuple(sorted(z + (member,))) for z in elements]
                else:
                    elements += [z + (member,) for z in elements]
        return elements, [2] * (len(y) - len(x))

    def window_elements(self, bound) -> list:
        if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
            raise InvalidInput(f"subsets window bound must be >= 0, got {bound!r}")
        # 2**bound elements; a bound past the cap's bit length is refused
        # as 2**(that length), without building 2**bound.
        _check_cap(
            1 << min(bound, DEFAULT_ELEMENT_CAP.bit_length()),
            f"subsets window over ground set of {bound} exceeds cap {{cap}}",
        )
        ground = range(1, bound + 1)
        out = []
        for size in range(bound + 1):
            out.extend(itertools.combinations(ground, size))
        return out

    mobius_census = (
        INFINITE_CERTIFIED,
        "closed form takes only the values +1 and -1",
    )


class MultisetPoset(_ChainProduct):
    """Finite prime-keyed multisets ordered by pointwise multiplicity.

    An element is a sorted tuple of ``(prime, multiplicity)`` pairs with
    multiplicities >= 1; the empty tuple is the bottom element. Via
    prime factorisation this order is a mirror of divisibility, and the
    canonical order is by integer image.
    """

    family = "multisets"

    def canon(self, x):
        if isinstance(x, dict):
            items = x.items()
        elif isinstance(x, (str, bytes)) or not hasattr(x, "__iter__"):
            raise InvalidElement(f"multisets elements are (prime, mult) maps, got {x!r}")
        else:
            items = list(x)
        return _multiset(self._canon_pairs(items))

    def _canon_pairs(self, items):
        """Each entry of ``items`` as a pair of positive ints, checked
        when it is reached."""
        for entry in items:
            try:
                p, k = entry
            except (TypeError, ValueError):
                raise InvalidElement(
                    f"multisets entries are (prime, mult) pairs, got {entry!r}"
                ) from None
            yield _canon_positive_int(p, self.family), _canon_positive_int(k, self.family)

    def format_element(self, x) -> str:
        if not x:
            return "1"
        return "*".join(f"{p}^{k}" if k > 1 else str(p) for p, k in x)

    def parse_element(self, text: str):
        body = "".join(text.split())
        if not body:
            raise InvalidElement("empty multisets element")
        if body == "1":
            return ()
        pairs = []
        for factor in body.split("*"):
            base, sep, exp = factor.partition("^")
            p = _parse_int(base, self.family)
            k = _parse_int(exp, self.family) if sep else 1
            pairs.append((p, k))
        # Every factor is parsed before any key is checked, so the first
        # malformed factor raises before a composite or repeated key.
        return _multiset(pairs)

    def sort_key(self, x):
        """The integer image of canonical ``x``, without validating it
        again; refused when it has more than ``DEFAULT_ELEMENT_CAP``
        bits. The image has more than ``low`` = sum of k * (bits(p) - 1)
        bits, so the loop stops before building a prime power that this
        bound already refuses. Called once per element, it makes
        ``_check_cap``'s test inline."""
        low, n = 0, 1
        for p, k in x:
            low += k * (p.bit_length() - 1)
            if low >= DEFAULT_ELEMENT_CAP:
                break
            n *= p**k
        if low >= DEFAULT_ELEMENT_CAP or n.bit_length() > DEFAULT_ELEMENT_CAP:
            raise BoundTooLarge(f"multiset integer image of more than {DEFAULT_ELEMENT_CAP} bits")
        return n

    def _pairs(self, x) -> tuple:
        return x

    def _from_pairs(self, pairs: tuple):
        return pairs

    def _coordinates(self):
        return numtheory.primes()

    def window_elements(self, bound) -> list:
        """The factorisations of 1..N, from one smallest-prime-factor
        sieve: n with least prime p is n // p with p's multiplicity
        raised by one, and no prime of n // p is below p."""
        size = _check_bound(bound)
        least = list(range(size + 1))
        # Descending, so each composite keeps the least prime that marks it.
        for p in reversed(numtheory._sieve(math.isqrt(size) + 1)):
            least[p * p :: p] = [p] * len(range(p * p, size + 1, p))
        elements = [(), ()]  # elements[n] is n's; 0 holds a placeholder
        for n in range(2, size + 1):
            p = least[n]
            rest = elements[n // p]
            if rest and rest[0][0] == p:
                elements.append(((p, rest[0][1] + 1),) + rest[1:])
            else:
                elements.append(((p, 1),) + rest)
        return elements[1:]

    def window_passes(self, w, elements):
        """A window of images 1..N holds image y at position y - 1, so
        its passes are those of divisibility on 1..N."""
        return elements, _range_passes(len(elements))

    mobius_census = (
        INFINITE_CERTIFIED,
        "mirror of the divisibility certificate under the integer-image map",
    )


def _multiset(pairs) -> tuple:
    """The canonical multiset of ``(p, k)`` pairs of positive ints,
    refusing a key that is not prime or repeats, in the order of
    ``pairs``."""
    out = {}
    for p, k in pairs:
        if not numtheory.is_prime(p):
            raise InvalidElement(f"multiset keys must be prime, got {p}")
        if p in out:
            raise InvalidElement(f"duplicate multiset key {p}")
        out[p] = k
    return tuple(sorted(out.items()))


class ExplicitPoset(Poset):
    """A finite poset given by string identifiers and cover pairs.

    Reachability and a deterministic linear extension (lexicographically
    smallest available identifier first) are precomputed at load time,
    after which the handle is immutable.
    """

    family = "explicit"

    def __init__(self, elements, covers):
        ids = list(elements)
        seen = set()
        for ident in ids:
            if not isinstance(ident, str) or not ident:
                raise InvalidInput(f"element identifiers are nonempty strings, got {ident!r}")
            if ident in seen:
                raise DuplicateElement(f"duplicate element {ident!r}")
            seen.add(ident)
        successors: dict[str, list[str]] = {ident: [] for ident in ids}
        indegree = {ident: 0 for ident in ids}
        cover_pairs = []
        for pair in covers:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InvalidInput(f"cover pairs are two-element lists, got {pair!r}")
            low, high = pair
            for ident in (low, high):
                if not isinstance(ident, str) or ident not in seen:
                    raise UnknownElementInCover(f"cover mentions unknown element {ident!r}")
            if low == high:
                raise CyclicCovers(f"self-cover at {low!r}")
            cover_pairs.append((low, high))
            successors[low].append(high)
            indegree[high] += 1

        # Deterministic topological order; failure means a cycle.
        order: list[str] = []
        ready = [ident for ident in ids if indegree[ident] == 0]
        heapq.heapify(ready)
        pending = dict(indegree)
        while ready:
            ident = heapq.heappop(ready)
            order.append(ident)
            for nxt in successors[ident]:
                pending[nxt] -= 1
                if pending[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(ids):
            raise CyclicCovers("cover relation contains a cycle")

        minimal = [ident for ident in ids if indegree[ident] == 0]
        if len(minimal) != 1:
            raise NoUniqueBottom(
                "expected exactly one minimal element, found "
                + (", ".join(sorted(minimal)) if minimal else "none")
            )

        # up_sets[v] = all w >= v, via reverse-topological accumulation.
        up_sets: dict[str, frozenset] = {}
        for ident in reversed(order):
            acc = {ident}
            for nxt in successors[ident]:
                acc.update(up_sets[nxt])
            up_sets[ident] = frozenset(acc)

        self._elements = tuple(order)
        self._index = {ident: i for i, ident in enumerate(order)}
        self._up_sets = up_sets
        self._bottom = minimal[0]
        self._covers = tuple(sorted(cover_pairs))

    def canon(self, x):
        if x not in self._index:
            raise InvalidElement(f"unknown element {x!r} in explicit poset")
        return x

    def format_element(self, x) -> str:
        return x

    def parse_element(self, text: str):
        return self.canon(text)

    def sort_key(self, x):
        return self._index[x]

    def _leq(self, x, y) -> bool:
        return y in self._up_sets[x]

    def bottom(self):
        return self._bottom

    def _interval(self, x, y) -> list:
        up = self._up_sets
        return [z for z in self._elements if z in up[x] and y in up[z]]

    def window_elements(self, bound) -> list:
        return list(self._elements)

    def witness_candidates(self, y, avoid: set):
        """Every element strictly above y, in canonical order."""
        up = self._up_sets[y]
        return (z for z in self._elements if z != y and z in up)

    def elements(self) -> list:
        return list(self._elements)

    def _key(self):
        return (self.family, self._elements, self._covers)


def _grid_passes(radices) -> list:
    """The passes of a grid with these ``radices`` (see ``Poset._grid``):
    for each coordinate, of stride s and radix r, and each digit
    d = 1, ..., r - 1, the positions t whose digit there is d, and the
    positions t - s one lower. They are ranges: one per offset within a
    block of s * r positions where a coordinate has fewer such offsets
    than blocks, else one per block."""
    size = math.prod(radices)
    passes = []
    stride = 1
    for radix in radices:
        block = stride * radix
        for low in range(0, block - stride, stride):
            high = low + stride
            if stride * block <= size:
                passes += [(range(high + j, size, block), range(low + j, size, block)) for j in range(stride)]
            else:
                passes += [(range(b + high, b + high + stride), range(b + low, b + high)) for b in range(0, size, block)]
        stride = block
    return passes


def _run_passes(values: list, passes: list, sign: int) -> None:
    """Zeta (sign 1) or Mobius (sign -1) in place on ``values``, listed
    by position, given its ``passes``: zeta runs a[t] += a[s] over each
    pass in order, and Mobius undoes those steps, a[t] -= a[s] over the
    passes and their positions in reverse order."""
    if sign > 0:
        for targets, sources in passes:
            for t, s in zip(targets, sources):
                values[t] += values[s]
    else:
        for targets, sources in reversed(passes):
            for t, s in zip(reversed(targets), reversed(sources)):
                values[t] -= values[s]


def _range_passes(size: int) -> list:
    """Divisibility's passes on 1..size: for each prime q, y // q sits
    at position y // q - 1 for the multiple y of q at position y - 1."""
    return [(range(q - 1, size, q), range(size // q)) for q in numtheory._sieve(size + 1)]


def _check_bound(bound) -> int:
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise InvalidInput(f"window bound must be a positive integer, got {bound!r}")
    _check_cap(bound, f"window of {bound} elements exceeds cap {{cap}}")
    return bound


_BUILTINS = {
    "divisibility": DivisibilityPoset(),
    "chain": ChainPoset(),
    "subsets": SubsetPoset(),
    "multisets": MultisetPoset(),
}


def get_poset(name: str) -> Poset:
    """Return the built-in poset with the given family name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise InvalidInput(
            f"unknown poset {name!r}; expected one of {', '.join(sorted(_BUILTINS))}"
        ) from None


def load_explicit_poset(doc: dict) -> ExplicitPoset:
    """Build an explicit poset from a document of the form
    ``{"elements": ["a", ...], "covers": [["a", "b"], ...]}``."""
    if not isinstance(doc, dict):
        raise InvalidInput("explicit poset document must be an object")
    try:
        elements = doc["elements"]
        covers = doc["covers"]
    except KeyError as missing:
        raise InvalidInput(f"explicit poset document lacks key {missing}") from None
    if not isinstance(elements, list) or not isinstance(covers, list):
        raise InvalidInput("'elements' and 'covers' must be lists")
    return ExplicitPoset(elements, covers)


# -- module-level operation aliases ----------------------------------


def leq(p: Poset, x, y) -> bool:
    return p.leq(x, y)


def interval(p: Poset, x, y) -> list:
    return p.interval(x, y)


def ideal(p: Poset, x) -> list:
    return p.ideal(x)


def bottom(p: Poset):
    return p.bottom()


# -- multiset <-> integer isomorphism --------------------------------


def multiset_to_integer(m) -> int:
    """Integer image of a prime-keyed multiset: the product of
    prime**multiplicity. Order-embedding onto divisibility. Refused,
    like the sort key, past ``DEFAULT_ELEMENT_CAP`` bits."""
    multisets = _BUILTINS["multisets"]
    return multisets.sort_key(multisets.canon(m))


def _image_low_bits(m) -> int:
    """Lower bound from the exponents alone: the integer image of
    canonical ``m`` is at least 2**(sum of k * (bits(p) - 1)), so a
    refusal by this bound builds no prime power."""
    return sum(k * (p.bit_length() - 1) for p, k in m)


def integer_to_multiset(n: int):
    """Prime factorisation of ``n`` as a multiset; inverse of
    ``multiset_to_integer``."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInput(f"expected a positive integer, got {n!r}")
    return tuple(numtheory.prime_factors(n).items())


# -- records ----------------------------------------------------------


class _Record(_Immutable):
    """Base of the library's small immutable result records.

    A subclass lists its fields, in constructor order, as ``__slots__``
    and writes an ``__init__`` with those parameters that calls
    ``self._fill(locals())``. Equality, hashing, copying and the refusal
    to assign come from ``_Immutable``. A record is copied with changes
    by ``_replace``; ``repr`` leaves out ``_repr_hidden``.
    """

    __slots__ = ()
    _repr_hidden = ()

    def _fill(self, arguments):
        for name in self.__slots__:
            _set(self, name, arguments[name])

    def _replace(self, **changes):
        """A new record with the named fields changed, validated like any."""
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._repr_hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"


# -- windows ----------------------------------------------------------


class Window(_Record):
    """A finite downward-closed truncation of a poset.

    ``bound`` is family-specific: maximum integer for divisibility,
    chain, and multisets (integer image), maximum ground element for
    subsets, ignored for explicit posets (the whole poset is the
    window). With ``divisor_closure`` set on the divisibility poset the
    window is the divisor set of ``bound`` instead of the full range.
    """

    __slots__ = ("poset", "bound", "divisor_closure")

    def __init__(self, poset, bound=None, divisor_closure=False):
        self._fill(locals())
        if divisor_closure and poset.family != "divisibility":
            raise InvalidInput("divisor-closure windows exist only for divisibility")
        if poset.family != "explicit" and bound is None:
            raise InvalidInput(f"{poset.family} windows need a bound")

    def label(self) -> str:
        if self.poset.family == "explicit":
            return "explicit[all]"
        if self.divisor_closure:
            return f"divisibility[divisors of {self.bound}]"
        return f"{self.poset.family}[bound={self.bound}]"


def enumerate_window(w: Window) -> list:
    """All window elements in canonical order, at most
    ``DEFAULT_ELEMENT_CAP`` of them. Downward-closed by construction for
    every family."""
    if w.divisor_closure:
        return w.poset.divisor_window_elements(w.bound)
    return w.poset.window_elements(w.bound)
