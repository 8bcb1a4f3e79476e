"""Reckoning with unit fractions.

Decomposition under three strategies, the 2/n doubling table, duplation
(doubling) multiplication, loaf division, and completion (sequem)
reckoning. All results are exact; decompositions always recompose to
their input.

Strategies:

* ``greedy``: repeatedly take the largest representable term not exceeding
  the remainder (the 2/3 primitive counts when allowed). Always terminates,
  since each step strictly decreases the remainder's numerator, but can
  produce large denominators.
* ``shortest_search``: exhaustive search for a minimal-term decomposition
  within ``max_terms`` and ``max_denominator``, with a deterministic
  tie-break among equally short answers.
* ``splitting``: decompose half the value greedily, then combine the two
  identical halves, resolving every duplicate denominator with the
  splitting identity 1/k = 1/(k+1) + 1/(k(k+1)).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .formats import render
from .rational import UnitFractionSum, as_rational

GREEDY = "greedy"
SPLITTING = "splitting"
SHORTEST_SEARCH = "shortest_search"
STRATEGIES = (GREEDY, SPLITTING, SHORTEST_SEARCH)

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


class BoundsExceededError(ValueError):
    """Raised when shortest_search exhausts its policy bounds.

    The message and attributes name the bounds in force; nothing below
    ``max_terms`` terms fits with denominators up to ``max_denominator``.
    """

    def __init__(self, message: str, *, max_terms: int, max_denominator: int):
        super().__init__(message)
        self.max_terms = max_terms
        self.max_denominator = max_denominator


@dataclass(frozen=True)
class DecompositionPolicy:
    """Strategy and search bounds for unit-fraction decomposition.

    ``max_terms`` and ``max_denominator`` bound the shortest_search
    enumeration only; greedy and splitting are exact procedures that do
    not search. ``prefer_divisor_rich`` breaks ties toward a largest
    denominator with many divisors, the pattern visible in the historical
    doubling table.
    """

    strategy: str = SHORTEST_SEARCH
    max_terms: int = 4
    max_denominator: int = 10000
    prefer_divisor_rich: bool = True
    allow_two_thirds: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        for name, least in (("max_terms", 1), ("max_denominator", 2)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        for name in ("prefer_divisor_rich", "allow_two_thirds"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, got {type(value).__name__}")


DEFAULT_POLICY = DecompositionPolicy()

# The doubling table is a table of numerator-one fractions, so its default
# policy leaves the 2/3 primitive out; pass an explicit policy to keep it.
TABLE_POLICY = DecompositionPolicy(allow_two_thirds=False)


def _greedy_unit_denominators(a: int, b: int) -> list[int]:
    # Sylvester-Fibonacci loop on the remainder a/b in lowest terms; its
    # numerator strictly decreases.
    dens: list[int] = []
    while a > 0:
        d = -(-b // a)  # ceil
        dens.append(d)
        a, b = a * d - b, b * d
        g = math.gcd(a, b)
        a //= g
        b //= g
    return dens


def _minus_two_thirds(a: int, b: int) -> tuple[int, int]:
    # a/b - 2/3 in lowest terms, for a/b >= 2/3 (3a >= 2b)
    a, b = 3 * a - 2 * b, 3 * b
    g = math.gcd(a, b)
    return a // g, b // g


# Splitting steps resolve_duplicates takes before it gives up; no sane
# input cascades this far.
_DUPLICATE_STEP_LIMIT = 100_000


def resolve_duplicates(denominators: list[int], incoming: list[int]) -> list[int]:
    """Union two unit-fraction denominator lists, splitting duplicates.

    Every colliding incoming term 1/k is rewritten with the identity
    1/k = 1/(k+1) + 1/(k(k+1)) until it lands on a free denominator; the
    value of the union is preserved exactly. Raises ``ValueError`` when
    that takes more than ``_DUPLICATE_STEP_LIMIT`` splitting steps.
    """
    have = set(denominators)
    queue = sorted(incoming, reverse=True)
    steps = 0
    while queue:
        d = queue.pop()
        while d in have:
            steps += 1
            if steps > _DUPLICATE_STEP_LIMIT:
                raise ValueError(
                    f"duplicate resolution did not settle within {_DUPLICATE_STEP_LIMIT} splitting steps"
                )
            queue.append(d * (d + 1))
            d += 1
        have.add(d)
    return sorted(have)


def _splitting(a: int, b: int) -> list[int]:
    # 0 < a/b < 1 in lowest terms. A value already written as a single term
    # stays put; otherwise decompose half of it greedily and combine the two
    # halves, resolving every duplicate with the splitting identity. The
    # half, a/2 over b for even a or a over 2b for odd a, is in lowest terms.
    if a == 1:
        return [b]
    half = _greedy_unit_denominators(a // 2, b) if a % 2 == 0 else _greedy_unit_denominators(a, 2 * b)
    return resolve_duplicates(half, half)


@lru_cache(maxsize=200_000)
def _factorize_small(n: int, bound: int | None = None) -> dict[int, int]:
    # trial division. The search passes bound = max_den, so a term costs
    # at most sqrt(max_den)/2 divisions and a root's denominator b at most
    # min(max_den, sqrt(b))/2. With a bound, no divisor past it is tried: a
    # cofactor left over then holds only primes past the bound, and stands
    # in the result as one prime past it. The cache hands every caller
    # the same dict, so no caller may mutate one.
    m, out, d = n, {}, 2
    while d * d <= m and (bound is None or d <= bound):
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _divisors_between(n: int, factors: dict[int, int], lo: int, hi: int) -> list[int]:
    # the divisors of n in [lo, hi]; a partial product is dropped once it
    # passes hi, or once even all the primes still to come cannot lift it
    # to lo, which prunes most when the small primes come last
    divs = [1]
    rest = n
    for p, e in sorted(factors.items(), reverse=True):
        rest //= p**e
        grown = []
        for d in divs:
            for _ in range(e + 1):
                if d > hi:
                    break
                if d * rest >= lo:
                    grown.append(d)
                d *= p
        divs = grown
    return divs


# The divisor-count records are built up to this at most, and the search
# uses them only for bounds up to it: ranking the candidates takes some
# 4000 products up to 10**12, but 700k up to 10**30.
_DIVISOR_COUNT_RECORD_LIMIT = 10**12


@lru_cache(maxsize=8)
def _divisor_count_records(limit: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # (ns, counts): the n <= limit with more divisors than every smaller n
    # (the highly composite numbers) and their divisor counts, both
    # ascending, so the most divisors of any n <= N is
    # counts[bisect_right(ns, N) - 1]. A record's prime exponents never rise
    # along 2, 3, 5, ...: any other order gives a smaller n with as many
    # divisors. So only such products need ranking, and they are few.
    primes, p, primorial = [], 2, 2
    while primorial <= limit:
        primes.append(p)
        p += 1
        while _factorize_small(p) != {p: 1}:
            p += 1
        primorial *= p
    shaped: list[tuple[int, int]] = []

    def grow(n: int, count: int, i: int, max_e: int) -> None:
        shaped.append((n, count))
        if i == len(primes):
            return
        for e in range(1, max_e + 1):
            n *= primes[i]
            if n > limit:
                break
            grow(n, count * (e + 1), i + 1, e)

    grow(1, 1, 0, limit.bit_length())
    ns, counts = [], []
    for n, count in sorted(shaped):
        if not counts or count > counts[-1]:
            ns.append(n)
            counts.append(count)
    return tuple(ns), tuple(counts)


def _divisor_floor(count: int, limit: int) -> int:
    # the smallest n with at least `count` divisors, or limit + 1 when no
    # n <= limit has that many
    ns, counts = _divisor_count_records(limit)
    i = bisect_left(counts, count)
    return ns[i] if i < len(ns) else limit + 1


class _BestCandidate:
    """Running minimum over equal-length decompositions.

    Order: divisor count of the largest denominator (descending, when the
    policy prefers divisor-rich), then smallest largest denominator, then
    lexicographically smallest sequence. ``key`` is the best form's place
    in that order, the form itself last; it is None before the first offer.

    ``y_floor`` is the smallest n with as many divisors as the best form's
    largest denominator under the divisor-rich order, so a form that wins
    or ties ends in a denominator of at least ``y_floor``; it is 0 before
    the first offer and without that order.
    """

    def __init__(self, policy: DecompositionPolicy):
        self.rich = policy.prefer_divisor_rich
        self.record_limit = min(policy.max_denominator, _DIVISOR_COUNT_RECORD_LIMIT)
        self.key: tuple | None = None
        self.y_floor = 0

    def offer(self, dens: tuple[int, ...]) -> None:
        largest = dens[-1]
        if self.rich:
            divisors = math.prod(e + 1 for e in _factorize_small(largest).values())
            key = (-divisors, largest, dens)
        else:
            key = (largest, dens)
        if self.key is None or key < self.key:
            if self.rich:
                self.y_floor = _divisor_floor(divisors, self.record_limit)
            self.key = key


def _with_term(term: int, x: int, y: int) -> tuple[int, int, int]:
    # the term put in order beside x < y
    return (term, x, y) if term < x else (x, term, y) if term < y else (x, y, term)


def _child_factors(factors: dict[int, int], d: int, g: int, bound: int) -> dict[int, int]:
    # the factors of b*d/g from those of b, where every prime of g divides
    # d, with d factored up to bound
    child = dict(factors)
    for p, e in _factorize_small(d, bound).items():
        e += child.get(p, 0)
        while g % p == 0:
            g //= p
            e -= 1
        if e:
            child[p] = e
        else:
            del child[p]
    return child


class _Merged:
    """Stands in for the best in a two-term leaf: merges the term q*k into
    each pair the leaf offers, where q = p**e is the power of the split's
    prime p in its denominator. A pair that holds a multiple of q is
    dropped: its form belongs to a larger set of such terms, where the
    split counts it, and it could repeat the term. A pair that holds a
    lower power of p stays, since such a term's q/d vanishes mod p: it
    is in no set, so the groups stay disjoint."""

    __slots__ = ("best", "q", "term", "path")
    y_floor = 0  # no floor for the leaf: the best's key comparison drops the forms below its own

    def __init__(self, best: _BestCandidate, q: int, term: int, path: tuple[int, ...]):
        self.best = best
        self.q = q
        self.term = term
        self.path = path

    def offer(self, pair: tuple[int, ...]) -> None:
        x, y = pair
        if x % self.q and y % self.q:
            self.best.offer(self.path + _with_term(self.term, x, y))


# A two-term leaf takes Rav's divisor pairs, which need its denominator's
# factors, when hi - lo is at least this, and scans its window otherwise.
# Over the table and default-policy ops of the search benchmark's seed-0
# and seed-71 passes (best of 21 in one process, 2-vCPU Xeon VM), 64,
# 128, 256, 384, 512 and 1024 summed to 51.0, 48.3, 47.3, 47.2, 47.6 and
# 48.7 ms (seed 0) and 48.9, 45.3, 44.7, 44.5, 45.9 and 48.4 ms (seed 71).
_SCAN_WIDTH = 256


class _Search:
    """One exhaustive search at a fixed term count: every form of the
    value with denominators up to max_den goes to the running best.

    Methods, not nested closures, so that a search leaves no reference
    cycle behind for the collector."""

    __slots__ = ("max_den", "best")

    def __init__(self, max_den: int, best: _BestCandidate):
        self.max_den = max_den
        self.best = best

    def node(
        self,
        a: int,
        b: int,
        factors: dict[int, int],
        path: tuple[int, ...],
        t: int,
        d_min: int,
        d: int,
        g: int,
    ) -> None:
        # every t-term form of a/b (lowest terms, t >= 2) with terms of at
        # least d_min. factors are those of the parent's b*g/d, which the
        # node turns into its own only when it reads them; a root's parent
        # is the empty product, with d = b and g = 1. A cofactor past
        # max_den may stand in them as one prime.
        max_den, best = self.max_den, self.best
        hi = min(max_den, t * b // a)
        # lift lo past the provably dead region: the child's t - 1 terms
        # are each at least 1/max_den, so its remainder a/b - 1/d is at
        # least (t - 1)/max_den. As slack < a*max_den, that puts lo above
        # b/a, so every child's remainder is positive.
        slack = a * max_den - (t - 1) * b
        if slack <= 0:
            return
        lo = max(d_min, -(-b * max_den // slack))
        if lo > hi:
            return
        if t == 2:
            # the leaf: all x < y with 1/x + 1/y = a/b. lo keeps y <= max_den,
            # and y >= y_floor forces x <= b*y_floor/(a*y_floor - b). A window
            # that this empties has hi - lo < 0 and an empty scan range.
            y_floor = best.y_floor
            if a * y_floor > b:
                hi = min(hi, b * y_floor // (a * y_floor - b))
            if hi - lo >= _SCAN_WIDTH:
                factors = _child_factors(factors, d, g, max_den)
                # Every solution is x = j*b/n, y = j*b/m for coprime m < n
                # with m*n | b and m + n = j*a (Rav). So m*m < b, y <=
                # max_den needs m >= b/max_den, n > m needs j > 2m/a and
                # n <= b/m needs j <= (b/m + m)/a. x falls as j rises, so
                # x >= lo gives j <= lo*m/(lo*a - b), which also keeps y <=
                # max_den, since lo is at least the x of y = max_den. The
                # loop ignores hi, so the best drops a y below y_floor.
                lo_excess = lo * a - b
                for m in _divisors_between(b, factors, -(-b // max_den), math.isqrt(b - 1)):
                    q = b // m
                    for j in range(2 * m // a + 1, min((q + m) // a, lo * m // lo_excess) + 1):
                        n = j * a - m
                        if q % n == 0 and math.gcd(m, n) == 1:
                            best.offer(path + (j * b // n, j * q))
                return
            # x = (e + b)/a and y = (b*b/e + b)/a, so step e = a*x - b
            # through the window and keep the divisors of b*b
            bb = b * b
            for e in range(a * lo - b, a * hi - b + 1, a):
                if bb % e == 0:
                    # e = -b mod a and gcd(a, b) = 1, so bb/e = -b mod a too
                    x, y = (e + b) // a, (bb // e + b) // a
                    if x < y:
                        best.offer(path + (x, y))
            return
        factors = _child_factors(factors, d, g, max_den)
        # b divides the lcm of the terms, so a prime power r**e of b past
        # max_den, which no term holds, leaves no form. A prime r with s =
        # r**e dividing b exactly and L = max_den // (r*s) splits a
        # three-term node when L <= 2 and 2*L < r: past that it tries too
        # many k to pay. Of the primes that qualify take the largest s,
        # whose K = max_den // s is the least. Testing every prime at every
        # such node costs 5/1993, 5/922 and 7/997 under 1% (median of 41
        # paired in-process runs, 2-vCPU Xeon VM), and ends 1671/(2*17**4)
        # at its root in 0.03 ms.
        q = 0
        for r, e in factors.items():
            s = r**e
            if s > max_den:
                return
            L = max_den // (r * s)
            if s > q and L <= 2 and 2 * L < r:
                p, q = r, s
        if q and t == 3:
            # every term is at least lo, the smallest term's bound
            self.split(a, b, factors, p, q, path, lo)
            return
        node = self.node
        for d in range(lo, hi + 1):
            na, nb = a * d - b, b * d
            # The child's t-1 terms exceed d, so all but its last sum to at
            # most s = 1/(d+1) + ... + 1/(d+t-2), and its largest
            # denominator is at most 1/(na/nb - s) when that gap is
            # positive. Below the best's y_floor nothing can win or tie;
            # the bound falls as d rises and y_floor never falls, so stop.
            s_num, s_den = 0, 1
            for i in range(d + 1, d + t - 1):
                s_num, s_den = s_num * i + s_den, s_den * i
            if nb * s_den < best.y_floor * (na * s_den - nb * s_num):
                break
            g = math.gcd(na, nb)
            node(na // g, nb // g, factors, path + (d,), t - 1, d + 1, d, g)

    def split(
        self, a: int, b: int, factors: dict[int, int], p: int, q: int, path: tuple[int, ...], d_min: int
    ) -> None:
        # The three-term forms of a/b with terms of at least d_min > b/a,
        # where q = p**e <= max_den divides b exactly, L = max_den // (p*q)
        # is at most 2 and 2*L < p. With b = q*c, the terms that q divides
        # are q*k with k <= K = max_den // q. Multiply a/b = 1/x + 1/y +
        # 1/z by q: a term that holds a lower power of p, or none, gives a
        # q/x that vanishes mod p, so the 1/k of the terms q*k sum to a/c
        # mod p. Each form has one such set S of k, so the forms fall into
        # disjoint groups by |S|, and a term holding a lower power of p
        # belongs to no set. L < p holds exactly when p**(e+2) > max_den,
        # so a k that p divides is p*j with j <= L < p, and its 1/k has p
        # in the denominator: alone nothing cancels it, and two such k
        # need j1 + j2 = 0 mod p, more than 2*L. (When L = 0 there is no
        # such k, and every k < p.) So a set of one or two k holds no
        # multiple of p, nor does the third term beside a pair, and the
        # residues of its k mod p fix them up to a step of p, at most L +
        # 1 values each. The sets of three run over every k <= K; with
        # L <= 2 no form has three distinct terms that hold more of p than
        # b, so none turns up again among the pairs.
        max_den, best = self.max_den, self.best
        c = b // q
        K = max_den // q
        k_lo = -(-d_min // q)
        k0 = c * pow(a, -1, p) % p  # 1/k0 = a/c mod p
        # |S| = 1: S = {k} for each k = k0 mod p, and the rest is a
        # two-term leaf free of multiples of q; x > b/a, so the rest is
        # positive. The leaf runs on this search, with _Merged standing in
        # for the best.
        x = q * k0
        while x <= max_den:
            if x >= d_min:
                na, nb = a * x - b, b * x
                g = math.gcd(na, nb)
                self.best = _Merged(best, q, x, path)
                self.node(na // g, nb // g, factors, (), 2, d_min, x, g)
                self.best = best
            x += p * q
        # |S| = 2: k1 < k2 with 1/k2 = a/c - 1/k1 mod p, and the third term
        # 1/m is the rest. 1/(q*k1) < a/b, and 2/(q*k1) exceeds
        # 1/(q*k1) + 1/(q*k2) = a/b - 1/m >= a/b - 1/d_min.
        hi = min(K - 1, 2 * b * d_min // (q * (a * d_min - b)))
        for k1 in range(max(k_lo, c // a + 1), hi + 1):
            e = a * k1 - c  # a/b - 1/(q*k1) = e/(b*k1)
            if e % p == 0:
                continue
            # every k2 > k1 in its residue class; a k1 that p divides puts
            # k2 in the class of 0. A rest m that q divides would make a set
            # of three, so it is dropped: the only one is m = q*k1 when p = 5
            # and L = 2, as 1/5 + 1/10 + 1/5 = 1/2 repeats the term q*5.
            k2 = k1 * c * pow(e, -1, p) % p
            while k2 <= K:
                n = e * k2 - c * k1  # the rest is n/(b*k1*k2)
                if k2 > k1 and n > 0:
                    m, r = divmod(b * k1 * k2, n)
                    if not r and d_min <= m <= max_den and m % q:
                        best.offer(path + _with_term(m, q * k1, q * k2))
                k2 += p
        # |S| = 3: 1/k1 + 1/k2 + 1/k3 = a/c exactly
        for k1 in range(max(k_lo, c // a + 1), min(K, 3 * c // a) + 1):
            e, f = a * k1 - c, c * k1
            for k2 in range(max(k1 + 1, f // e + 1), min(K, 2 * f // e) + 1):
                n = e * k2 - f
                k3, r = divmod(f * k2, n)
                if not r and k2 < k3 <= K:
                    best.offer(path + (q * k1, q * k2, q * k3))


def _shortest(
    a: int, b: int, rest: tuple[int, int] | None, policy: DecompositionPolicy
) -> tuple[bool, list[int]]:
    # 0 < a/b < 1 in lowest terms; rest is a/b - 2/3 where a form may use
    # 2/3. Minimal term count wins; at equal length a form using 2/3 is
    # preferred, then the policy tie-break on denominators. Each search is
    # (2/3 used, its value, the terms 2/3 takes), the rest after 2/3 first.
    searches = [(False, a, b, 0)]
    if rest:
        searches.insert(0, (True, *rest, 1))
    max_den = policy.max_denominator
    # k terms of at least 1/max_den, 2/3 among them or not, sum to at least
    # k/max_den, so no form of a/b has more than a*max_den // b terms
    for k in range(1, min(policy.max_terms, a * max_den // b) + 1):
        for marker, a0, b0, used in searches:
            t = k - used
            if t == 1 and a0 == 1 and b0 <= max_den:
                return marker, [b0]
            if t >= 2:
                best = _BestCandidate(policy)
                _Search(max_den, best).node(a0, b0, {}, (), t, 2, b0, 1)
                if best.key is not None:
                    return marker, list(best.key[-1])
    raise BoundsExceededError(
        f"no decomposition of {a}/{b} within max_terms={policy.max_terms} "
        f"and max_denominator={policy.max_denominator}",
        max_terms=policy.max_terms,
        max_denominator=policy.max_denominator,
    )


def decompose(r: Fraction | int, policy: DecompositionPolicy = DEFAULT_POLICY) -> UnitFractionSum:
    """Write a positive rational in scribal notation under the given policy.

    The result recomposes to ``r`` exactly, whatever the strategy.
    Raises ``BoundsExceededError`` when shortest_search runs out of room.
    """
    r = as_rational(r)
    a, b = r.numerator, r.denominator
    if a <= 0:
        raise ValueError(f"can only decompose positive values, got {r}")
    integer_part, a = divmod(a, b)
    if a == 0:
        return UnitFractionSum(integer_part)
    # what is left after 2/3, where the form may use it
    rest = _minus_two_thirds(a, b) if policy.allow_two_thirds and 3 * a >= 2 * b else None
    if rest == (0, 1):
        return UnitFractionSum(integer_part, True)
    if policy.strategy == GREEDY:
        # 2/3 is itself the largest term whenever it fits
        marker, dens = rest is not None, _greedy_unit_denominators(*(rest or (a, b)))
    elif policy.strategy == SPLITTING:
        marker, dens = False, _splitting(a, b)
    else:
        marker, dens = _shortest(a, b, rest, policy)
    return UnitFractionSum(integer_part, marker, tuple(dens))


class TableEntry(NamedTuple):
    """One row of the doubling table: 2/n in scribal notation."""

    n: int
    decomposition: UnitFractionSum


# The table is built whole before it is shown, so its last row is capped:
# greedy and splitting build 10**5 rows in well under a second.
TABLE_MAX_N = 100_000


def table_2_over_n(
    policy: DecompositionPolicy = TABLE_POLICY,
    *,
    n_max: int = 99,
    include_even: bool = False,
) -> list[TableEntry]:
    """The doubling table: decompositions of 2/n for n from 3 to n_max.

    Historically the table covers odd n only (2/n for even n reduces to a
    single unit fraction); ``include_even`` adds those trivial rows. With
    no explicit policy the rows are pure numerator-one fractions under
    shortest_search (``TABLE_POLICY``). An ``n_max`` above
    ``TABLE_MAX_N`` is refused before any row is built.
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    if n_max > TABLE_MAX_N:
        raise ValueError(f"n_max must be at most {TABLE_MAX_N}, got {n_max}")
    entries: list[TableEntry] = []
    for n in range(3, n_max + 1):
        if n % 2 == 0 and not include_even:
            continue
        try:
            entries.append(TableEntry(n, decompose(Fraction(2, n), policy)))
        except BoundsExceededError as exc:
            raise BoundsExceededError(
                f"table row n={n} failed: {exc}",
                max_terms=exc.max_terms,
                max_denominator=exc.max_denominator,
            ) from exc
    return entries


_TABLE_COLUMNS = ("n", "terms", "decomposition", "value_check")


def render_table(entries: list[TableEntry], fmt: str = "text") -> str:
    """The table as ``2/n = ...`` lines, or as JSON or CSV records with a
    recomposition check column; byte-stable."""
    if fmt == "text":
        return "".join(f"2/{e.n:<3} = {e.decomposition.render()}\n" for e in entries)
    records = [
        dict(zip(_TABLE_COLUMNS, (n, d.term_count, d.render(), str(d.value()))))
        for n, d in entries
    ]
    return render(fmt, "", records, _TABLE_COLUMNS)


# Every row and the product are printed, so each factor has at most this
# many decimal digits: then no row and no product has more than twice as
# many, inside the interpreter's 4300-digit limit on int-to-string conversion.
DUPLATION_MAX_DIGITS = 1000
_DUPLATION_LIMIT = 10**DUPLATION_MAX_DIGITS


class DuplationRow(NamedTuple):
    power: int
    value: int
    selected: bool


class DuplationResult(NamedTuple):
    """Product of two positive integers by doubling and adding.

    ``rows`` doubles the multiplicand once per line; the selected rows are
    the binary decomposition of the multiplier and sum to the product.
    """

    multiplier: int
    multiplicand: int
    product: int
    rows: tuple[DuplationRow, ...]

    @property
    def selected_powers(self) -> list[int]:
        return [row.power for row in self.rows if row.selected]

    def render(self) -> str:
        lines = [f"{self.multiplier} x {self.multiplicand}"]
        for row in self.rows:
            mark = "*" if row.selected else " "
            lines.append(f" {mark} {row.power:>8} | {row.value}")
        lines.append(f"   total    | {self.product}")
        return "\n".join(lines)


def duplation_multiply(a: int, b: int) -> DuplationResult:
    """Multiply a * b by repeated doubling of b, selecting rows that sum a.

    A factor of more than ``DUPLATION_MAX_DIGITS`` digits is refused before
    any row is built.
    """
    if any(not isinstance(n, int) or isinstance(n, bool) or n < 1 for n in (a, b)):
        raise ValueError("duplation multiplies positive integers")
    # ints of different sizes compare by size first: a huge factor is cheap to refuse
    if a >= _DUPLATION_LIMIT or b >= _DUPLATION_LIMIT:
        raise ValueError(f"duplation takes factors of at most {DUPLATION_MAX_DIGITS} digits")
    rows: list[DuplationRow] = []
    power, doubled = 1, b
    while power <= a:
        rows.append(DuplationRow(power, doubled, bool(a & power)))
        power <<= 1
        doubled <<= 1
    product = sum(row.value for row in rows if row.selected)
    return DuplationResult(a, b, product, tuple(rows))


def divide_loaves(
    loaves: int, men: int, policy: DecompositionPolicy = DEFAULT_POLICY
) -> UnitFractionSum:
    """Each man's share when dividing loaves equally, in scribal notation."""
    if any(not isinstance(n, int) or isinstance(n, bool) or n < 1 for n in (loaves, men)):
        raise ValueError("loaf division needs positive integer loaves and men")
    return decompose(Fraction(loaves, men), policy)


def sequem_complete(given: Fraction, target: Fraction, mode: str = ADDITIVE) -> Fraction:
    """Completion reckoning: what joins ``given`` to make ``target``.

    Additive mode returns target - given; multiplicative mode returns
    target / given. Recombining reproduces the target exactly.
    """
    given = as_rational(given)
    target = as_rational(target)
    if mode == ADDITIVE:
        return target - given
    if mode == MULTIPLICATIVE:
        if given == 0:
            raise ZeroDivisionError("multiplicative completion of zero is undefined")
        return target / given
    raise ValueError(f"mode must be {ADDITIVE!r} or {MULTIPLICATIVE!r}, got {mode!r}")
