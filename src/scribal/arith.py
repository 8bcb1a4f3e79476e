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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

from .formats import render
from .rational import TWO_THIRDS, UnitFractionSum, as_rational

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
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.max_denominator < 2:
            raise ValueError("max_denominator must be >= 2")


DEFAULT_POLICY = DecompositionPolicy()

# The doubling table is a table of numerator-one fractions, so its default
# policy leaves the 2/3 primitive out; pass an explicit policy to keep it.
TABLE_POLICY = replace(DEFAULT_POLICY, allow_two_thirds=False)


def _greedy_unit_denominators(f: Fraction) -> list[int]:
    # Sylvester-Fibonacci loop on the remainder a/b in lowest terms; its
    # numerator strictly decreases.
    a, b = f.numerator, f.denominator
    dens: list[int] = []
    while a > 0:
        d = -(-b // a)  # ceil
        dens.append(d)
        a, b = a * d - b, b * d
        g = math.gcd(a, b)
        a //= g
        b //= g
    return dens


def _greedy(f: Fraction, allow_two_thirds: bool) -> tuple[bool, list[int]]:
    # 0 < f < 1. The 2/3 primitive is itself the largest available term
    # whenever it fits and is allowed.
    if allow_two_thirds and f >= TWO_THIRDS:
        return True, _greedy_unit_denominators(f - TWO_THIRDS)
    return False, _greedy_unit_denominators(f)


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


def _splitting(f: Fraction, allow_two_thirds: bool) -> tuple[bool, list[int]]:
    # 0 < f < 1. A value already written as a single term stays put;
    # otherwise decompose f/2 greedily and combine the two halves,
    # resolving every duplicate with the splitting identity.
    if f.numerator == 1:
        return False, [f.denominator]
    if allow_two_thirds and f == TWO_THIRDS:
        return True, []
    half = _greedy_unit_denominators(f / 2)
    return False, resolve_duplicates(half, half)


_FACTOR_CACHE: dict[int, dict[int, int]] = {}


def _factorize_small(n: int) -> dict[int, int]:
    # trial division with a cache; callers keep n modest (branch values
    # are <= max_denominator, original denominators are user inputs)
    cached = _FACTOR_CACHE.get(n)
    if cached is not None:
        return cached
    m, out, d = n, {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    if n <= 10**6 and len(_FACTOR_CACHE) < 200_000:
        _FACTOR_CACHE[n] = out
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
        while any(p % q == 0 for q in primes):
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
    lexicographically smallest sequence.

    ``y_floor`` is the smallest n with as many divisors as the best form's
    largest denominator under the divisor-rich order, so a form that wins
    or ties ends in a denominator of at least ``y_floor``; it is 0 before
    the first offer and without that order.
    """

    def __init__(self, policy: DecompositionPolicy):
        self.rich = policy.prefer_divisor_rich
        self.record_limit = min(policy.max_denominator, _DIVISOR_COUNT_RECORD_LIMIT)
        self.best: tuple | None = None
        self.dens: tuple[int, ...] | None = None
        self.y_floor = 0

    def offer(self, dens: tuple[int, ...]) -> None:
        largest = dens[-1]
        if self.rich:
            divisors = math.prod(e + 1 for e in _factorize_small(largest).values())
            key = (-divisors, largest, dens)
        else:
            key = (largest, dens)
        if self.best is None or key < self.best:
            if self.rich and (self.best is None or key[0] != self.best[0]):
                self.y_floor = _divisor_floor(divisors, self.record_limit)
            self.best = key
            self.dens = dens


def _two_term_into(
    a: int, b: int, b_factors: dict[int, int] | None, d_min: int, max_den: int,
    prefix: tuple[int, ...], best: _BestCandidate,
) -> None:
    # all x < y with 1/x + 1/y = a/b (lowest terms), x >= d_min and
    # best.y_floor <= y <= max_den; the smallest possible y is 2b/a, so bail
    # early when that overshoots
    if 2 * b > a * max_den:
        return
    # x = b*y/(a*y - b) falls as y rises, so y <= max_den forces
    # x >= b*max_den/(a*max_den - b) and y >= y_floor forces
    # x <= b*y_floor/(a*y_floor - b), narrowing the window
    lo = max(d_min, b // a + 1, -(-b * max_den // (a * max_den - b)))
    hi = min(max_den, 2 * b // a)
    y_floor = best.y_floor
    if a * y_floor > b:
        hi = min(hi, b * y_floor // (a * y_floor - b))
    if lo > hi:
        return
    if b_factors is None or hi - lo + 1 <= 4 * math.prod(e + 1 for e in b_factors.values()):
        # x = (e + b)/a and y = (b*b/e + b)/a, so step e = a*x - b through
        # the window and keep the divisors of b*b
        bb = b * b
        for e in range(a * lo - b, a * hi - b + 1, a):
            if bb % e == 0:
                f = bb // e + b
                if f % a == 0:
                    x, y = (e + b) // a, f // a
                    if x < y <= max_den:
                        best.offer(prefix + (x, y))
        return
    # Every solution is x = j*b/n, y = j*b/m for coprime m < n with m*n | b
    # and m + n = j*a (Rav). So m*m < b, y <= max_den needs m >= b/max_den,
    # n > m needs j > 2m/a and n <= b/m needs j <= (b/m + m)/a. x falls as
    # j rises, so x >= lo gives j <= lo*m/(lo*a - b), which also keeps
    # y <= max_den, since lo is at least the x of y = max_den. The loop
    # ignores hi, so y >= y_floor is checked on each solution.
    lo_excess = lo * a - b
    for m in _divisors_between(b, b_factors, -(-b // max_den), math.isqrt(b - 1)):
        q = b // m
        for j in range(2 * m // a + 1, min((q + m) // a, lo * m // lo_excess) + 1):
            n = j * a - m
            if q % n == 0 and math.gcd(m, n) == 1 and j * q >= y_floor:
                best.offer(prefix + (j * b // n, j * q))


def _best_k_term(f: Fraction, k: int, policy: DecompositionPolicy, best: _BestCandidate) -> None:
    # feed every k-term distinct unit-fraction decomposition of f (all
    # denominators <= max_denominator) into the running best
    max_den = policy.max_denominator
    a0, b0 = f.numerator, f.denominator
    if k == 1:
        if a0 == 1 and 2 <= b0 <= max_den:
            best.offer((b0,))
        return
    root_factors = _factorize_small(b0) if b0 <= 10**8 else None
    if k == 2:
        _two_term_into(a0, b0, root_factors, 2, max_den, (), best)
        return
    # two distinct terms <= max_den sum to a fraction whose reduced
    # denominator divides x*y <= max_den*(max_den - 1)
    leaf_den_cap = max_den * (max_den - 1)

    def recurse(a: int, b: int, factors: dict[int, int] | None, path: tuple[int, ...], t: int, d_min: int) -> None:
        # a/b in lowest terms, factors its denominator's (None past 10**8)
        lo = max(d_min, -(-b // a))
        hi = min(max_den, t * b // a)
        # lift lo past the provably dead region: the child's remainder
        # must admit terms <= max_denominator (two of them when t == 3)
        need = 2 if t == 3 else 1
        slack = a * max_den - need * b
        if slack <= 0:
            return
        lo = max(lo, -(-b * max_den // slack))
        for d in range(lo, hi + 1):
            na, nb = a * d - b, b * d
            if na <= 0:
                continue
            # The child's t-1 terms exceed d, so all but its last sum to at
            # most s = 1/(d+1) + ... + 1/(d+t-2), and its largest
            # denominator is at most 1/(na/nb - s) when that gap is
            # positive. Below the best's y_floor nothing can win or tie;
            # the bound falls as d rises and y_floor never falls, so stop.
            if t == 3:
                s_num, s_den = 1, d + 1
            else:
                s_num, s_den = 0, 1
                for i in range(d + 1, d + t - 1):
                    s_num, s_den = s_num * i + s_den, s_den * i
            if nb * s_den < best.y_floor * (na * s_den - nb * s_num):
                break
            g = math.gcd(na, nb)
            if g > 1:
                na //= g
                nb //= g
            if t == 3 and nb > leaf_den_cap:
                continue
            child = None
            if factors is not None:
                # nb = b*d/g, and every prime of g divides d
                child = dict(factors)
                for p, e in _factorize_small(d).items():
                    e += child.get(p, 0)
                    while g % p == 0:
                        g //= p
                        e -= 1
                    if e:
                        child[p] = e
                    else:
                        del child[p]
            if t == 3:
                _two_term_into(na, nb, child, d + 1, max_den, path + (d,), best)
            else:
                recurse(na, nb, child, path + (d,), t - 1, d + 1)

    recurse(a0, b0, root_factors, (), k, 2)


def _shortest(f: Fraction, policy: DecompositionPolicy) -> tuple[bool, list[int]]:
    # 0 < f < 1. Minimal term count wins; at equal length a form using the
    # 2/3 primitive is preferred, then the policy tie-break on denominators.
    rest = f - TWO_THIRDS if policy.allow_two_thirds else None
    for k in range(1, policy.max_terms + 1):
        if rest is not None:
            if k == 1 and rest == 0:
                return True, []
            if k > 1 and rest > 0:
                best = _BestCandidate(policy)
                _best_k_term(rest, k - 1, policy, best)
                if best.dens is not None:
                    return True, list(best.dens)
        best = _BestCandidate(policy)
        _best_k_term(f, k, policy, best)
        if best.dens is not None:
            return False, list(best.dens)
    raise BoundsExceededError(
        f"no decomposition of {f} within max_terms={policy.max_terms} "
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
    if r <= 0:
        raise ValueError(f"can only decompose positive values, got {r}")
    integer_part = int(r)
    f = r - integer_part
    if f == 0:
        return UnitFractionSum(integer_part)
    if policy.strategy == GREEDY:
        marker, dens = _greedy(f, policy.allow_two_thirds)
    elif policy.strategy == SPLITTING:
        marker, dens = _splitting(f, policy.allow_two_thirds)
    else:
        marker, dens = _shortest(f, policy)
    return UnitFractionSum(integer_part, marker, tuple(dens))


@dataclass(frozen=True)
class TableEntry:
    """One row of the doubling table: 2/n in scribal notation."""

    n: int
    decomposition: UnitFractionSum

    @property
    def term_count(self) -> int:
        return self.decomposition.term_count

    def value(self) -> Fraction:
        return self.decomposition.value()


def table_2_over_n(
    policy: DecompositionPolicy | None = None,
    *,
    n_max: int = 99,
    include_even: bool = False,
) -> list[TableEntry]:
    """The doubling table: decompositions of 2/n for n from 3 to n_max.

    Historically the table covers odd n only (2/n for even n reduces to a
    single unit fraction); ``include_even`` adds those trivial rows. With
    no explicit policy the rows are pure numerator-one fractions under
    shortest_search (``TABLE_POLICY``).
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    if policy is None:
        policy = TABLE_POLICY
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


def _table_records(entries: list[TableEntry]) -> list[dict]:
    return [
        dict(zip(_TABLE_COLUMNS, (e.n, e.term_count, e.decomposition.render(), str(e.value()))))
        for e in entries
    ]


def table_to_csv(entries: list[TableEntry]) -> str:
    """CSV export with a recomposition check column; byte-stable."""
    return render("csv", "", _table_records(entries), _TABLE_COLUMNS)


def table_to_json(entries: list[TableEntry]) -> str:
    return render("json", "", _table_records(entries))


@dataclass(frozen=True)
class DuplationRow:
    power: int
    value: int
    selected: bool


@dataclass(frozen=True)
class DuplationResult:
    """Product of two positive integers by doubling and adding.

    ``rows`` doubles the multiplicand once per line; the selected rows are
    the binary decomposition of the multiplier and sum to the product.
    """

    multiplier: int
    multiplicand: int
    product: int
    rows: tuple[DuplationRow, ...] = field(repr=False)

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
    """Multiply a * b by repeated doubling of b, selecting rows that sum a."""
    if not (isinstance(a, int) and isinstance(b, int)) or a < 1 or b < 1:
        raise ValueError("duplation multiplies positive integers")
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
    if not (isinstance(loaves, int) and isinstance(men, int)) or loaves < 1 or men < 1:
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
