import json
import math
import random
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scribal import arith
from scribal.arith import (
    ADDITIVE,
    DEFAULT_POLICY,
    DUPLATION_MAX_DIGITS,
    GREEDY,
    MULTIPLICATIVE,
    SHORTEST_SEARCH,
    SPLITTING,
    STRATEGIES,
    TABLE_POLICY,
    BoundsExceededError,
    DecompositionPolicy,
    decompose,
    divide_loaves,
    duplation_multiply,
    resolve_duplicates,
    sequem_complete,
    render_table,
    table_2_over_n,
    _BestCandidate,
    _Search,
    _divisor_count_records,
    _factorize_small,
    _greedy_unit_denominators,
)
from scribal.rational import UnitFractionSum

F = Fraction

# decompose outputs recorded before the search was last changed; rewrite
# with tests/record_decompose_golden.py only from a trusted commit
GOLDEN = json.loads((Path(__file__).with_name("golden") / "decompose.json").read_text())


def brute_force_decompositions(value, k, max_den):
    """Oracle: every k-term distinct unit-fraction sum equal to value.

    Straightforward recursive enumeration kept independent of the library's
    search machinery; only usable at small scale. The remainder is the
    pair (n, m) for n/m, not reduced.
    """
    results = []

    def go(n, m, d_min, chosen):
        terms_left = k - len(chosen)
        if terms_left == 0:
            if n == 0:
                results.append(tuple(chosen))
            return
        d = d_min
        while d <= max_den:
            if terms_left * m < n * d:
                break  # even terms_left copies of the largest candidate fall short
            if m <= n * d:
                go(n * d - m, m * d, d + 1, chosen + [d])
            d += 1

    go(value.numerator, value.denominator, 2, [])
    return results


class TestDecomposeExamples:
    def test_greedy_two_thirds_disallowed(self):
        # greedy trace by hand: largest unit <= 2/3 is 1/2, remainder 1/6
        policy = DecompositionPolicy(strategy=GREEDY, allow_two_thirds=False)
        assert decompose(F(2, 3), policy).denominators == (2, 6)

    def test_greedy_two_thirds_allowed_uses_marker(self):
        policy = DecompositionPolicy(strategy=GREEDY)
        u = decompose(F(2, 3), policy)
        assert u.two_thirds and u.denominators == ()

    @pytest.mark.parametrize("strategy", [GREEDY, SPLITTING, SHORTEST_SEARCH])
    def test_unit_fraction_stays_put(self, strategy):
        # one term is enough, so a one-term bound changes nothing
        for max_terms in (4, 1):
            u = decompose(F(1, 7), DecompositionPolicy(strategy=strategy, max_terms=max_terms))
            assert u.denominators == (7,) and not u.two_thirds and u.integer_part == 0

    def test_2_99_two_terms(self):
        u = decompose(F(2, 99))
        assert u.term_count == 2
        assert u.value() == F(2, 99)
        # oracle: pairs exist, among them 66 + 198
        pairs = brute_force_decompositions(F(2, 99), 2, 10000)
        assert (66, 198) in pairs
        assert u.denominators in pairs

    def test_integer_part_split_off(self):
        u = decompose(F(133, 8))
        assert u.integer_part == 16
        assert u.value() == F(133, 8)
        # the part left after the whole is exactly 2/3 under every strategy
        for strategy in STRATEGIES:
            assert decompose(F(5, 3), DecompositionPolicy(strategy=strategy)).render() == "1 + 2/3"

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            decompose(F(0))
        with pytest.raises(ValueError):
            decompose(F(-1, 2))

    def test_historical_loaf_forms(self):
        # the marker-first preference reproduces attested scribal answers
        assert decompose(F(7, 10)).render() == "2/3 + 1/30"
        assert decompose(F(9, 10)).render() == "2/3 + 1/5 + 1/30"


def divisor_count(n):
    count, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            count *= e + 1
        d += 1
    return count * (2 if n > 1 else 1)


def oracle_best(value, policy):
    """Oracle: the full shortest-search contract, recomputed naively.

    Minimal term count first (2/3-bearing forms preferred at ties when
    allowed), then the policy tie-break applied over the brute-force
    candidate set.
    """
    def key(seq):
        rich = (-divisor_count(seq[-1]),) if policy.prefer_divisor_rich else ()
        return rich + (seq[-1], seq)

    for k in range(1, policy.max_terms + 1):
        if policy.allow_two_thirds:
            if k == 1 and value == F(2, 3):
                return True, ()
            rest = value - F(2, 3)
            if k > 1 and rest > 0:
                marked = brute_force_decompositions(rest, k - 1, policy.max_denominator)
                if marked:
                    return True, min(marked, key=key)
        plain = brute_force_decompositions(value, k, policy.max_denominator)
        if plain:
            return False, min(plain, key=key)
    return None


class TestShortestSearch:
    def test_minimality_against_oracle_small(self):
        for value in (F(3, 7), F(5, 8), F(4, 13), F(9, 20)):
            u = decompose(value, DecompositionPolicy(allow_two_thirds=False))
            for fewer in range(1, len(u.denominators)):
                assert brute_force_decompositions(value, fewer, 10000) == []

    def test_tie_break_divisor_rich(self):
        # 2/99 candidates include largest denominators 110..4950; 4950 has
        # the most divisors
        assert decompose(F(2, 99)).denominators == (50, 4950)

    def test_tie_break_divisor_count_by_enumeration(self):
        # every d <= limit is counted once for each of its multiples
        limit = 5000
        counts = [0] * (limit + 1)
        for d in range(1, limit + 1):
            for multiple in range(d, limit + 1, d):
                counts[multiple] += 1
        for n in range(1, limit + 1):
            best = _BestCandidate(DEFAULT_POLICY)
            best.offer((n,))
            assert best.key[0] == -counts[n], n

    def test_tie_break_smallest_largest_denominator(self):
        u = decompose(F(2, 99), DecompositionPolicy(prefer_divisor_rich=False))
        assert u.denominators == (90, 110)

    def test_three_term_form_ending_in_the_two_largest_denominators(self):
        # 1/d + 1/(M-1) + 1/M leaves the leaf (2M-1)/(M(M-1)) in lowest
        # terms, so the leaf denominator cap must let nb = M(M-1) through
        for M, d in [(8, 3), (8, 5), (9, 4), (11, 6)]:
            value = F(1, d) + F(1, M - 1) + F(1, M)
            policy = DecompositionPolicy(max_terms=3, max_denominator=M)
            assert brute_force_decompositions(value, 3, M) == [(d, M - 1, M)]
            assert decompose(value, policy).denominators == (d, M - 1, M), (M, d)

    def test_deterministic(self):
        assert decompose(F(8, 11)) == decompose(F(8, 11))

    def test_bounds_exceeded(self):
        # a one-term form, of the value or of its rest after 2/3, past
        # max_denominator, and no longer form within the bounds
        for value in (F(1, 10001), F(2, 3) + F(1, 20000)):
            with pytest.raises(BoundsExceededError) as exc_info:
                decompose(value, DecompositionPolicy())
            err = exc_info.value
            assert err.max_terms == 4 and err.max_denominator == 10000
            assert "max_terms=4" in str(err) and "max_denominator=10000" in str(err)

    def test_readme_slow_values(self):
        # the values the README names, about 1 s each before the search
        # split off their large prime and milliseconds now: a 4-term form
        # found, and bounds that hold none
        assert decompose(F(5, 922)).render() == "1/210 + 1/2766 + 1/6454 + 1/6915"
        with pytest.raises(BoundsExceededError):
            decompose(F(5, 1993))

    def test_two_thirds_preferred_at_equal_length(self):
        u = decompose(F(9, 10))
        assert u.two_thirds
        plain = decompose(F(9, 10), DecompositionPolicy(allow_two_thirds=False))
        assert plain.denominators == (2, 3, 15)
        assert u.term_count == plain.term_count == 3

    def test_differential_against_oracle(self):
        # the pruned search must reproduce the naive contract verbatim,
        # tie-break sequence and the 2/3 preference included
        rng = random.Random(777)
        variants = [
            DecompositionPolicy(max_denominator=400),
            DecompositionPolicy(max_denominator=400, prefer_divisor_rich=False),
            DecompositionPolicy(max_denominator=400, allow_two_thirds=False),
            DecompositionPolicy(max_terms=3, max_denominator=300),
        ]
        for trial in range(200):
            value = F(rng.randint(1, 60), rng.randint(2, 60))
            value -= int(value)
            if value <= 0:
                continue
            policy = variants[trial % len(variants)]
            expected = oracle_best(value, policy)
            try:
                u = decompose(value, policy)
                got = (u.two_thirds, u.denominators)
            except BoundsExceededError:
                got = None
            assert got == expected, (value, policy)


def reference_divisors_upto(factors, limit):
    divs = [1]
    for p, e in factors.items():
        grown = []
        for d in divs:
            val = d
            for _ in range(e + 1):
                if val > limit:
                    break
                grown.append(val)
                val *= p
        divs = grown
    return divs


def reference_two_term_into(a, b, b_factors, d_min, max_den, prefix, best):
    """The two-term leaf before the divisor-pair rewrite, kept verbatim as the reference."""
    if 2 * b > a * max_den:
        return
    lo = max(d_min, b // a + 1, -(-b * max_den // (a * max_den - b)))
    hi = min(max_den, 2 * b // a)
    if lo > hi:
        return
    tau_sq = 1
    if b_factors is not None:
        for e in b_factors.values():
            tau_sq *= 2 * e + 1
    if b_factors is None or hi - lo + 1 <= tau_sq:
        for x in range(lo, hi + 1):
            e = a * x - b
            num = b * x
            if num % e == 0:
                y = num // e
                if x < y <= max_den:
                    best.offer(prefix + (x, y))
        return
    squared = {p: 2 * e for p, e in b_factors.items()}
    bb = b * b
    for e in reference_divisors_upto(squared, b):
        if (e + b) % a:
            continue
        e2 = bb // e
        if (e2 + b) % a:
            continue
        x = (e + b) // a
        y = (e2 + b) // a
        if x >= lo and y <= max_den and x != y:
            best.offer(prefix + (x, y))


class Offers:
    """Stands in for _BestCandidate and keeps every form offered that
    reaches its y_floor; _BestCandidate.offer drops the rest unread."""

    y_floor = 0

    def __init__(self):
        self.forms = []

    def offer(self, dens):
        if dens[-1] >= self.y_floor:
            self.forms.append(dens)


# primes up to isqrt(200): a leaf built from terms of at least 200 that
# are products of these has no prime p with p*p > max_den >= 200
SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def smooth_ints(draw, low, high):
    """An integer in [low, high] with no prime factor above 13; high >= 2*low."""
    n = 1
    while n < low:
        n *= draw(st.sampled_from([p for p in SMOOTH_PRIMES if n * p <= high]))
    return n


@st.composite
def leaves(draw, xs=(2, 3000), max_y=20000, bs=(2, 10**6), planted_edges=False, smooth=False):
    """(a, b, d_min, max_den) for a two-term leaf.

    Mostly a/b = 1/x + 1/y for a drawn pair, with d_min and max_den on,
    next to or away from x and y, so solutions sit on the window's edges;
    sometimes a plain a/b in lowest terms, which often has no solution.
    With planted_edges, d_min and max_den always sit at the pair's edges.
    With smooth, x, y and b have no prime factor above 13.
    """
    if draw(st.integers(0, 3)):
        if smooth:
            x = draw(smooth_ints(*xs))
            y = draw(smooth_ints(draw(st.integers(x + 1, max_y // 2)), max_y))
        else:
            x = draw(st.integers(*xs))
            y = draw(st.integers(x + 1, max_y))
        value = F(1, x) + F(1, y)
        max_dens = st.sampled_from([y, y - 1, y + 1, 2 * max_y])
        d_mins = st.sampled_from([x, x - 1, x + 1, 2])
        if not planted_edges:
            max_dens |= st.integers(2, 2 * max_y)
            d_mins |= st.integers(2, max_y)
        max_den, d_min = draw(max_dens), draw(d_mins)
    else:
        if smooth:
            b = draw(smooth_ints(draw(st.integers(bs[0], bs[1] // 2)), bs[1]))
        else:
            b = draw(st.integers(*bs))
        value = F(draw(st.integers(1, b - 1)), b)
        max_den = draw(st.integers(2, 2 * max_y))
        d_min = draw(st.integers(2, max_y))
    return value.numerator, value.denominator, max(d_min, 2), max(max_den, 2)


def leaf_forms(leaf, b_factors, *, reference=False, y_floor=0):
    """Every form the search's two-term level offers, and the path that
    ran: "pairs" when it took the divisor pairs, else "scan", an empty
    window included."""
    a, b, d_min, max_den = leaf
    offers = Offers()
    if reference:
        reference_two_term_into(a, b, b_factors, d_min, max_den, (7,), offers)
        return sorted(offers.forms), None
    offers.y_floor = y_floor
    with mock.patch.object(arith, "_divisors_between", wraps=arith._divisors_between) as spy:
        _Search(max_den, offers).node(a, b, b_factors, (7,), 2, d_min, 1, 1)
    return sorted(offers.forms), "pairs" if spy.called else "scan"


class TestTwoTermLeafAgainstReference:
    # the divisor-pair leaf must offer exactly the forms the replaced
    # divisor-of-b-squared leaf offered, on both sides of its switch to
    # the linear scan and with a factorisation cut short at max_den
    @given(leaves(xs=(200, 3000), planted_edges=True, smooth=True))
    @settings(max_examples=300, deadline=None)
    def test_divisor_pair_side(self, leaf):
        factors = _factorize_small(leaf[1])
        got, path = leaf_forms(leaf, factors)
        assume(path == "pairs")
        assert got == leaf_forms(leaf, factors, reference=True)[0]

    @given(leaves(smooth=True))
    @settings(max_examples=300, deadline=None)
    def test_scan_side(self, leaf):
        factors = _factorize_small(leaf[1])
        got, path = leaf_forms(leaf, factors)
        assume(path == "scan")
        assert got == leaf_forms(leaf, factors, reference=True)[0]

    @given(leaves(xs=(10**4, 3 * 10**4), max_y=4 * 10**4, bs=(10**8 + 1, 10**12)))
    @settings(max_examples=60, deadline=None)
    def test_unfactored_denominator(self, leaf):
        # past 10**8 the search factors a root's denominator only up to
        # max_den, so a cofactor may stand as one prime, and the leaf takes
        # whichever path its width picks
        assume(leaf[1] > 10**8)
        got = leaf_forms(leaf, _factorize_small(leaf[1], leaf[3]))[0]
        assert got == leaf_forms(leaf, _factorize_small(leaf[1]), reference=True)[0]

    def test_window_edges(self):
        # 1/x + 1/y with x and y coprime is the pair m = x, n = y, j = 1;
        # at max_den = y the lower end of the m window is x itself, and at
        # d_min = x the bound on j from x >= d_min is j itself. Prime
        # powers keep the primes of b small and its divisors few.
        for x, y in [(625, 4096), (1000, 6561), (1331, 4096), (2048, 6561)]:
            value = F(1, x) + F(1, y)
            leaf = (value.numerator, value.denominator, x, y)
            got, path = leaf_forms(leaf, _factorize_small(leaf[1]))
            assert path == "pairs" and (7, x, y) in got

    def test_divisor_count_records_match_a_sieve(self):
        limit = 20000
        counts = [0] * (limit + 1)
        for d in range(1, limit + 1):
            for multiple in range(d, limit + 1, d):
                counts[multiple] += 1
        most = [0] * (limit + 1)
        for n in range(1, limit + 1):
            most[n] = max(most[n - 1], counts[n])
        for max_den in (2, 3, 12, 37, 400, 5040, 5041, 10000, 20000):
            ns, record_counts = _divisor_count_records(max_den)
            assert ns[-1] <= max_den
            for n in range(1, max_den + 1):
                assert record_counts[bisect_right(ns, n) - 1] == most[n], (max_den, n)

    def test_huge_max_denominator_matches_oracle(self):
        # beyond 10**12 the divisor-count records stop; the bound may then
        # prune only below that, and answers stay those of the oracle
        policy = DecompositionPolicy(max_terms=3, max_denominator=10**40)
        for value in (F(4, 5), F(5, 6), F(7, 15), F(3, 7), F(8, 11)):
            u = decompose(value, policy)
            assert (u.two_thirds, u.denominators) == oracle_best(value, policy), value


def draw_floor(data, forms, max_den):
    """A y_floor on, next to or away from the largest denominators of forms."""
    anywhere = st.integers(0, 2 * max_den)
    near = [f[-1] + e for f in forms for e in (-1, 0, 1)]
    return data.draw(st.sampled_from(near) | anywhere if near else anywhere)


def floored(data, leaf, factors, near_last=False):
    """Check that under a drawn y_floor the leaf offers exactly the
    reference leaf's forms that reach it; return the path that ran. The
    floor is drawn near the largest denominators of the reference forms,
    or, with near_last, near that of the last form alone, the smallest."""
    forms = leaf_forms(leaf, _factorize_small(leaf[1]), reference=True)[0]
    y_floor = draw_floor(data, forms[-1:] if near_last else forms, leaf[3])
    got, path = leaf_forms(leaf, factors, y_floor=y_floor)
    assert got == [form for form in forms if form[-1] >= y_floor], y_floor
    return path


class TestIncumbentFloor:
    # Given the incumbent's y_floor, a leaf offers exactly the reference
    # leaf's forms whose largest denominator reaches it, on both sides of
    # the switch to the linear scan and with a factorisation cut short at
    # max_den.
    @given(leaves(xs=(200, 3000), planted_edges=True, smooth=True), st.data())
    @settings(max_examples=300, deadline=None)
    def test_divisor_pair_side(self, leaf, data):
        # The leaf is kept when it takes the divisor pairs with no floor.
        # A floor narrows the window, so the scan may run under it; one
        # near the smallest largest denominator mostly keeps the pairs.
        factors = _factorize_small(leaf[1])
        assume(leaf_forms(leaf, factors)[1] == "pairs")
        floored(data, leaf, factors, near_last=True)

    @given(leaves(smooth=True), st.data())
    @settings(max_examples=300, deadline=None)
    def test_scan_side(self, leaf, data):
        assume(floored(data, leaf, _factorize_small(leaf[1])) == "scan")

    @given(leaves(xs=(10**4, 3 * 10**4), max_y=4 * 10**4, bs=(10**8 + 1, 10**12)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unfactored_denominator(self, leaf, data):
        assume(leaf[1] > 10**8)
        floored(data, leaf, _factorize_small(leaf[1], leaf[3]))

    def test_y_floor_matches_a_sieve(self):
        # for every divisor count T up to n = 20000, the floor is the
        # smallest n with at least T divisors
        limit = 20000
        counts = [0] * (limit + 1)
        for d in range(1, limit + 1):
            for multiple in range(d, limit + 1, d):
                counts[multiple] += 1
        first = {}
        for n in range(1, limit + 1):
            for count in range(1, counts[n] + 1):
                first.setdefault(count, n)
        policy = DecompositionPolicy(max_denominator=limit)
        for n in range(1, limit + 1):
            best = _BestCandidate(policy)
            best.offer((n,))
            assert best.y_floor == first[counts[n]], n

    def test_y_floor_follows_the_best(self):
        best = _BestCandidate(DecompositionPolicy(max_denominator=100))
        assert best.y_floor == 0
        best.offer((2, 7))  # 2 divisors: any n >= 2 ties
        assert best.y_floor == 2
        best.offer((3, 12))  # 6 divisors
        assert best.y_floor == 12
        best.offer((4, 11))  # loses, the floor stays
        assert best.y_floor == 12
        best.offer((5, 60))  # 12 divisors
        assert best.y_floor == 60

    def test_y_floor_past_the_records(self):
        # the search offers nothing past max_denominator; a count no n up
        # to the record limit reaches puts the floor just past that limit
        best = _BestCandidate(DecompositionPolicy(max_denominator=12))
        best.offer((5040,))
        assert best.y_floor == 13

    def test_y_floor_without_the_divisor_rich_order(self):
        best = _BestCandidate(DecompositionPolicy(prefer_divisor_rich=False))
        best.offer((2, 60))
        assert best.y_floor == 0

    def test_offer_below_the_floor_factors_nothing(self):
        # a largest term below y_floor has fewer divisors than the best's,
        # so offer drops the form before it factors that term
        best = _BestCandidate(DecompositionPolicy(max_denominator=100))
        best.offer((5, 60))
        with mock.patch.object(arith, "_factorize_small", wraps=arith._factorize_small) as factor:
            best.offer((3, 59))
            best.offer((2, 4, 48))
        factor.assert_not_called()
        assert (best.key[-1], best.y_floor) == ((5, 60), 60)


# the primes from 23 to 400: a planted leaf's terms stay below 40000
LARGE_PRIMES = tuple(p for p in range(23, 400) if all(p % q for q in range(2, math.isqrt(p) + 1)))


@st.composite
def large_prime_leaves(draw, square=False):
    """A leaf whose denominator may hold a prime p with p*p > max_den.

    a/b = 1/x + 1/y with p dividing y only, x only, or both, and d_min and
    max_den on, next to or away from x and y; max_den reaches p*p + 1 at
    most. With square, b = p*p*m for m < 23, so p is b's largest prime,
    and max_den < p*p, so a/b has no form.
    """
    p = draw(st.sampled_from(LARGE_PRIMES))
    top = min(p * p, 40000)
    if square:
        b = p * p * draw(st.integers(1, 22))
        max_den = draw(st.integers(2 * p, min(p * p - 1, top)))
        # 2b/a <= max_den <= 4b/a, roughly, so the window is rarely empty
        a = draw(st.integers(-(-2 * b // max_den), 4 * b // max_den + 4))
        while math.gcd(a, b) > 1:
            a += 1
        d_min = draw(st.sampled_from([2]) | st.integers(2, max_den))
        return a, b, d_min, max_den
    planted = draw(st.integers(2 * p, top))
    side = draw(st.sampled_from(["y", "x", "both"]))
    if side == "y":
        y = p * draw(st.integers(1, planted // p))
        x = draw(st.integers(2, y - 1))
        if x % p == 0:
            x -= 1
    elif side == "x":
        x = p * draw(st.integers(1, planted // p - 1))
        y = draw(st.integers(x + 1, planted))
        if y % p == 0:  # then y >= x + p
            y -= 1
    else:
        k = draw(st.integers(2, planted // p))
        x, y = p * draw(st.integers(1, k - 1)), p * k
    value = F(1, x) + F(1, y)
    max_den = draw(st.sampled_from([y, y - 1, y + 1, top]) | st.integers(2, top))
    d_min = draw(st.sampled_from([x, x - 1, x + 1, 2]) | st.integers(2, y))
    return value.numerator, value.denominator, max(d_min, 2), max(max_den, 2)


class TestLargePrimeLeaf:
    # A leaf whose denominator has a prime p with p*p > max_den, which the
    # search splits off a level higher, still offers exactly the reference
    # leaf's forms that reach the incumbent's y_floor.
    @given(large_prime_leaves(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_planted_forms(self, leaf, data):
        floored(data, leaf, _factorize_small(leaf[1]))

    @given(large_prime_leaves(square=True))
    @settings(max_examples=100, deadline=None)
    def test_square_of_the_prime_offers_nothing(self, leaf):
        factors = _factorize_small(leaf[1])
        assert leaf_forms(leaf, factors)[0] == [] == leaf_forms(leaf, factors, reference=True)[0]

    def test_each_side_of_the_prime(self):
        # 1/x + 1/y for p = 101 and max_den = 5000 < p*p: only y, only x,
        # and both terms multiples of p
        for x, y in [(60, 4848), (202, 303), (404, 4998), (1010, 4040)]:
            value = F(1, x) + F(1, y)
            leaf = (value.numerator, value.denominator, 2, 5000)
            got = leaf_forms(leaf, _factorize_small(leaf[1]))[0]
            assert (7, x, y) in got, (x, y)
            assert got == leaf_forms(leaf, _factorize_small(leaf[1]), reference=True)[0]

    def test_square_of_the_prime_at_max_den(self):
        # at max_den = p*p the term p*p is allowed
        value = F(1, 10) + F(1, 101 * 101)
        leaf = (value.numerator, value.denominator, 2, 101 * 101)
        got = leaf_forms(leaf, _factorize_small(leaf[1]))[0]
        assert (7, 10, 10201) in got
        assert got == leaf_forms(leaf, _factorize_small(leaf[1]), reference=True)[0]


def reference_three_term(a, b, factors, d_min, max_den, path, best):
    """The three-term level of the search before the large-prime split,
    kept verbatim as the reference, over the reference leaf."""
    leaf_den_cap = max_den * (max_den - 1)
    lo = max(d_min, -(-b // a))
    hi = min(max_den, 3 * b // a)
    slack = a * max_den - 2 * b
    if slack <= 0:
        return
    lo = max(lo, -(-b * max_den // slack))
    for d in range(lo, hi + 1):
        na, nb = a * d - b, b * d
        if na <= 0:
            continue
        s_num, s_den = 1, d + 1
        if nb * s_den < best.y_floor * (na * s_den - nb * s_num):
            break
        g = math.gcd(na, nb)
        if g > 1:
            na //= g
            nb //= g
        if nb > leaf_den_cap:
            continue
        child = None
        if factors is not None:
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
        reference_two_term_into(na, nb, child, d + 1, max_den, path + (d,), best)


# the primes from 23 to 113: the reference level's window, and so its
# cost, grows with max_den < 3*p*p
SPLIT_PRIMES = tuple(p for p in LARGE_PRIMES if p <= 113)


@st.composite
def three_term_nodes(draw):
    """(a, b, d_min, max_den) for a three-term level whose denominator
    mostly holds a prime p with p*p > max_den, or with
    p*p <= max_den < 3*p*p.

    Mostly a/b = 1/x + 1/y + 1/z with one, two or three of the terms
    multiples p*k of p, k <= K = max_den // p. max_den runs from p (K = 1)
    to p*p - 1, or, in one draw in three, from p*p (K = p) to 3*p*p - 1,
    where a residue class mod p holds up to three k. One draw in six takes
    2*K > p and plants three k with a pair that sums to p; one in six
    plants two consecutive k (often K - 1 and K) and a smaller third term;
    one in six with K > p plants two k of one residue class; the rest
    plant any k, and put the other terms below or above the multiples of
    p. d_min sits on, next to or away from the smallest term and each
    multiple of p.
    Sometimes a plain a/b with b = p*m or p*p*m for m < 23, so p is b's
    largest prime; the second has no form when p*p > max_den.
    """
    p = draw(st.sampled_from(SPLIT_PRIMES))
    kind = draw(st.integers(0, 5))
    if draw(st.integers(0, 2)) == 0:
        max_den = draw(st.sampled_from([p * p, 3 * p * p - 1]) | st.integers(p * p, 3 * p * p - 1))
    elif kind == 1:
        # two of the k sum to p, so 2*K > p and p*p <= 2*max_den
        max_den = draw(st.integers((p * p + 1) // 2 + p, p * p - 1))
    else:
        max_den = draw(st.sampled_from([p, 2 * p - 1, p * p - 1]) | st.integers(p, p * p - 1))
    K = max_den // p
    if kind == 0:
        b = p * draw(st.integers(1, 22)) * (p if draw(st.booleans()) else 1)
        # 2b/a <= max_den <= 6b/a, roughly, so the window is rarely empty
        a = draw(st.integers(-(-2 * b // max_den), 6 * b // max_den + 6))
        while math.gcd(a, b) > 1:
            a += 1
        value = F(a, b)
        assume(value < 1)
        edges = [2]
    else:
        consecutive = kind == 2 and K >= 2
        if kind == 1:
            ka = draw(st.integers(max(1, p - K), min(K, p - 1)))
            ks = [draw(st.integers(1, K)), ka, p - ka]
        elif consecutive:
            k1 = draw(st.sampled_from([K - 1]) | st.integers(1, K - 1))
            ks = [k1, k1 + 1]
        elif kind == 3 and K > p:
            k1 = draw(st.integers(1, K - p))
            ks = [k1, k1 + p * draw(st.integers(1, (K - k1) // p))]
        else:
            size = draw(st.integers(1, min(3, K)))
            ks = draw(st.lists(st.integers(1, K), min_size=size, max_size=size, unique=True))
        multiples = [p * k for k in ks]
        top = min(multiples) - 1 if consecutive or draw(st.booleans()) else max_den
        others = []
        for _ in range(3 - len(ks)):
            x = draw(st.integers(2, top))
            others.append(x - 1 if x % p == 0 else x)
        terms = sorted(multiples + others)
        assume(len(set(terms)) == 3)
        value = sum(F(1, t) for t in terms)
        if consecutive:
            # d_min on the third term, the smallest, puts the top of the
            # k1 window of the split's two-multiple sets on k1
            edges = [terms[0], terms[0] - 1]
        else:
            edges = [terms[0] + e for e in (-1, 0, 1)] + [x + e for x in multiples for e in (-1, 0, 1)]
    d_min = draw(st.sampled_from(edges) | st.integers(2, max_den))
    return value.numerator, value.denominator, max(d_min, 2), max_den


def three_term_forms(node, *, reference=False, y_floor=0):
    """Every form a three-term level offers under a fixed y_floor."""
    a, b, d_min, max_den = node
    offers = Offers()
    offers.y_floor = y_floor
    factors = _factorize_small(b)
    if reference:
        reference_three_term(a, b, factors, d_min, max_den, (7,), offers)
    else:
        _Search(max_den, offers).node(a, b, factors, (7,), 3, d_min, 1, 1)
    return sorted(offers.forms)


def takes_the_split(node):
    """Whether the three-term level splits, or ends at once: some prime p
    of b, with q = p**e dividing b exactly and L = max_den // (p*q), has
    L <= 2 and 2*L < p."""
    max_den = node[3]
    for p, e in _factorize_small(node[1]).items():
        L = max_den // p ** (e + 1)
        if L <= 2 and 2 * L < p:
            return True
    return False


class TestThreeTermSplit:
    # A three-term level whose denominator has a prime p with p*p >
    # max_den, or dividing it once with L = max_den // (p*p) <= 2 and
    # 2*L < p, is solved by the set of its terms that p divides, and offers
    # exactly the reference level's forms that reach the incumbent's
    # y_floor, each once. TestPrimePowerSplit covers p dividing it more
    # than once.
    @given(three_term_nodes(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_planted_forms(self, node, data):
        assume(takes_the_split(node))
        forms = three_term_forms(node, reference=True)
        y_floor = draw_floor(data, forms, node[3])
        got = three_term_forms(node, y_floor=y_floor)
        assert got == [form for form in forms if form[-1] >= y_floor], y_floor

    def test_each_size_of_the_set(self):
        # p = 101 and max_den = 10000: one, two and three multiples of p,
        # and three whose pair 40 + 61 = 101 makes the rest of the set
        # {20} offer the form again, as 1/4040 + 1/6161 = 1/2440. Then
        # p = 61 with K = 163 > p: 1/183 + 1/3904 = 1/(61*3) + 1/(61*64)
        # with 64 = 3 mod 61 takes the second k of its class, and so does
        # a lone 1/4331 = 1/(61*71) with 71 = 10 mod 61.
        for terms in [(30, 707, 4000), (60, 202, 303), (505, 909, 1010), (2020, 4040, 6161),
                      (11, 183, 3904), (10, 20, 4331)]:
            value = sum(F(1, t) for t in terms)
            node = (value.numerator, value.denominator, 2, 10000)
            assert takes_the_split(node), terms
            got = three_term_forms(node)
            assert (7,) + tuple(sorted(terms)) in got and len(set(got)) == len(got)
            assert got == three_term_forms(node, reference=True), terms

    def test_loop_kept(self):
        # The level keeps its loop when a set of k may hold multiples of
        # p. At p = 3 and L = 2, 9 = 3*3*1 and 18 = 3*3*2 have
        # j1 + j2 = 3 = 0 mod p, so they stand in the sets {3, 6} of
        # 5/12 = 1/4 + 1/9 + 1/18 and {3, 6, 8} of 5/24 = 1/9 + 1/18 +
        # 1/24, which the split's pairs would offer a second time. In
        # 103/300 = 1/3 + 1/125 + 1/500, 300 = 2*2*3*5*5 with L = 500 //
        # 5**3 = 4, and two terms hold 5*5*5, more of 5 than 300 holds,
        # with j1 + j2 = 1 + 4 = 0 mod 5. A split with 2*L >= p would offer
        # 1/4 = 1/8 + 1/16 + 1/16 (p = 2, q = 4, L = 2) with its term
        # repeated, and 1/3 = 1/6 + 1/9 + 1/18 at max_den 19 (p = 3, L = 2)
        # twice. With L = 3, 1/66 = 1/121 + 1/242 + 1/363 holds three
        # multiples of p = 11, as 1 + 1/2 + 1/3 = 0 mod 11, and a split
        # would offer it more than once.
        for node, form in [((5, 12, 2, 18), (7, 4, 9, 18)), ((5, 24, 2, 24), (7, 9, 18, 24)),
                           ((103, 300, 2, 500), (7, 3, 125, 500)), ((1, 4, 2, 16), (7, 10, 12, 15)),
                           ((1, 3, 2, 19), (7, 6, 9, 18)), ((1, 66, 2, 363), (7, 121, 242, 363))]:
            assert not takes_the_split(node)
            got = three_term_forms(node)
            assert form in got
            assert got == three_term_forms(node, reference=True)

    def test_square_of_the_prime_offers_nothing(self):
        # 7/(2*101*101) passes the slack check, and no child is built
        node = (7, 2 * 101 * 101, 2, 10000)
        with mock.patch.object(_Search, "node", autospec=True, side_effect=_Search.node) as spy:
            assert three_term_forms(node) == []
        assert spy.call_count == 1
        assert three_term_forms(node, reference=True) == []

    def test_narrow_leaves_build_no_factors(self):
        # The level reads its own factors once. Every leaf of 2/25 at
        # max_den = 1000 has hi - lo <= 168, so each scans without its
        # denominator's factors; at max_den = 2000 one of its 24 leaves has
        # hi - lo = 261 and builds them, once.
        assert 168 < arith._SCAN_WIDTH <= 261
        for node, calls in [((2, 25, 2, 1000), 0), ((2, 25, 2, 2000), 1)]:
            with mock.patch.object(arith, "_child_factors", wraps=arith._child_factors) as child:
                got = three_term_forms(node)
            assert child.call_count == 1 + calls, node
            assert got and got == three_term_forms(node, reference=True)


# (p, e) with e >= 2 and q = p**e <= 10000
PRIME_POWERS = tuple((p, e) for p in range(2, 101) if all(p % r for r in range(2, math.isqrt(p) + 1))
                     for e in range(2, 14) if p**e <= 10000)
# those whose next power p*q fits under 20000, with p > 2 so that L = 1
# has 2*L < p
NEXT_POWERS = tuple((p, e) for p, e in PRIME_POWERS if p > 2 and p ** (e + 1) < 20000)


@st.composite
def prime_power_nodes(draw):
    """(a, b, d_min, max_den) for a three-term level whose denominator
    mostly holds q = p**e exactly, e >= 2, with q <= max_den < p*q, so
    K = max_den // q < p, or, in one draw in three, with p*q <= max_den <
    3*p*q and L = max_den // (p*q) at most 2 and below p/2, so K >= p;
    max_den stays below 20000.

    Mostly a/b = 1/x + 1/y + 1/z with one, two or three of the terms
    multiples q*k; when K >= p, in one draw in two the first k is p*j
    for j <= L, a term holding more of p than q. Each other term is a multiple
    of a lower power of p in one draw in two, else any value, and is kept
    off the multiples of q, below the smallest q*k in one draw in two.
    d_min sits on, next to or away from the smallest term and each q*k,
    and below the largest term the level may take. In one draw in six a
    plain a/b with b = q*m for m < 23, where a multiple m of p puts a
    power of p past max_den in b, which leaves no form, or one whose next
    power still fits.
    """
    if draw(st.integers(0, 2)) == 0:
        p, e = draw(st.sampled_from(NEXT_POWERS))
        q = p**e
        low, top = p * q, min((min(2, (p - 1) // 2) + 1) * p * q - 1, 19999)
    else:
        p, e = draw(st.sampled_from(PRIME_POWERS))
        q = p**e
        low, top = q, min(p * q - 1, 19999)
    max_den = draw(st.sampled_from([low, top]) | st.integers(low, top))
    K = max_den // q
    if draw(st.integers(0, 5)) == 0:
        b = q * draw(st.integers(1, 22))
        a = draw(st.integers(-(-2 * b // max_den), 6 * b // max_den + 6))
        while math.gcd(a, b) > 1:
            a += 1
        value = F(a, b)
        edges = [2]
    else:
        size = draw(st.integers(1, min(3, K)))
        ks = draw(st.lists(st.integers(1, K), min_size=size, max_size=size, unique=True))
        if K >= p and draw(st.booleans()):
            ks[0] = p * draw(st.integers(1, K // p))
        multiples = [q * k for k in ks]
        top = min(multiples) - 1 if draw(st.booleans()) else max_den
        others = []
        for _ in range(3 - size):
            f = draw(st.integers(1, e - 1))
            if p**f <= top and draw(st.booleans()):
                x = p**f * draw(st.integers(1, top // p**f))
                others.append(x - p**f if x % q == 0 else x)
            else:
                x = draw(st.integers(2, max(top, 2)))
                others.append(x - 1 if x % q == 0 else x)
        terms = sorted(multiples + others)
        assume(len(set(terms)) == 3 and terms[0] >= 2)
        value = sum(F(1, t) for t in terms)
        edges = [terms[0] + e for e in (-1, 0, 1)] + [x + e for x in multiples for e in (-1, 0, 1)]
    # no term exceeds 3*b/a
    d_min = draw(st.sampled_from(edges) | st.integers(2, max(2, min(max_den, int(3 / value)))))
    return value.numerator, value.denominator, max(d_min, 2), max_den


def split_qs(monkeypatch):
    """The list that the q of each _Search.split call goes to from now on."""
    split = arith._Search.split
    qs = []

    def counted(self, a, b, factors, p, q, path, d_min):
        qs.append(q)
        split(self, a, b, factors, p, q, path, d_min)

    monkeypatch.setattr(arith._Search, "split", counted)
    return qs


def golden_draw_mismatches(draws):
    """The recorded [value, max_terms, max_den, two_thirds, rendered] rows
    that decompose no longer renders the same."""
    mismatches = []
    for value, max_terms, max_den, two_thirds, recorded in draws:
        policy = DecompositionPolicy(max_terms=max_terms, max_denominator=max_den, allow_two_thirds=two_thirds)
        try:
            u = decompose(F(value), policy)
        except BoundsExceededError:
            got = "BoundsExceededError"
        else:
            got = u.render()
            assert u.value() == F(value)
        if got != recorded:
            mismatches.append((value, policy, recorded, got))
    return mismatches


class TestPrimePowerSplit:
    # A three-term level whose denominator holds q = p**e exactly with
    # q <= max_den < p*q, or with L = max_den // (p*q) at most 2 and 2*L
    # < p, is solved by the set of its terms that q divides, while the
    # terms holding a lower power of p stay in the leaves, and offers
    # exactly the reference level's forms that reach the incumbent's
    # y_floor, each once. A q past max_den leaves no form.
    @given(prime_power_nodes(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_planted_forms(self, node, data):
        assume(takes_the_split(node))
        forms = three_term_forms(node, reference=True)
        y_floor = draw_floor(data, forms, node[3])
        got = three_term_forms(node, y_floor=y_floor)
        assert got == [form for form in forms if form[-1] >= y_floor], y_floor

    def test_fixed_nodes(self):
        # 89339/260470 = 1/5 + 1/7 + 1/7442 with 260470 = 2*5*7*61*61 and
        # 61**3 > 10000, where 7442 = 2*61*61 holds q; 1/841, the rest of
        # 2/841 after 1/841, is 1/1682 + 1/2523 + 1/5046, three multiples
        # of q = 29*29; 1/10 + 1/11 + 1/7203 with 7203 = 3*7**4 beside
        # terms free of 7, and 1/49 + 1/686 + 1/2401 with the lower powers
        # 7*7 and 2*7**3 beside q = 7**4.
        for node, form in [((89339, 260470, 2, 10000), (7, 5, 7, 7442)),
                           ((1, 841, 842, 10000), (7, 1682, 2523, 5046)),
                           ((151373, 792330, 2, 10000), (7, 10, 11, 7203)),
                           ((107, 4802, 2, 10000), (7, 49, 686, 2401))]:
            assert takes_the_split(node), node
            got = three_term_forms(node)
            assert form in got and len(set(got)) == len(got), node
            assert got == three_term_forms(node, reference=True), node

    def test_one_member_sets_step_by_p_times_q(self):
        # The sets of one k run one leaf per k = k0 mod p. For q = 7**4 in
        # 151373/792330, K = 4 < 7 holds k0 = 3 alone: the term 7203. In
        # 1/10 + 1/20 + 1/4331 = 13013/(2*2*5*61*71), the split takes the
        # larger prime, p = q = 71 with K = 140 > p, and k0 = 61: the terms
        # 71*61 and 71*132.
        for node, terms in [((151373, 792330, 2, 10000), [7203]),
                            ((13013, 86620, 2, 10000), [4331, 9372])]:
            with mock.patch.object(arith, "_Merged", wraps=arith._Merged) as merged:
                three_term_forms(node)
            assert [call.args[2] for call in merged.call_args_list] == terms, node

    def test_pairs_drop_a_rest_that_q_divides(self):
        # At p = 5 and L = 2 the pair k1 = 5, k2 = 10 leaves the rest
        # 1/(q*5), the term q*k1 again: 1/10 = 1/25 + 1/50 + 1/25 (q = 5,
        # max_den 50-74), 1/50 = 1/125 + 1/250 + 1/125 (q = 25) and so on.
        # The split offers no such form, and each of its forms once.
        for node in [(1, 10, 2, 60), (1, 50, 2, 374), (1, 250, 2, 1874)]:
            assert takes_the_split(node), node
            got = three_term_forms(node)
            assert all(len(set(form)) == 4 for form in got) and len(set(got)) == len(got), node
            assert got == three_term_forms(node, reference=True), node

    def test_power_past_max_den_offers_nothing(self):
        # 17**4 = 83521 > 10000 divides 3/(2*17**4): no term holds it
        node = (3, 2 * 17**4, 2, 10000)
        with mock.patch.object(arith, "_Merged", wraps=arith._Merged) as merged:
            assert three_term_forms(node) == []
        merged.assert_not_called()
        assert three_term_forms(node, reference=True) == []

    def test_power_past_max_den_ends_every_search_at_its_root(self):
        # 1671/167042 = 1671/(2*17**4): the four-term root, like the
        # three-term one, ends before it builds a child
        assert node_term_counts(F(1671, 167042), DEFAULT_POLICY) == [2, 3, 4]

    def test_largest_qualifying_power_splits(self):
        # 454997/50964600 = 1/120 + 1/2523 + 1/5050, where b holds 101 once
        # and 29*29: both have L = 0, and the split takes the larger q =
        # 841, whose one-member sets hold the single term 2523 = 3*841
        v = F(1, 120) + F(1, 2523) + F(1, 5050)
        node = (v.numerator, v.denominator, 2, 10000)
        assert (v.numerator, v.denominator) == (454997, 50964600)
        with mock.patch.object(arith, "_Merged", wraps=arith._Merged) as merged:
            got = three_term_forms(node)
        assert [call.args[1:3] for call in merged.call_args_list] == [(841, 2523)]
        assert (7, 120, 2523, 5050) in got
        assert got == three_term_forms(node, reference=True)

    def test_golden_table_rows(self):
        # the rows 2/n for odd n = 301..999, recorded before the split
        # reached prime powers such as 841 = 29*29 and 961 = 31*31
        rows = GOLDEN["prime_power"]["table"]
        assert list(rows) == [str(n) for n in range(301, 1000, 2)]
        assert {n: decompose(F(2, int(n)), TABLE_POLICY).render() for n in rows} == rows

    def test_golden_draws(self):
        # the seeded values a/b with b = p**e * s and p**(e+1) > max_den of
        # tests/record_decompose_golden.py, each under its recorded policy
        draws = GOLDEN["prime_power"]["draws"]
        assert len(draws) == 200
        assert golden_draw_mismatches(draws) == []

    def test_golden_next_power_draws(self):
        # the seeded values a/b with b = q * s for q = 17**2, 19**2 and 3**7 at
        # max_den = 10**4, where a term may hold one more p than b does
        draws = GOLDEN["next_power"]
        assert len(draws) == 72
        assert golden_draw_mismatches(draws) == []

    def test_named_values(self):
        # each took seconds before the split reached prime powers
        assert decompose(F(2, 841), TABLE_POLICY).render() == "1/841 + 1/1682 + 1/2523 + 1/5046"
        assert decompose(F(2, 961)).render() == "1/558 + 1/5766 + 1/8649"
        for value in (F(25, 4913), F(22, 3481)):
            with pytest.raises(BoundsExceededError):
                decompose(value)

    def test_next_power_named_values(self):
        # q = 17**2, 19**2 and 3**7 at max_den = 10**4, where p*q <= max_den
        # lets a term hold one more p than b does; recorded before the
        # split reached them, when they took 1-50 ms
        assert decompose(F(38, 289)).render() == "1/8 + 1/160 + 1/8160 + 1/8670"
        assert decompose(F(7, 361)).render() == "1/57 + 1/722 + 1/2166"
        assert decompose(F(100, 2187)).render() == "1/24 + 1/288 + 1/2187 + 1/7776"

    def test_next_power_splits(self, monkeypatch):
        # Every three-term level of 38/289 keeps 17**2 = 289 in its
        # denominator, with L = 10000 // 17**3 = 2, and splits on it: 16
        # levels. A gate that splits only on primes dividing b once
        # leaves them all to the loop.
        qs = split_qs(monkeypatch)
        assert decompose(F(38, 289)).render() == "1/8 + 1/160 + 1/8160 + 1/8670"
        assert qs == [289] * 16

    def test_next_power_fixed_nodes(self):
        # 7/361 = 1/57 + 1/722 + 1/2166 holds q = 19*19 with K = 27 > 19:
        # 722 = 361*2 and 2166 = 361*6, beside 57 = 3*19; at max_den =
        # 14000, L = 2 and a term may hold 19**3 = 6859. 1/10 + 1/2187 +
        # 1/8748 = 1/10 + 1/3**7 + 1/(4*3**7) has the denominator
        # 2*2*5*3**7, L = 1 and K = 4, so the k run past the multiple 3.
        v = F(1, 10) + F(1, 2187) + F(1, 8748)
        assert v.denominator == 4 * 5 * 3**7
        for node, form in [((7, 361, 2, 10000), (7, 57, 722, 2166)),
                           ((7, 361, 2, 14000), (7, 57, 722, 2166)),
                           ((v.numerator, v.denominator, 2, 10000), (7, 10, 2187, 8748))]:
            assert takes_the_split(node), node
            got = three_term_forms(node)
            assert form in got and len(set(got)) == len(got), node
            assert got == three_term_forms(node, reference=True), node


def is_prime(n):
    return n > 1 and all(n % r for r in range(2, math.isqrt(n) + 1))


def node_term_counts(value, policy):
    """The term count of each _Search.node call while decompose finds that
    value has no form under policy."""
    with mock.patch.object(_Search, "node", autospec=True, side_effect=_Search.node) as node:
        with pytest.raises(BoundsExceededError):
            decompose(value, policy)
    return [call.args[5] for call in node.call_args_list]


class TestRootFactors:
    # A root's factors come from trial division up to max_den, where a node
    # first reads them; a cofactor left over stands as one prime past
    # max_den, which ends every node of three or more terms.
    def test_bounded_factorisation(self):
        _factorize_small.cache_clear()
        assert _factorize_small(943298826470, 2692) == {2: 1, 5: 1, 7: 1, 11: 3, 13: 1, 337: 1, 2311: 1}
        # 10007 and 10009 are both past the bound: their product stands alone
        assert _factorize_small(6 * 10007 * 10009, 100) == {2: 1, 3: 1, 10007 * 10009: 1}
        # a prime on the bound is still tried
        assert _factorize_small(6 * 10007 * 10009, 10007) == {2: 1, 3: 1, 10007: 1, 10009: 1}
        # a cut-short result is cached under its own bound only
        assert _factorize_small(101 * 103, 50) == {101 * 103: 1}
        assert _factorize_small(101 * 103) == {101: 1, 103: 1}

    def test_named_value(self, monkeypatch):
        # b = 2*5*7*11**3*13*337*2311: the three-term levels below the root
        # split, 740 of them, which took 16-20 s with no root factors
        qs = split_qs(monkeypatch)
        policy = DecompositionPolicy(max_terms=4, max_denominator=2692)
        got = decompose(F(3198680227, 943298826470), policy)
        assert got.render() == "1/674 + 1/910 + 1/2311 + 1/2662"
        assert len(qs) == 740

    def test_cofactor_past_max_den_ends_at_the_root(self):
        # 100003*1009 holds no prime up to 1000, so nothing fits: the
        # search at two, three and four terms is one node each
        policy = DecompositionPolicy(max_terms=4, max_denominator=1000)
        assert node_term_counts(F(7, 2 * 3 * 100003 * 1009), policy) == [2, 3, 4]

    def test_root_past_ten_to_the_eight_is_factored(self):
        # b = 10**8 + 1 = 17*5882353 and the prime b = 10**9 + 7, each with
        # max_den past 10**4: the prime past max_den ends each search at
        # its root. The last two ran for minutes when a root with
        # min(max_den, sqrt(b)) past 10**4 was searched without its factors.
        for a, b, max_den in [(20001, 10**8 + 1, 2 * 10**4), (999999, 10**9 + 7, 10**6),
                              (12345, 10**9 + 7, 10**6)]:
            policy = DecompositionPolicy(max_terms=4, max_denominator=max_den)
            assert node_term_counts(F(a, b), policy) == [2, 3, 4], a

    def test_empty_window_factors_nothing(self):
        # 3/(10**15 + 37) at max_den = 10**7 leaves every root's window
        # empty, so its denominator, whose factoring takes 0.8-0.9 s, is
        # never factored
        b = 10**15 + 37
        policy = DecompositionPolicy(max_terms=4, max_denominator=10**7)
        with mock.patch.object(arith, "_factorize_small", wraps=arith._factorize_small) as factor:
            assert node_term_counts(F(3, b), policy) == [2, 3, 4]
        assert b not in [call.args[0] for call in factor.call_args_list]

    def test_matches_the_fully_factored_search(self):
        # Seeded a/b past 10**8 as the sum of three terms up to 500-2000 or
        # four up to 100-300, and in every second pair of draws with b
        # times a prime past max_den, which leaves no form. Each runs at
        # two terms up to its own count, against the search given b's
        # complete factors, and at up to three terms against the reference
        # levels with no factors; all offer the same forms.
        rng = random.Random(2024)
        found = 0
        for i in range(40):
            t = 3 + i % 2
            while True:
                max_den = rng.randint(500, 2000) if t == 3 else rng.randint(100, 300)
                v = sum(F(1, x) for x in rng.sample(range(2, max_den + 1), t))
                if i // 2 % 2:
                    prime = rng.randint(max_den + 1, 3 * max_den)
                    while not is_prime(prime) or v.numerator % prime == 0:
                        prime += 1
                    v = F(v.numerator, v.denominator * prime)
                if v < 1 and v.denominator > 10**8:
                    break
            a, b = v.numerator, v.denominator
            for k in range(2, t + 1):
                root, complete = Offers(), Offers()
                _Search(max_den, root).node(a, b, {}, (), k, 2, b, 1)
                _Search(max_den, complete).node(a, b, _factorize_small(b), (), k, 2, 1, 1)
                assert sorted(root.forms) == sorted(complete.forms), (v, k, max_den)
                if k <= 3:
                    reference = Offers()
                    level = reference_two_term_into if k == 2 else reference_three_term
                    level(a, b, None, 2, max_den, (), reference)
                    assert sorted(root.forms) == sorted(reference.forms), (v, k, max_den)
                found += bool(root.forms)
        assert found == 20


def test_searches_mutate_no_cached_factorisation(monkeypatch):
    # The cache hands every caller the same dict. Every factorisation
    # that searches which split and take divisor pairs read is, after
    # them, what it was when it was handed out, and still the cached one.
    factorize = arith._factorize_small
    handed = []

    def recorded(n, bound=None):
        out = factorize(n, bound)
        handed.append((n, bound, out, dict(out)))
        return out

    monkeypatch.setattr(arith, "_factorize_small", recorded)
    qs = split_qs(monkeypatch)
    with mock.patch.object(arith, "_divisors_between", wraps=arith._divisors_between) as pairs:
        for value, policy in [(F(2, 841), TABLE_POLICY), (F(38, 289), DEFAULT_POLICY),
                              (F(965, 874), DEFAULT_POLICY), (F(5, 922), DEFAULT_POLICY)]:
            decompose(value, policy)
    assert qs and pairs.called and handed
    for n, bound, out, snapshot in handed:
        assert out == snapshot and factorize(n, bound) is out, (n, bound)


def reference_greedy(f):
    """The Fraction loop the integer greedy replaced, kept as the reference."""
    dens = []
    while f > 0:
        d = -(-f.denominator // f.numerator)
        dens.append(d)
        f -= F(1, d)
    return dens


@given(st.integers(1, 2000), st.integers(2, 2000))
@settings(max_examples=300, deadline=None)
def test_integer_greedy_matches_fraction_loop(a, b):
    f = F(a, b) - a // b
    assume(f > 0)
    assert _greedy_unit_denominators(f.numerator, f.denominator) == reference_greedy(f)


# The Fraction front end that decompose and UnitFractionSum.value replaced
# with integer pairs, kept as the reference (greedy on the Fraction loop).
REFERENCE_TWO_THIRDS = F(2, 3)


def reference_greedy_strategy(f, allow_two_thirds):
    if allow_two_thirds and f >= REFERENCE_TWO_THIRDS:
        return True, reference_greedy(f - REFERENCE_TWO_THIRDS)
    return False, reference_greedy(f)


def reference_splitting_strategy(f, allow_two_thirds):
    if f.numerator == 1:
        return False, [f.denominator]
    if allow_two_thirds and f == REFERENCE_TWO_THIRDS:
        return True, []
    half = reference_greedy(f / 2)
    return False, resolve_duplicates(half, half)


def reference_decompose(r, policy):
    if r <= 0:
        raise ValueError(f"can only decompose positive values, got {r}")
    integer_part = int(r)
    f = r - integer_part
    if f == 0:
        return UnitFractionSum(integer_part)
    strategy = reference_greedy_strategy if policy.strategy == GREEDY else reference_splitting_strategy
    marker, dens = strategy(f, policy.allow_two_thirds)
    return UnitFractionSum(integer_part, marker, tuple(dens))


def reference_value(u):
    total = F(u.integer_part)
    if u.two_thirds:
        total += REFERENCE_TWO_THIRDS
    for d in u.denominators:
        total += F(1, d)
    return total


@st.composite
def front_end_values(draw):
    # a whole part and a proper fraction: random, on or next to 2/3, a unit
    # fraction, or an even or odd numerator over an odd denominator (which
    # keeps the numerator's parity in lowest terms); or a whole number
    whole = draw(st.sampled_from([0, 0, 1, 2, 7, 10**12]))
    kind = draw(st.sampled_from(["random", "near_two_thirds", "unit", "even", "odd", "whole"]))
    if kind == "whole":
        return F(max(whole, 1))
    b = draw(st.integers(2, 3000))
    if kind == "near_two_thirds":
        a = 2 * b // 3 + draw(st.integers(-1, 2))
    elif kind == "unit":
        a = 1
    elif kind in ("even", "odd"):
        b |= 1
        a = 2 * draw(st.integers(1, b // 2)) - (kind == "odd")
    else:
        a = draw(st.integers(1, b - 1))
    assume(0 < a < b)
    return whole + F(a, b)


class TestIntegerFrontEnd:
    @given(front_end_values(), st.sampled_from([GREEDY, SPLITTING]), st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_matches_the_fraction_front_end(self, value, strategy, allow_two_thirds):
        policy = DecompositionPolicy(strategy=strategy, allow_two_thirds=allow_two_thirds)
        assert decompose(value, policy) == reference_decompose(value, policy)
        if value.denominator == 1:
            assert decompose(value.numerator, policy) == reference_decompose(value, policy)

    @pytest.mark.parametrize("allow_two_thirds", [True, False])
    @pytest.mark.parametrize("strategy", [GREEDY, SPLITTING])
    def test_on_and_next_to_two_thirds(self, strategy, allow_two_thirds):
        policy = DecompositionPolicy(strategy=strategy, allow_two_thirds=allow_two_thirds)
        near = (F(665, 999), F(667, 1000), F(666, 1000), F(1999, 3000), F(2001, 3000))
        for value in (F(2, 3), F(5, 3), F(5, 6), F(7, 10)) + near:
            assert decompose(value, policy) == reference_decompose(value, policy), value

    @given(
        st.integers(0, 10**6),
        st.booleans(),
        st.lists(st.integers(2, 10**6), max_size=6, unique=True).map(sorted),
    )
    @example(0, False, [])
    @example(0, True, [])
    @example(4, True, [])
    @example(0, True, [7, 52, 1092])
    @settings(max_examples=400, deadline=None)
    def test_value_matches_the_fraction_sum(self, integer_part, two_thirds, dens):
        u = UnitFractionSum(integer_part, two_thirds, tuple(dens))
        got = u.value()
        assert type(got) is Fraction
        assert got == reference_value(u)

    def test_bounds_message_names_the_fraction_part(self):
        with pytest.raises(BoundsExceededError) as exc_info:
            decompose(F(1998, 1993))
        assert str(exc_info.value) == (
            "no decomposition of 5/1993 within max_terms=4 and max_denominator=10000"
        )

    def test_error_messages(self):
        with pytest.raises(TypeError, match=r"^expected an exact rational, got float$"):
            decompose(0.5)
        with pytest.raises(ValueError, match=r"^can only decompose positive values, got -1/2$"):
            decompose(F(-1, 2))
        with pytest.raises(ValueError, match=r"^can only decompose positive values, got 0$"):
            decompose(0)

    def test_3_9973_builds_no_child_factors(self):
        # 1/d + three terms of at least 1/10000 exceed 3/9973 for every d in
        # the root's window, so the slack check ends the search at its root
        assert node_term_counts(F(3, 9973), DEFAULT_POLICY) == [2, 3, 4]


def test_benchmark_search_golden():
    # every input the benchmark's search workload draws from, with its
    # recorded output under each policy the benchmark runs
    golden = json.loads((Path(__file__).parents[1] / "benchmarks" / "golden" / "search.json").read_text())
    policies = {
        "table": TABLE_POLICY,
        "default": DEFAULT_POLICY,
        "greedy": DecompositionPolicy(strategy=GREEDY),
        "splitting": DecompositionPolicy(strategy=SPLITTING),
    }
    mismatches = []
    for key, recorded in golden.items():
        name, _, value = key.partition(":")
        try:
            got = decompose(F(value), policies[name]).render()
        except BoundsExceededError:
            got = "BoundsExceededError"
        if got != recorded:
            mismatches.append((key, recorded, got))
    assert mismatches == []


class TestExactnessCampaign:
    def test_greedy_and_splitting_thousand_random(self):
        rng = random.Random(2024)
        greedy = DecompositionPolicy(strategy=GREEDY)
        splitting = DecompositionPolicy(strategy=SPLITTING)
        for _ in range(1000):
            value = F(rng.randint(1, 1000), rng.randint(1, 1000))
            for policy in (greedy, splitting):
                u = decompose(value, policy)
                assert u.value() == value

    def test_shortest_thousand_random_exact_or_bounded(self):
        # exhaustive search may legitimately exhaust its bounds; whatever
        # it does return must recompose exactly, and every outcome must
        # match the recorded golden output
        rng = random.Random(2024)
        produced = 0
        assert len(GOLDEN["campaign"]) == 1000
        for recorded_value, recorded in GOLDEN["campaign"]:
            value = F(rng.randint(1, 1000), rng.randint(1, 1000))
            assert str(value) == recorded_value
            try:
                u = decompose(value)
            except BoundsExceededError:
                assert recorded == "BoundsExceededError", value
                continue
            assert u.render() == recorded, value
            produced += 1
            assert u.value() == value
            assert len(set(u.denominators)) == len(u.denominators)
        assert produced >= 700

    def test_unit_sum_round_trip_under_every_strategy(self):
        rng = random.Random(12)
        for _ in range(150):
            dens = tuple(sorted(rng.sample(range(2, 31), rng.randint(0, 3))))
            u = UnitFractionSum(rng.randint(0, 5), rng.random() < 0.3, dens)
            value = u.value()
            if value == 0:
                continue
            for strategy in (GREEDY, SPLITTING, SHORTEST_SEARCH):
                redone = decompose(value, DecompositionPolicy(strategy=strategy))
                assert redone.value() == value

    def test_greedy_remainder_numerators_strictly_decrease(self):
        rng = random.Random(99)
        policy = DecompositionPolicy(strategy=GREEDY, allow_two_thirds=False)
        for _ in range(300):
            value = F(rng.randint(1, 999), rng.randint(2, 1000))
            u = decompose(value, policy)
            remainder = value - u.integer_part
            last_numerator = None
            for d in u.denominators:
                if last_numerator is not None:
                    assert remainder.numerator < last_numerator
                last_numerator = remainder.numerator
                remainder -= F(1, d)
            assert remainder == 0


class TestSplitting:
    def test_uses_the_splitting_identity(self):
        # half of 2/3 is 1/3; combining 1/3 with 1/3 splits one copy
        u = decompose(F(2, 3), DecompositionPolicy(strategy=SPLITTING, allow_two_thirds=False))
        assert u.denominators == (3, 4, 12)

    def test_resolve_duplicates_identity(self):
        assert resolve_duplicates([3], [3]) == [3, 4, 12]
        assert sum(F(1, d) for d in resolve_duplicates([2, 6], [2, 6])) == F(4, 3)

    def test_resolve_step_limit_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(arith, "_DUPLICATE_STEP_LIMIT", 3)
        with pytest.raises(ValueError, match="did not settle within 3 splitting steps"):
            resolve_duplicates([2, 3, 6], [2, 3, 6])

    def test_resolve_keeps_disjoint_lists(self):
        assert resolve_duplicates([2, 5], [3, 7]) == [2, 3, 5, 7]

    @given(st.lists(st.integers(min_value=2, max_value=50), min_size=1, max_size=6, unique=True))
    @settings(max_examples=200)
    def test_resolve_preserves_value(self, dens):
        merged = resolve_duplicates(sorted(dens), sorted(dens))
        assert sum(F(1, d) for d in merged) == 2 * sum(F(1, d) for d in dens)
        assert merged == sorted(set(merged))


class TestDoublingTable:
    def test_forty_nine_rows_all_short(self):
        entries = table_2_over_n()
        assert len(entries) == 49
        assert [e.n for e in entries] == list(range(3, 100, 2))
        for e in entries:
            assert e.decomposition.value() == F(2, e.n)
            assert 2 <= e.decomposition.term_count <= 4
            assert not e.decomposition.two_thirds

    def test_rows_match_golden_file(self):
        rows = {str(e.n): e.decomposition.render() for e in table_2_over_n(n_max=299)}
        assert rows == GOLDEN["table"]

    def test_row_3(self):
        # table default keeps to numerator-one fractions: 1/2 + 1/6
        entries = table_2_over_n()
        assert entries[0].decomposition.denominators == (2, 6)

    def test_row_3_with_marker_policy(self):
        entries = table_2_over_n(DecompositionPolicy(), n_max=3)
        assert entries[0].decomposition.two_thirds
        assert entries[0].decomposition.term_count == 1

    def test_row_5_unique_minimal(self):
        entries = table_2_over_n(n_max=5)
        assert entries[1].decomposition.denominators == (3, 15)
        assert brute_force_decompositions(F(2, 5), 2, 10000) == [(3, 15)]

    def test_shortest_never_longer_than_greedy(self):
        greedy = DecompositionPolicy(strategy=GREEDY, allow_two_thirds=False)
        for e in table_2_over_n():
            assert e.decomposition.term_count <= decompose(F(2, e.n), greedy).term_count

    def test_no_shorter_form_exists(self):
        for e in table_2_over_n():
            assert brute_force_decompositions(F(2, e.n), 1, 10000) == []

    def test_even_rows_excluded_by_default_included_on_request(self):
        default_ns = {e.n for e in table_2_over_n()}
        assert all(n % 2 == 1 for n in default_ns)
        with_even = table_2_over_n(n_max=10, include_even=True)
        assert [e.n for e in with_even] == list(range(3, 11))
        four = next(e for e in with_even if e.n == 4)
        assert four.decomposition.denominators == (2,)

    def test_rows_capped_before_any_is_built(self, monkeypatch):
        cap = arith.TABLE_MAX_N
        built = []
        monkeypatch.setattr(arith, "decompose", lambda value, policy: built.append(value))
        assert len(table_2_over_n(n_max=cap)) == len(built) == (cap - 1) // 2
        assert built[-1] == F(2, cap - 1)
        built.clear()
        with pytest.raises(ValueError, match=rf"^n_max must be at most {cap}, got {cap + 1}$"):
            table_2_over_n(n_max=cap + 1)
        assert built == []

    def test_exports_byte_identical(self):
        first, second = table_2_over_n(), table_2_over_n()
        assert render_table(first, "csv") == render_table(second, "csv")
        assert render_table(first, "json") == render_table(second, "json")
        header, row3 = render_table(first, "csv").splitlines()[:2]
        assert header == "n,terms,decomposition,value_check"
        assert row3 == "3,2,1/2 + 1/6,2/3"


class TestDuplation:
    def test_identity_multiplier(self):
        result = duplation_multiply(1, 17)
        assert result.product == 17
        assert result.selected_powers == [1]

    def test_thirteen_times_twelve(self):
        result = duplation_multiply(13, 12)
        assert result.product == 156
        assert result.selected_powers == [1, 4, 8]

    def test_eighty_squared(self):
        assert duplation_multiply(80, 80).product == 6400

    def test_rows_double(self):
        rows = duplation_multiply(13, 12).rows
        assert [r.value for r in rows] == [12, 24, 48, 96]
        assert sum(r.value for r in rows if r.selected) == 156

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            duplation_multiply(0, 5)
        with pytest.raises(ValueError):
            duplation_multiply(5, -1)

    def test_factor_digits_capped_before_any_row(self, monkeypatch):
        def unused(*args):
            raise AssertionError("row built")

        monkeypatch.setattr(arith, "DuplationRow", unused)
        nines = 10**4299 - 1  # 4299 nines: int() parses it, str() of its square fails
        # 10**1000 has one digit too many; 2**4001 is caught by its bit count
        for a, b in ((nines, nines), (10**DUPLATION_MAX_DIGITS, 3), (3, 2**4001)):
            with pytest.raises(ValueError, match=f"^duplation takes factors of at most {DUPLATION_MAX_DIGITS} digits$"):
                duplation_multiply(a, b)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300)
    def test_matches_ordinary_multiplication(self, a, b):
        assert duplation_multiply(a, b).product == a * b


class TestLoafDivision:
    def test_six_among_ten(self):
        share = divide_loaves(6, 10)
        assert share.value() == F(3, 5)

    def test_equal_split(self):
        share = divide_loaves(10, 10)
        assert share.integer_part == 1 and share.term_count == 0

    def test_nine_among_ten_within_four_terms(self):
        share = divide_loaves(9, 10)
        assert share.value() == F(9, 10)
        assert share.term_count <= 4

    @pytest.mark.parametrize("loaves", [1, 3, 6, 7, 8, 9])
    def test_classic_set_replays_exactly(self, loaves):
        share = divide_loaves(loaves, 10)
        assert share.value() * 10 == loaves

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            divide_loaves(0, 10)
        with pytest.raises(ValueError):
            divide_loaves(3, 0)


class TestSequem:
    def test_additive_completion_to_one(self):
        given = F(2, 3) + F(1, 30)
        assert given == F(7, 10)
        assert sequem_complete(given, F(1)) == F(3, 10)

    def test_multiplicative_identity(self):
        assert sequem_complete(F(1), F(19, 3), MULTIPLICATIVE) == F(19, 3)

    def test_multiplicative_completion(self):
        assert sequem_complete(F(7), F(19), MULTIPLICATIVE) == F(19, 7)

    def test_recombination_exact(self):
        rng = random.Random(5)
        for _ in range(200):
            given = F(rng.randint(-50, 50), rng.randint(1, 50))
            target = F(rng.randint(-50, 50), rng.randint(1, 50))
            assert given + sequem_complete(given, target, ADDITIVE) == target
            if given != 0:
                assert given * sequem_complete(given, target, MULTIPLICATIVE) == target

    def test_multiplicative_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            sequem_complete(F(0), F(2), MULTIPLICATIVE)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            sequem_complete(F(1), F(2), "proportional")


class TestPolicy:
    def test_defaults(self):
        policy = DecompositionPolicy()
        assert policy.strategy == SHORTEST_SEARCH
        assert policy.max_terms == 4
        assert policy.max_denominator == 10000
        assert policy.prefer_divisor_rich and policy.allow_two_thirds
        assert not TABLE_POLICY.allow_two_thirds

    def test_validation(self):
        with pytest.raises(ValueError):
            DecompositionPolicy(strategy="binary")
        with pytest.raises(ValueError):
            DecompositionPolicy(max_terms=0)
        with pytest.raises(ValueError):
            DecompositionPolicy(max_denominator=1)
        # a float or a bool bound would fail deep in the search, or pass
        # silently under greedy, so each is refused up front
        for field, value in [("max_terms", 2.5), ("max_terms", 3.0), ("max_terms", True),
                             ("max_denominator", 10000.0), ("max_denominator", "10000")]:
            kind = type(value).__name__
            with pytest.raises(TypeError, match=f"^{field} must be an integer, got {kind}$"):
                DecompositionPolicy(strategy=GREEDY, **{field: value})

    def test_flags_must_be_bools(self):
        # "no" is truthy, so allow_two_thirds="no" would write 7/10 as 2/3 + 1/30
        for field, value in [("allow_two_thirds", "no"), ("allow_two_thirds", 0),
                             ("prefer_divisor_rich", 1), ("prefer_divisor_rich", None)]:
            kind = type(value).__name__
            with pytest.raises(TypeError, match=f"^{field} must be a bool, got {kind}$"):
                DecompositionPolicy(**{field: value})
