"""
Writing fractions the scribal way
=================================

Every fractional value is written as a sum of distinct unit fractions,
with 2/3 as the single privileged extra symbol. This walk-through shows
the three decomposition strategies and the 2/n doubling table.
"""

from fractions import Fraction

from scribal import (
    DecompositionPolicy,
    decompose,
    parse_rational,
    render_table,
    table_2_over_n,
)

# A value like 7/10 has many unit-fraction spellings; the default policy
# searches for the shortest one, preferring the 2/3 symbol when it helps.
value = Fraction(7, 10)
print(f"{value} = {decompose(value)}")

# The same value under each strategy:
for strategy in ("greedy", "splitting", "shortest_search"):
    u = decompose(value, DecompositionPolicy(strategy=strategy))
    print(f"  {strategy:>16}: {u}  ({u.term_count} terms)")

# Greedy always terminates but can run to huge denominators; the classic
# stress case is 5/121.
greedy = DecompositionPolicy(strategy="greedy", allow_two_thirds=False)
print(f"5/121 greedily: {decompose(Fraction(5, 121), greedy)}")

# Text forms round-trip exactly, so values survive a trip through a file.
text = str(decompose(Fraction(133, 8)))
print(f"133/8 renders as {text!r} and parses back to {parse_rational(text)}")

# The doubling table: 2/n for every odd n from 3 to 99, each row a short
# sum of distinct unit fractions. The first rows:
table = table_2_over_n()
for entry in table[:6]:
    print(f"2/{entry.n:<2} = {entry.decomposition}")
print(f"... {len(table)} rows, term counts "
      f"{sorted({e.decomposition.term_count for e in table})}, all recompose exactly")

# The whole table exports as byte-stable CSV for spreadsheets.
print()
print("\n".join(render_table(table, "csv").splitlines()[:4]))
