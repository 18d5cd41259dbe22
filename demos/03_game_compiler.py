"""Compiling ordered reflection games into books.

A game lists ellipses and whether each is hit from inside (+1) or outside
(-1).  The compiler emits annuli between consecutive game ellipses plus the
disk sheets needed to realize the inside hits, and the realization is
checked by tracing admissible starts.
"""

from billiard_books import (
    ConfocalFamily,
    OrderedGame,
    compile_game,
    compile_simple,
    dumps_book,
    invert_gluings,
    leaf_count_bounds,
    verify_realization,
)

fam = ConfocalFamily(9.0, 4.0)

for betas, sig in [
    ((0.0, 2.0), (1, 1)),
    ((0.0, 2.0), (1, -1)),
    ((0.0, 2.0, 3.5), (1, 1, -1)),
    ((0.0, 2.0, 0.0, 3.5), (1, -1, 1, 1)),
]:
    game = OrderedGame(fam, betas, sig)
    report = compile_simple(game)
    lo, hi, s = leaf_count_bounds(game)
    failures = verify_realization(report, samples=25, seed=0)
    print(f"game {betas} / {sig}:")
    print(f"  leaves {report.leaf_count} (bounds {lo}..{hi}, s={s}), "
          f"start leaf {report.start_leaf_id}, "
          f"verification {'ok' if not failures else failures}")

# repeated consecutive hits on one ellipse need identical disk copies
rep = compile_game(OrderedGame(fam, (0.0, 2.0, 2.0, 3.5), (1, 1, 1, 1)))
print(f"\nrun game (two straight hits on C_2): {rep.leaf_count} leaves, "
      f"disk copies {sorted(len(v) for v in rep.disk_ids.values())}")
print(f"verification: {verify_realization(rep, samples=25, seed=1) or 'ok'}")

inv = invert_gluings(rep.book)
print("\ninverted book swaps every gluing cycle:")
for g, gi in zip(rep.book.gluings, inv.gluings):
    print(f"  C_{g.ellipse}: {g.cycles()}  ->  {gi.cycles()}")

with open("compiled_book.json", "w", encoding="utf-8") as fh:
    fh.write(dumps_book(rep.book))
print("\nwrote compiled_book.json")
