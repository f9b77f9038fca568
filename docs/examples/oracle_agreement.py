"""Cross-validation: matrix mutation versus categorical computation.

Run with ``python3 docs/examples/oracle_agreement.py``.  Mutates a
principal-coefficient seed along random flip paths and checks that its
C-matrix rows equal categorical c-vector evaluations and its G-matrix
rows equal zig-zag indices — two independent computations that must
agree row by row.
"""

import random

from infgon.cvector import CVectorQuery, cvector_eval
from infgon.fzoracle import run_flip_path
from infgon.homindex import index
from infgon.triangulation import enumerate_triangulations
from infgon.zmodel import ZModel

rng = random.Random(7)
checked = mismatches = 0
for n in (5, 6, 7):
    z = ZModel.finite(n)
    tris = enumerate_triangulations(z)
    for _ in range(20):
        t = rng.choice(tris)
        seed, cur = run_flip_path(t, rng=rng, max_len=8)
        for j, u in enumerate(seed.labels):
            q = CVectorQuery(t, cur, u)
            crow = tuple(cvector_eval(q, d) for d in seed.basis)
            g = index(t, u)
            grow = tuple(g.eval(d) for d in seed.basis)
            checked += 1
            if seed.c[j] != crow or seed.g[j] != grow:
                mismatches += 1
                print("MISMATCH at", n, u, crow, grow)
print(f"checked {checked} rows across random flip paths; "
      f"{mismatches} mismatches")
