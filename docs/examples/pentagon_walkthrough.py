"""A guided tour of the finite case on the pentagon.

Run with ``python3 docs/examples/pentagon_walkthrough.py``.  Builds the
fan triangulation, computes indices by the zig-zag construction, flips
a diagonal, evaluates c-vectors, and decomposes the positive c-vector
set into root-system slices.
"""

from infgon.cvector import CVectorQuery, cvector_full, dimension_vector
from infgon.decomposition import (YExt, crossing_order, delta_plus,
                                  maximal_pairs, root_of_arc,
                                  root_system_label)
from infgon.homindex import index, zigzag
from infgon.triangulation import Triangulation, enumerate_triangulations, \
    validate
from infgon.zmodel import ZModel

z = ZModel.finite(5)
t = Triangulation.make(z, {z.arc(0, 2), z.arc(0, 3)})
print("fan triangulation:", sorted(t.core, key=lambda a: (z.key(a.p),
                                                          z.key(a.q))))
print("valid?", validate(t).ok)

# The zig-zag path between two vertices visits extremal connected
# vertices alternately; its alternating sum is the index (g-vector).
path = zigzag(t, z.v(1), z.v(4))
print("zig-zag 1 -> 4:", path.vertices)
print("index of {1,4}:", index(t, z.arc(1, 4)))

# Flipping a diagonal replaces it by its exchange partner.
t2, partner = t.flip(z.arc(0, 2))
print("flip {0,2} ->", partner, "giving", sorted(
    t2.core, key=lambda a: (z.key(a.p), z.key(a.q))))

# c-vectors of the pair (u, U) over T are signed dimension vectors.
for u in sorted(t2.core, key=lambda a: (z.key(a.p), z.key(a.q))):
    sign, arc, cov = cvector_full(CVectorQuery(t, t2, u))
    print(f"c({u}) over fan: sign {sign:+d}, arc {arc}, {cov}")

# There are Catalan(3) = 5 triangulations; for each, the positive
# c-vectors are exactly the nonzero dimension vectors.
tris = enumerate_triangulations(z)
print("number of triangulations:", len(tris))

# The unique maximal crossing pair slices the positive vectors into a
# root system.
(pair,) = maximal_pairs(t)
e, f = sorted(pair, key=z.key)
y = crossing_order(t, e, f)
print("maximal pair:", (e, f), "order type", y.descriptor(),
      "->", root_system_label(y))
print("crossing set Y:", y.members)
for (i, j) in ((1, 3), (1, 4), (2, 4)):
    v = z.arc(i, j)
    print("  arc", v, "-> root", root_of_arc(t, e, f, v))
print("Delta+:", delta_plus(YExt(y)))
print("dim {2,4}:", dimension_vector(t, z.arc(2, 4)))
