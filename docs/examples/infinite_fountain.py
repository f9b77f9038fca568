"""The infinity-gon with one limit point and a fountain triangulation.

Run with ``python3 docs/examples/infinite_fountain.py``.  Every
infinite family is handled symbolically: no truncation, no sampling —
queries about tails are decided exactly, on index runs solved in
closed form.
"""

from infgon.cvector import dimension_vector
from infgon.decomposition import (YExt, crossing_order, maximal_pairs, psi,
                                  root_system_label)
from infgon.homindex import index
from infgon.triangulation import Fountain, Triangulation, validate
from infgon.zmodel import Vertex, ZModel

z = ZModel.blocks(1)
t = Triangulation.make(z, set(), {0: Fountain(Vertex(0, 0), 2, -2)})
print("fountain at the limit point, base 0; valid?", validate(t).ok)

# Indices are finite alternating sums even over the infinite model.
print("index of {1,-1}:", index(t, z.arc(1, -1)))

# Dimension vectors of arcs with infinite crossing sets carry symbolic
# tail terms instead of infinite explicit supports.
dv = dimension_vector(t, z.arc(1, -1))
print("dim {1,-1}: explicit", dv.explicit, "tails", dv.tail_terms)

# The unique maximal crossing pair is {1,-1}; the arcs crossing it form
# an infinite total order of type omega + omega*.
(pair,) = maximal_pairs(t)
e, f = sorted(pair, key=z.key)
y = crossing_order(t, e, f)
print("maximal pair:", (e, f))
print("order type:", y.descriptor(), "->", root_system_label(y))
print("first three:", y.first(3))
print("last three: ", y.last(3))

# Y_ext adjoins -infinity exactly when Y has a least element; interval
# roots are then additive under concatenation.
ye = YExt(y)
print("-infinity adjoined?", ye.has_neg_inf)
a, b, c = y.first(3)
r_ab = psi(y, a, b)
r_bc = psi(y, y.succ_in(b), c)
r_ac = psi(y, a, c)
print(f"psi[{a},{b}] = {r_ab}")
print(f"psi[succ,{c}] = {r_bc}")
print(f"psi[{a},{c}] = {r_ac}  (sum of the two)")
