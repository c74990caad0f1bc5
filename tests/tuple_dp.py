"""The partition DP on coefficient tuples: a reference for the packed one.

``TupleDP.poly(j, x)`` is P_j(x), the graded partition polynomial over the
first j positive roots, as the tuple (p_0, ..., p_height(x)), or () when
it is 0.  It runs the same two-term recurrence as
``nilcone.partition`` - P_j(y) = P_{j-1}(y) + q P_j(y - alpha_j), filled up
each alpha_j chain, with the closed form q^height(x) or 0 for j <= rank -
but on tuples of Python ints, with no packed keys, no Kronecker values
and no width to choose.
"""

from operator import add, sub


class TupleDP:
    def __init__(self, rs):
        self.rank = rs.rank
        self.roots = rs.positive_root_coords
        # j -> coordinates none of the first j roots cover, for j <= rank.
        self.uncovered = [
            tuple(i for i in range(rs.rank) if not any(r[i] for r in self.roots[:j]))
            for j in range(rs.rank + 1)
        ]
        self.memo = {j: {} for j in range(rs.rank + 1, len(self.roots) + 1)}

    def poly(self, j, x):
        """P_j(x) for x in the nonnegative cone."""
        x = tuple(x)
        if j <= self.rank:
            if any(x[i] for i in self.uncovered[j]):
                return ()
            return (0,) * sum(x) + (1,)
        memo = self.memo[j]
        hit = memo.get(x)
        if hit is not None:
            return hit
        alpha = self.roots[j - 1]
        chain = [x]
        below = None
        while True:
            y = tuple(map(sub, chain[-1], alpha))
            if min(y) < 0:
                break
            below = memo.get(y)
            if below is not None:
                break
            chain.append(y)
        for y in reversed(chain):
            value = self.poly(j - 1, y)
            if below:
                value = (value[:1] + tuple(map(add, value[1:], below))
                         + value[len(below) + 1:])
            memo[y] = value
            below = value
        return value
