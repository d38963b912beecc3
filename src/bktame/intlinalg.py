"""Sparse integer column elimination (Hermite style) for solving
A n = b over the integers, reusing one factorisation for many right-hand
sides.

Columns are kept as {row: value} dicts together with the combination of
original columns they represent, so a solution in terms of the original
unknowns falls out of back-substitution.
"""

from .errors import NoSolution


class IntegerColumnSolver:
    """Column-echelon reduction of an integer matrix given column-wise."""

    def __init__(self, columns, nrows):
        # columns: list of {row: int}; combinations track original columns
        work = [({r: v for r, v in col.items() if v}, {j: 1})
                for j, col in enumerate(columns)]
        pivots = []   # (row, column dict, combo dict) in increasing row order
        live = [w for w in work if w[0]]
        for row in range(nrows):
            holders = [w for w in live if row in w[0]]
            if not holders:
                continue
            # euclidean reduction until one column holds the row
            while len(holders) > 1:
                holders.sort(key=lambda w: abs(w[0][row]))
                base = holders[0]
                bval = base[0][row]
                for other in holders[1:]:
                    q = other[0][row] // bval
                    if q:
                        _addmul(other[0], base[0], -q)
                        _addmul(other[1], base[1], -q)
                holders = [w for w in holders if w[0].get(row)]
            piv = holders[0]
            if piv[0][row] < 0:
                piv[0].update({r: -v for r, v in piv[0].items()})
                piv[1].update({j: -v for j, v in piv[1].items()})
            live.remove(piv)
            pivots.append((row, piv[0], piv[1]))
        self.pivots = pivots

    def solve(self, rhs):
        """One integer solution of A n = rhs as {column: coefficient}."""
        residual = {r: v for r, v in rhs.items() if v}
        combo = {}
        for row, col, cmb in self.pivots:
            v = residual.get(row, 0)
            if v == 0:
                continue
            if v % col[row] != 0:
                raise NoSolution("pivot at row %d does not divide residual" % row)
            y = v // col[row]
            _addmul(residual, col, -y)
            _addmul(combo, cmb, y)
        if residual:
            raise NoSolution("right-hand side outside the column lattice")
        return combo


def _addmul(target, source, factor):
    for k, v in source.items():
        nv = target.get(k, 0) + factor * v
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)
