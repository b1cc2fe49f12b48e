"""Dense exact linear algebra over the rings of :mod:`arrtwist.rings`.

One elimination per kind of ring.  Over a field, :func:`rank` is Gaussian
elimination with one inverse per pivot.  Over Z and K[t,t^-1] every rank,
divisor chain and kernel comes from the Smith form: :func:`rank` there is
the divisor count of :func:`smith_normal_form`.  Smith normal forms over a
Euclidean ring alternate row echelon passes on the working array and on its
transpose until it is diagonal (Kannan and Bachem), then fix the divisor
chain once on the diagonal; divisors are reported as canonical associates
(positive over Z, valuation-0 monic over K[t,t^-1]).  Each elementary step
is written once, as a row step: column steps are row steps on the
transposed working array, which is transposed once per pass.  The optional
left and right transforms are carried as identity blocks beside and below
the matrix, so the same steps update them without extra code; only kernel
bases read them.  Kernel bases come from the right transform, which over a
PID yields a basis of the kernel of the map of free modules (automatically
saturated).  :meth:`Matrix.inverse` is one Gauss-Jordan pass on
``[A | I]`` over every ring, with row steps only: the Euclidean column step
of the echelon passes leaves the gcd of each column as its pivot, which
must be a unit.

Matrices are immutable-by-convention dense row-major arrays, except that
:meth:`Matrix.paste` writes blocks into one still being assembled.  The
storage is dense but the arithmetic is not: products, sums, negation,
scaling and every Smith row step do ring arithmetic on nonzero entries
only, and results built here skip the coercing public constructor
(:meth:`Matrix._of`).
"""

from __future__ import annotations

from .rings import Ring, MixedRings


class Matrix:
    """A dense matrix over a fixed coefficient ring.

    >>> from arrtwist.rings import ZZ
    >>> m = Matrix(ZZ, [[4, 0], [0, 6]])
    >>> rank(m)
    2
    >>> smith_normal_form(m).divisors
    (2, 12)
    """

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: Ring, rows, nrows=None, ncols=None):
        rows = [list(r) for r in rows]
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix data")
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [[ring.coerce(x) for x in r] for r in rows]

    @classmethod
    def _of(cls, ring, rows, nrows, ncols):
        """A matrix on ``rows`` as given: entries already of ``ring``, shape
        already checked.  Every result built inside this module goes
        through here; the public constructor coerces and validates."""
        m = object.__new__(cls)
        m.ring, m.rows, m.nrows, m.ncols = ring, rows, nrows, ncols
        return m

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = ring.zero
        return cls._of(ring, [[z] * ncols for _ in range(nrows)], nrows, ncols)

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls._of(ring, [[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def paste(self, row0, col0, block, negate=False):
        """Write ``block`` (or its negative) into this matrix in place, with
        its top-left entry at (row0, col0).  Entries are copied, so later
        changes to ``block`` do not reach this matrix."""
        self._check_compat(block)
        if not (0 <= row0 <= self.nrows - block.nrows
                and 0 <= col0 <= self.ncols - block.ncols):
            raise ValueError("block does not fit at this offset")
        for i, row in enumerate(block.rows):
            self.rows[row0 + i][col0 : col0 + block.ncols] = (
                [-x if x else x for x in row] if negate else row
            )

    def is_zero(self):
        return all(self.ring.is_zero(x) for r in self.rows for x in r)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    # Entrywise operations leave a zero operand's partner as it is, so they
    # do ring arithmetic on nonzero entries only.

    def __add__(self, other):
        self._check_compat(other, same_shape=True)
        return Matrix._of(
            self.ring,
            [
                [(x + y if x else y) if y else x for x, y in zip(r, s)]
                for r, s in zip(self.rows, other.rows)
            ],
            self.nrows,
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._of(
            self.ring,
            [[-x if x else x for x in r] for r in self.rows],
            self.nrows,
            self.ncols,
        )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            s = self.ring.coerce(other)
            return Matrix._of(
                self.ring,
                [[x * s if x else x for x in r] for r in self.rows],
                self.nrows,
                self.ncols,
            )
        self._check_compat(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # i-k-j order: each nonzero self[i][k] meets the nonzeros of row k,
        # listed once per product
        z = self.ring.zero
        support = [[(j, b) for j, b in enumerate(orow) if b] for orow in other.rows]
        out = []
        for row in self.rows:
            acc = [z] * other.ncols
            for a, onz in zip(row, support):
                if a:
                    for j, b in onz:
                        acc[j] = acc[j] + a * b if acc[j] else a * b
            out.append(acc)
        return Matrix._of(self.ring, out, self.nrows, other.ncols)

    # every ring here is commutative, so a scalar may stand on either side
    __rmul__ = __mul__

    def _check_compat(self, other, same_shape=False):
        if self.ring is not other.ring and self.ring != other.ring:
            raise MixedRings("matrices over different rings")
        if same_shape and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def submatrix(self, row_idx, col_idx):
        return Matrix._of(
            self.ring,
            [[self.rows[i][j] for j in col_idx] for i in row_idx],
            len(row_idx),
            len(col_idx),
        )

    def inverse(self):
        """Exact inverse over any of the rings: one Gauss-Jordan pass on
        ``[self | I]`` with row steps only.  Column by column, the Euclidean
        column step of :func:`smith_normal_form` leaves the gcd of the
        entries on and below the diagonal as the pivot; the matrix is
        invertible exactly when every such gcd is a unit (their product is
        the determinant, up to a unit).  The pivot row is scaled to 1 and
        the column cleared above it; the right half is then the inverse.
        Raises ``ZeroDivisionError`` when the matrix is not invertible over
        its ring, which over a field means singular."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("only square matrices can be inverted")
        R = self.ring
        one = R.one
        a = [r + e for r, e in zip(self.rows, Matrix.identity(R, n).rows)]
        for c in range(n):
            live = [i for i in range(c, n) if a[i][c]]
            if not live or not R.is_unit(_column_step(R, a, live, c, c, n, one)):
                raise ZeroDivisionError("matrix is not invertible over its ring")
            _scale_row(a, c, R.unit_inverse(a[c][c]))
            prow = a[c]
            nz = _support(prow)
            for i in range(c):
                row = a[i]
                f = row[c]
                if f:
                    for j in nz:
                        row[j] = row[j] - f * prow[j]
        return Matrix._of(R, [row[n:] for row in a], n, n)

    def format_entries(self):
        return [[self.ring.format(x) for x in r] for r in self.rows]

    def __repr__(self):
        body = "; ".join(" ".join(self.ring.format(x) for x in r) for r in self.rows)
        return f"Matrix({self.ring.name}, {self.nrows}x{self.ncols}: {body})"


def rank(m: Matrix) -> int:
    """Rank over the fraction field.

    Over a field: Gaussian elimination, one ``unit_inverse`` per pivot and
    one multiply-subtract per entry cleared; rows already zero in the pivot
    column are skipped.  Over Z and K[t,t^-1]: the divisor count of the
    Smith form.
    """
    R = m.ring
    if R.is_field:
        return _field_rank(R, [r[:] for r in m.rows], m.nrows, m.ncols)
    return smith_normal_form(m).rank


def _field_rank(R, a, nr, nc):
    """Rank of the rows ``a`` (consumed) over the field ``R``."""
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if not R.is_zero(a[i][c])), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        inv = R.unit_inverse(prow[c])
        cols = [j for j in range(c + 1, nc) if not R.is_zero(prow[j])]
        for i in range(r + 1, nr):
            row = a[i]
            if R.is_zero(row[c]):
                continue
            f = row[c] * inv
            for j in cols:
                row[j] = row[j] - f * prow[j]
        r += 1
    return r


# Row steps on a working array ``a`` (a list of row lists), shared by the
# Smith form and the inverse.  ``width`` is the number of leading columns
# that content scaling reads: the matrix block, not the transforms riding
# beside it; ``one`` is ``R.one``, read once per elimination.

def _scale_row(a, i, unit):
    a[i] = [unit * x if x else x for x in a[i]]


def _normalize_row(R, a, i, width, one):
    u = R.content_unit(a[i][:width])
    if u != one:
        _scale_row(a, i, u)


def _add_row(R, a, dst, src, coef, cols, width, one):
    """Row ``dst`` += coef * row ``src``; ``cols`` lists the columns where
    row ``src`` is nonzero."""
    row, srow = a[dst], a[src]
    for j in cols:
        row[j] = row[j] + coef * srow[j]
    _normalize_row(R, a, dst, width, one)


def _support(row):
    return [j for j, x in enumerate(row) if x]


def _column_step(R, a, live, t, c, width, one):
    """The Euclidean column step of the echelon passes and the inverse.
    ``live`` lists rows of ``a`` that are nonzero in column ``c``.  A
    smallest entry among them becomes the pivot, moved to row ``t``, the
    other rows keep only their remainders, and this repeats until the pivot
    is alone in its column among them.  Returns the pivot, a gcd of the
    column entries it started from."""
    while True:
        p = min(live, key=lambda i: R.euclid_size(a[i][c]))
        a[t], a[p] = a[p], a[t]
        piv = a[t][c]
        live = [i for i in live if i != t and a[i][c]]
        if not live:
            return piv
        nz = _support(a[t])
        for i in live:
            _add_row(R, a, i, t, -R.euclid_divmod(a[i][c], piv)[0], nz, width, one)
        live = [t] + [i for i in live if a[i][c]]


class SmithForm:
    """Divisor chain d_1 | d_2 | ... | d_s of a matrix over a Euclidean ring.

    ``divisors`` are canonical associates.  When transforms were requested,
    ``left`` and ``right`` are invertible over the ring and
    ``left * A * right`` is diagonal with the divisors on its diagonal.
    """

    __slots__ = ("divisors", "rank", "left", "right")

    def __init__(self, divisors, left=None, right=None):
        self.divisors = tuple(divisors)
        self.rank = len(self.divisors)
        self.left = left
        self.right = right

    def nontrivial(self, ring):
        """The non-unit divisors (the torsion-carrying part of the chain)."""
        return tuple(d for d in self.divisors if not ring.is_unit(d))


def smith_normal_form(m: Matrix, transforms: bool = False) -> SmithForm:
    """Smith normal form over Z, a field, or K[t,t^-1].

    Two phases.  First diagonalize by alternating echelon passes (the scheme
    of Kannan and Bachem, SIAM J. Comput. 8, 1979): bring the rows to row
    echelon form by division with remainder, transpose, and repeat until the
    block is diagonal.  Each pass turns the first pivot into a divisor of
    the one before, of smaller size until its row and column are both clear,
    and so on down the diagonal; so the passes stop.  Then fix the divisor
    chain on the diagonal: wherever d_i fails to divide d_j (i < j), adding
    row j to row i and diagonalizing again turns (d_i, d_j) into
    (gcd, lcm).  Walking the pairs in order leaves d_1 | d_2 | ... | d_s,
    with one divisibility test per pair.  The result is the divisor chain;
    with ``transforms=True``, invertible ``left`` and ``right`` with
    ``left * m * right`` diagonal are returned as well.

    Every elementary step is a row step, and does ring arithmetic on the
    nonzero entries of its source row only.  A column step on ``m`` is the
    same row step on its transpose, whose Smith form is the transpose of that
    of ``m``, so a pass on the transposed array clears columns.  The
    transforms ride along in the working array: ``left`` starts as an
    identity block to the right of the rows, ``right`` as an identity block
    below the columns, and an ``nc x nr`` zero block pads the array to a
    square.  Transposing swaps the roles of the two blocks, so each row step
    updates ``left`` in one orientation and ``right`` in the other.  Pivot
    choice, clearing and content scaling read only the top-left ``nr x nc``
    block of the current orientation.
    """
    R = m.ring
    one = R.one
    nr, nc = m.nrows, m.ncols
    a = [r[:] for r in m.rows]
    if transforms:
        a = [r + e for r, e in zip(a, Matrix.identity(R, nr).rows)]
        a += [e + [R.zero] * nr for e in Matrix.identity(R, nc).rows]

    def transpose():
        nonlocal a, nr, nc
        # map drops each column tuple before the next, so zip reuses one
        # tuple instead of allocating a fresh one per column
        a = list(map(list, zip(*a)))
        nr, nc = nc, nr

    def echelon(rows, cols):
        """Row echelon form of the block on ``rows`` x ``cols``, one column
        at a time by the Euclidean column step, with the k-th pivot moved to
        ``rows[k]``; returns the rank.  Canonical (e.g. monic) pivots keep
        quotient coefficients tame."""
        k = 0
        for c in cols:
            live = [i for i in rows[k:] if a[i][c]]
            if not live:
                continue
            t = rows[k]
            piv = _column_step(R, a, live, t, c, nc, one)
            can = R.canonical(piv)
            if can != piv:
                _scale_row(a, t, R.exact_div(can, piv))
            k += 1
        return k

    def diagonalize(rows, cols):
        """Echelon passes on the block ``rows`` x ``cols`` and on its
        transpose until the block is diagonal, ending in the orientation it
        started in; returns the rank.  The block's rows and columns must be
        zero outside it.  A block in echelon form is diagonal exactly when
        no row has an entry right of its diagonal entry."""
        flipped = False
        while True:
            rk = echelon(rows, cols)
            if not any(a[r][c] for k, r in enumerate(rows) for c in cols[k + 1 :]):
                break
            transpose()
            rows, cols = cols, rows
            flipped = not flipped
        if flipped:
            transpose()
        return rk

    for i in range(nr):
        _normalize_row(R, a, i, nc, one)
    t = diagonalize(range(nr), range(nc))

    # the divisor chain: after pass i, d_i divides every later d_j, and the
    # (gcd, lcm) steps of later passes keep that true; an equal d_j needs
    # no division
    for i in range(t):
        if R.is_unit(a[i][i]):
            continue
        for j in range(i + 1, t):
            if a[j][j] != a[i][i] and not R.is_zero(R.euclid_divmod(a[j][j], a[i][i])[1]):
                _add_row(R, a, i, j, one, _support(a[j]), nc, one)
                diagonalize([i, j], [i, j])

    divisors = [R.canonical(a[k][k]) for k in range(t)]
    if not transforms:
        return SmithForm(divisors)
    for k in range(t):
        # scale the row by the unit that canonicalizes the pivot
        _scale_row(a, k, R.exact_div(divisors[k], a[k][k]))
    return SmithForm(
        divisors,
        left=Matrix._of(R, [row[nc:] for row in a[:nr]], nr, nr),
        right=Matrix._of(R, [row[:nc] for row in a[nr:]], nc, nc),
    )


def kernel_basis(m: Matrix) -> Matrix:
    """Columns spanning ker(m).  Over a PID this is a basis of the kernel of
    the map of free modules (the trailing columns of the right Smith
    transform), hence saturated; over a field it is an ordinary null-space
    basis."""
    form = smith_normal_form(m, transforms=True)
    cols = list(range(form.rank, m.ncols))
    return form.right.submatrix(range(m.ncols), cols)
