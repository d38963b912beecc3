"""Exact arithmetic over small finite fields GF(p^m) and dense row
reduction.

Polynomials over GF(p) are coefficient tuples, constant term first.
The field modulus is always the lexicographically smallest monic
irreducible (coefficients compared low degree first), so construction is
deterministic without external tables.  A field element is its index
sum(coeffs[j] * p^j); fields of order up to 2^16 get exp/log tables keyed
by index, so multiplying and inverting are lookups.  All arithmetic is
FieldSpec on bare indices, and row reduction works on index lists;
FieldElem only holds an index with its field and has no operators.
"""

from functools import lru_cache

from .errors import DegreeTooLarge, InternalError, NotPrime, RangeError

_TABLE_LIMIT = 1 << 16


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factorize(n):
    """Prime factors of a small integer, ascending, without multiplicity."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(value, p, m):
    """The m lowest base-p digits of value, least significant first."""
    out = []
    for _ in range(m):
        out.append(value % p)
        value //= p
    return tuple(out)


# -- dense polynomial helpers over GF(p); tuples, constant term first --


def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    binv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        coef = (a[i + len(b) - 1] * binv) % p
        if coef:
            q[i] = coef
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - coef * bj) % p
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return a


def _ppowmod(base, exp, mod, p):
    result = (1,)
    base = _pdivmod(base, mod, p)[1]
    while exp > 0:
        if exp & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        exp >>= 1
    return result


def _is_irreducible(poly, m, p):
    """No irreducible factor of degree <= m/2, via gcd with x^(p^k) - x.

    x^(p^k) - x is the product of all monic irreducibles of degree dividing
    k, so scanning k = 1..m//2 rules out every possible proper factor.
    """
    x = (0, 1)
    for k in range(1, m // 2 + 1):
        xq = _ppowmod(x, p ** k, poly, p)
        g = _pgcd(_psub(xq, x, p), poly, p)
        if len(g) > 1:
            return False
    return True


class FieldSpec:
    """The field GF(p^m) with a fixed monic irreducible modulus.  An element
    is its index sum(coeffs[j] * p^j); exp/log tables exist when p^m <= 2^16."""

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.modulus = tuple(modulus)
        self.order = p ** m
        self._exp = None
        self._log = None
        self._gen = self._find_generator_coeffs()
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    def _index_of_coeffs(self, coeffs):
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    def add(self, a, b, sign=1):
        """Index of a + sign * b, digit by digit mod p."""
        p = self.p
        if self.m == 1:
            return (a + sign * b) % p
        out, place = 0, 1
        while a or b:
            out += (a + sign * b) % p * place
            a, b, place = a // p, b // p, place * p
        return out

    def neg(self, a):
        return self.add(0, a, -1)

    def mul(self, a, b):
        """Index of the product of indices a and b."""
        if self._log is None:
            # untabled: a product with one, as when a pair's oracle system is
            # divided by m.a[0] = 1, needs no polynomial arithmetic
            return a * b if a == 1 or b == 1 else self._raw_mul(a, b)
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a):
        """Index of the inverse of index a: a table lookup, or extended Euclid
        against the modulus on untabled fields."""
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self._log is not None:
            return self._exp[-self._log[a] % (self.order - 1)]
        if a == 1:
            return 1
        p = self.p
        a, b = _ptrim(_digits(a, p, self.m)), self.modulus
        s0, s1 = (1,), ()
        while b:
            q, r = _pdivmod(a, b, p)
            a, b = b, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        return self._index_of_coeffs(_pmul(s0, (pow(a[-1], p - 2, p),), p))

    def _build_tables(self):
        """_exp[k] is the index of g^k, _log its inverse (g = self._gen)."""
        self._exp = [0] * (self.order - 1)
        self._log = [None] * self.order
        cur = 1
        for k in range(self.order - 1):
            self._exp[k] = cur
            self._log[cur] = k
            cur = self._raw_mul(cur, self._gen)

    def _raw_mul(self, a, b):
        """Index of the product of indices a and b, by polynomial arithmetic."""
        p, m = self.p, self.m
        prod = _pmul(_digits(a, p, m), _digits(b, p, m), p)
        return self._index_of_coeffs(_pdivmod(prod, self.modulus, p)[1])

    def _find_generator_coeffs(self):
        """Index of the first element in index order with full multiplicative order."""
        qm1 = self.order - 1
        if qm1 == 1:
            return 1
        primes = _factorize(qm1)
        for idx in range(2, self.order):
            cpoly = _ptrim(_digits(idx, self.p, self.m))
            if all(_ppowmod(cpoly, qm1 // ell, self.modulus, self.p) != (1,)
                   for ell in primes):
                return idx
        raise InternalError("no multiplicative generator found (internal error)")

    def elem(self, coeffs):
        """An int in [0, p) is that prime-field element, whose index and
        residue agree; a tuple gives the coefficients mod p, zero-padded to m."""
        if isinstance(coeffs, int):
            if not 0 <= coeffs < self.p:
                raise RangeError("int coefficient %d outside [0, %d); pass a tuple"
                                 % (coeffs, self.p))
            return FieldElem(self, coeffs)
        if len(coeffs) > self.m:
            raise RangeError("%d coefficients for a degree-%d field" % (len(coeffs), self.m))
        return FieldElem(self, self._index_of_coeffs([c % self.p for c in coeffs]))

    def one(self):
        return FieldElem(self, 1)

    def nonzero_elements(self):
        for idx in range(1, self.order):
            yield FieldElem(self, idx)

    def multiplicative_generator(self):
        """First element in index order with full multiplicative order."""
        return FieldElem(self, self._gen)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.m) if self.m > 1 else "GF(%d)" % self.p


@lru_cache(maxsize=None)
def build_field(p, m):
    """GF(p^m) with the lex-smallest monic irreducible modulus.

    Coefficients are compared low degree first; repeat calls return the
    identical cached spec.
    """
    if not is_prime(p):
        raise NotPrime("p = %d is not prime" % p)
    if not 1 <= m <= 12:
        raise DegreeTooLarge("extension degree %d outside 1..12" % m)
    if m == 1:
        return FieldSpec(p, 1, (0, 1))
    for idx in range(p ** m):
        cand = _digits(idx, p, m) + (1,)
        if _is_irreducible(cand, m, p):
            return FieldSpec(p, m, cand)
    raise InternalError("no irreducible polynomial found (internal error)")


class FieldElem:
    """An element of a FieldSpec, held as its index; arithmetic is the
    FieldSpec's, on idx."""

    __slots__ = ("owner", "idx")

    def __init__(self, owner, idx):
        self.owner = owner
        self.idx = idx

    @property
    def coeffs(self):
        return _digits(self.idx, self.owner.p, self.owner.m)

    def __bool__(self):
        return self.idx != 0

    def __eq__(self, other):
        return (isinstance(other, FieldElem) and self.idx == other.idx
                and self.owner == other.owner)

    def __hash__(self):
        return hash((self.owner.p, self.owner.m, self.idx))

    def __repr__(self):
        return "%r%r" % (list(self.coeffs), self.owner)


def gauss_rank(rows, field):
    """Row-reduce a list of index lists over field in place; returns the rank.

    Columns are eliminated left to right, so rows[:rank] end as the reduced
    pivot rows in the order of their pivot columns, and the pivots among
    the first k columns number the rank of those k columns."""
    if not rows:
        return 0
    mul, add = field.mul, field.add
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        prow = rows[rank] = [mul(x, inv) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [add(a, mul(factor, b), -1) for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank

