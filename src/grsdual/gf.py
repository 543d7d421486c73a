"""Exact arithmetic in GF(p^e) for odd and even prime powers.

Field elements are plain ints in [0, q).  The element with polynomial
coordinates (c_0, c_1, ..., c_{e-1}) over GF(p) -- constant term first --
has index sum(c_i * p**i), so index 0 is the additive zero and index 1 the
multiplicative identity.  Every "smallest" or "first" tie-break in this
package refers to that index order.  `coords` writes many elements'
coordinates in one numpy pass and `elements` reads them back in one.

The modulus polynomial is canonical: the monic irreducible of degree e
over GF(p) whose coefficient vector (constant first) is lexicographically
smallest.  This makes every derived quantity (primitive elements, square
roots, root-of-unity lists, JSON exports) reproducible bit for bit.  The
search tests each candidate with the table-free product below, `_pow_slow`
of a throwaway context modulo that candidate, irreducible or not.

A FieldCtx is immutable after construction and safe to share between
threads.  Every product, inverse, power and square root, scalar or
vectorized, reads one set of int32 numpy arrays (exp, log, inv), built
lazily under a lock, exactly once, for every q <= 2^20.  Scalar ops read
them with `.item()`, so their results stay Python ints.  Subtraction needs
no tables: `_digit_sub` subtracts base-p digits, on ints and int arrays
alike.  Before the tables exist, and wherever they must not be built (the
extension-field character table of a search, which never imports numpy),
`_mul_slow` multiplies from coordinates in plain Python ints, one
schoolbook product for every p, folded back with the reduction rows
`_red` (x^d mod the modulus for d >= e).  The table build takes its
doubling matrices from it.  `Neighbourhoods` parses the character table
into the q-bit square sets that the square-difference search and the
character-sum check intersect.

Bulk linear algebra (see `linalg`) and the GRS layer (`grs`: dual
coefficients, generator rows and the theorem-3-5 block products) read
one numpy op provider per field, `np_ops()`, indexed like tables
(`mul[x, y]`, `sub[x, y]`, `inv[x]`), on arrays and scalars alike.  For
odd q <= 2^10 `mul` and `sub` are also evaluated once on every pair and
kept as dense q x q int16 tables, so each op is a single lookup;
otherwise (characteristic 2, where XOR and the exp/log lookup beat a
q x q gather, or q > 2^10) they are evaluated on what they are given.
"""

from __future__ import annotations

import reprlib
import threading
from itertools import chain
from typing import NamedTuple, Optional, Sequence

from .errors import ConstructionInfeasible, GrsDualError

Felt = int  # a field element: its index in [0, q)

FIELD_SIZE_LIMIT = 1 << 20
_NP_TABLE_LIMIT = 1 << 10   # tabulate the numpy ops for odd q up to this


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division; []
    for n < 2."""
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def bounded_power(p: int, e: int) -> int:
    """p**e, or GrsDualError past FIELD_SIZE_LIMIT without forming a huge
    power first."""
    if ((abs(p) > 1 and e >= FIELD_SIZE_LIMIT.bit_length())
            or p ** e > FIELD_SIZE_LIMIT):
        raise GrsDualError(f"{p}^{e} exceeds the limit {FIELD_SIZE_LIMIT}")
    return p ** e


def split_prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^e with p prime; raises GrsDualError otherwise."""
    if q < 2:
        raise GrsDualError(f"{q} is not a prime power")
    if q > FIELD_SIZE_LIMIT:
        raise GrsDualError(f"{q} exceeds the limit {FIELD_SIZE_LIMIT}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise GrsDualError(f"{q} is not a prime power")
    p, e = primes[0], 1
    while p ** e != q:
        e += 1
    return p, e


# --- polynomial helpers over GF(p) --------------------------------------
# Dense coefficient lists, constant term first, trailing zeros trimmed.

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    # f need not be monic; its leading coefficient is inverted mod p
    a = list(a)
    df = len(f) - 1
    lead_inv = pow(f[-1], p - 2, p) if f[-1] != 1 else 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            c = (c * lead_inv) % p
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    del a[df:]
    return _ptrim(a)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Monic f of degree >= 1 has no factor of degree <= deg(f)//2.

    Uses gcd(f, x^(p^d) - x): that binomial is the product of all monic
    irreducibles of degree dividing d, so a nontrivial gcd for some
    d <= deg(f)//2 is exactly reducibility.  x^(p^d) mod f comes from
    the table-free product, `_pow_slow` of a FieldCtx over f: it is plain
    polynomial arithmetic mod any monic f, irreducible or not.  That
    context is local and never cached, and only its private ops run: a
    traced benchmark run counts the public ones inside `make_field`.
    """
    e = len(f) - 1
    if e == 1:
        return True
    if f[0] == 0:
        return False  # divisible by x
    ring = FieldCtx(p, e, f)
    t = x = p  # the polynomial x, as an index
    for _ in range(e // 2):
        t = ring._pow_slow(t, p)
        if len(_pgcd(f, _ptrim(ring.coeffs(ring._sub(t, x))), p)) != 1:
            return False
    return True


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lex-smallest (constant term first) monic irreducible of degree e."""
    if e == 1:
        return (0, 1)
    # candidates with zero constant term are divisible by x, skip them;
    # the scan counts with c_0 as the most significant digit so ascending
    # counter order equals lexicographic order on (c_0, ..., c_{e-1})
    weights = [p ** (e - 1 - j) for j in range(e)]
    for idx in range(p ** (e - 1), p ** e):
        cs = [(idx // w) % p for w in weights]
        f = cs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise GrsDualError(f"no irreducible of degree {e} over GF({p})")


def json_int(value, name: str) -> int:
    """value if it is a JSON integer (not a bool), else ValueError, which
    quotes a long value abbreviated."""
    if type(value) is not int:
        raise ValueError(
            f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


def _digit_sub(p: int, e: int):
    """x - y in GF(p^e), base-p digit by digit, on ints or int arrays."""
    if e == 1:
        return lambda x, y: (x - y) % p
    if p == 2:
        return lambda x, y: x ^ y
    weights = [p ** i for i in range(e)]

    def sub(x, y):
        # (x // w - y // w) mod p is the digit difference at weight w
        z = 0
        for w in weights:
            z = z + (x // w - y // w) % p * w
        return z
    return sub


class _Indexed:
    """A vectorized op that reads like a table: op[x, y] or op[x]."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, key):
        return self.fn(*key) if isinstance(key, tuple) else self.fn(key)


class _NpOps(NamedTuple):
    """What the `linalg` kernels and `grs.difference_products` read:
    sub[x, y], mul[x, y], inv[x].  sub and mul are the dense q x q int16
    tables for odd q up to 2^10 and `_Indexed` ops otherwise; inv is the
    int32 inverse array."""
    sub: object
    mul: object
    inv: object


class FieldCtx:
    """Immutable arithmetic context for one finite field GF(p^e)."""

    __slots__ = (
        "p", "e", "q", "modulus", "_red", "_sub", "_lock",
        "_tables", "_prim", "_chi", "_np_ops",
    )

    def __init__(self, p: int, e: int, modulus: Sequence[int]):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = tuple(int(c) % p for c in modulus)
        # reduction rows: coefficients of x^(e+j) mod modulus, j = 0..e-2
        red: list[tuple[int, ...]] = []
        if e > 1:
            cur = [(-c) % p for c in self.modulus[:e]]
            red.append(tuple(cur))
            for _ in range(e - 2):
                cur = [0] + cur
                top = cur.pop()
                if top:
                    cur = [(cv + top * bv) % p for cv, bv in zip(cur, red[0])]
                red.append(tuple(cur))
        self._red = tuple(red)
        self._sub = _digit_sub(p, e)
        self._lock = threading.RLock()
        self._tables = None  # int32 numpy (exp, log, inv)
        self._prim: Optional[int] = None
        self._chi: Optional[memoryview] = None
        self._np_ops: Optional[_NpOps] = None

    def __repr__(self) -> str:
        return f"GF({self.q})"

    # --- element <-> coordinate vector ----------------------------------

    def coeffs(self, x: Felt) -> list[int]:
        """Coordinates of x over GF(p), constant term first, length e."""
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(x % p)
            x //= p
        return out

    def coords(self, xs: Sequence[Felt]) -> list[list[int]]:
        """coeffs of every element of xs, from one vectorized digit split."""
        import numpy as np

        x = np.array(xs, dtype=np.int64).reshape(-1, 1)
        return (x // self.p ** np.arange(self.e) % self.p).tolist()

    def elements(self, items: Sequence[Sequence[int]]):
        """`element` of every cs in items as an int array, the inverse of
        `coords`: one pass checks the lengths and types, numpy the range.
        On any bad list the scalar walk raises the first one's ValueError."""
        import numpy as np

        p, e = self.p, self.e
        if (set(map(len, items)) <= {e}
                and set(map(type, chain.from_iterable(items))) <= {int}):
            try:  # an unsigned dtype overflows on a negative coordinate
                c = np.fromiter(chain.from_iterable(items),
                                np.min_scalar_type(p), len(items) * e)
            except OverflowError:
                pass
            else:
                if (c < p).all():
                    return c.reshape(-1, e) @ p ** np.arange(e, dtype=np.int32)
        return np.array([self.element(cs) for cs in items], dtype=np.int32)

    def element(self, cs: Sequence[int]) -> Felt:
        """Element with the given length-e coordinate vector."""
        if len(cs) != self.e:
            raise ValueError(f"expected {self.e} coordinates, got {len(cs)}")
        x = 0
        for c in reversed(cs):
            if not 0 <= json_int(c, "coordinate") < self.p:
                raise ValueError(f"coordinate {reprlib.repr(c)} out of range "
                                 f"[0, {self.p})")
            x = x * self.p + c
        return x

    # --- ring operations -------------------------------------------------

    def add(self, x: Felt, y: Felt) -> Felt:
        return self._sub(x, self._sub(0, y))

    def neg(self, x: Felt) -> Felt:
        return self._sub(0, x)

    def sub(self, x: Felt, y: Felt) -> Felt:
        return self._sub(x, y)

    def mul(self, x: Felt, y: Felt) -> Felt:
        exp, log, _ = self._arrays()
        return exp.item(log.item(x) + log.item(y))

    def _mul_slow(self, x: Felt, y: Felt) -> Felt:
        """The product from coordinates, without tables.

        Schoolbook: the coordinates of x and y multiply into the 2e - 1
        coordinates of the unreduced product, each degree d >= e is folded
        back with its reduction row `_red[d - e]` (x^d mod the modulus),
        as `verify._products` folds, and each of the e coordinates left is
        taken mod p.  The same code for every p, p = 2 included.
        """
        p, e = self.p, self.e
        if e == 1:
            return (x * y) % p
        b = self.coeffs(y)
        t = [0] * (2 * e - 1)
        for i, c in enumerate(self.coeffs(x)):
            if c:
                for j, d in enumerate(b, i):
                    t[j] += c * d
        for row, c in zip(self._red, t[e:]):
            c %= p
            if c:
                for i, r in enumerate(row):
                    t[i] += c * r
        z = 0
        for c in reversed(t[:e]):
            z = z * p + c % p
        return z

    def inverse(self, x: Felt) -> Felt:
        if x == 0:
            raise GrsDualError("zero has no multiplicative inverse")
        return self._arrays()[2].item(x)

    def power(self, x: Felt, n: int) -> Felt:
        """x^n from the exp/log tables; n < 0 allowed for nonzero x."""
        if n < 0:
            return self.power(self.inverse(x), -n)
        if x == 0:
            return 1 if n == 0 else 0
        exp, log, _ = self._arrays()
        return exp.item(log.item(x) * n % (self.q - 1))

    def _pow_slow(self, x: Felt, n: int) -> Felt:
        acc = 1
        while n:
            if n & 1:
                acc = self._mul_slow(acc, x)
            n >>= 1
            if n:
                x = self._mul_slow(x, x)
        return acc

    # --- structure queries -----------------------------------------------

    def _subfield_degree(self, r: int) -> int:
        d, m = 0, r
        while m > 1 and m % self.p == 0:
            m //= self.p
            d += 1
        if m != 1 or d == 0 or self.e % d != 0:
            raise ConstructionInfeasible(
                f"{r} is not the order of a subfield of GF({self.q})")
        return d

    def in_subfield(self, x: Felt, r: int) -> bool:
        """True iff x lies in the subfield GF(r), i.e. x^r = x."""
        self._subfield_degree(r)
        return self.power(x, r) == x

    def subfield_elements(self, r: int) -> list[Felt]:
        """The r elements of GF(r) inside GF(q), in index order.

        GF(r)* is the group of (r-1)-th roots of unity, r - 1 powers of
        one generator, so no scan of GF(q) is needed.  This fixed list is
        the canonical labeling of the subfield used by the coset
        constructions.
        """
        self._subfield_degree(r)
        out = [0] + self.roots_of_unity(r - 1)
        if len(set(out)) != r or any(self.power(x, r) != x for x in out):
            raise GrsDualError("subfield enumeration is not GF(r)")
        return out

    def primitive_element(self) -> Felt:
        """Smallest-index element of multiplicative order q - 1."""
        if self._prim is None:
            with self._lock:
                if self._prim is None:
                    self._prim = self._find_primitive()
        return self._prim

    def _find_primitive(self) -> Felt:
        q1 = self.q - 1
        primes = _prime_factors(q1)
        for x in range(1, self.q):
            if all(self._pow_slow(x, q1 // ell) != 1 for ell in primes):
                return x
        raise GrsDualError("no primitive element found")

    def quadratic_character(self, x: Felt) -> int:
        """0 for x = 0, +1 for nonzero squares, -1 for nonsquares (q odd).

        Euler's criterion, x^((q-1)/2), read from the exp/log arrays.
        character_table reads neither: it walks the orbits of alpha with
        digit shifts and squares with `_mul_slow`, so each checks the other.
        """
        if self.p == 2:
            raise ConstructionInfeasible(
                "quadratic character is undefined in characteristic 2")
        if x == 0:
            return 0
        return 1 if self.power(x, (self.q - 1) // 2) == 1 else -1

    def character_table(self) -> memoryview:
        """Quadratic character of every element, indexed by element.

        A read-only memoryview of q signed bytes (format "b"), built once
        and shared by every caller, so none may release it: chi[x] is 0,
        1 or -1, `.tolist()` gives them as a list, and assigning into it
        raises TypeError.  `_square_bitset` parses its bytes.

        A prime field marks the squares x^2 mod q, x = 1 .. (q-1)/2, each
        the last one plus the odd number 2x - 1.  An extension field needs
        one product per orbit of multiplication by alpha, the element x
        (index p): alpha * x is a base-p digit shift, (x mod p^(e-1)) p,
        plus the top digit times x^e mod the modulus (`_red[0]`) added
        digit-wise, so walking an orbit takes no product.  One pass of
        that step numbers every nonzero element in walk order, which gives
        its orbit and the parity of its place there.  Each orbit has
        ord(alpha) elements and there are m = (q-1)/ord(alpha) of them;
        alpha = g^k with gcd(k, q-1) = m, so chi(alpha) = -1 exactly when
        m is odd.  One `_mul_slow` squaring of each orbit's first element
        c then fixes every sign:

        - chi(alpha) = 1: chi is constant on each orbit.  Every square
          (c alpha^j)^2 lies in the orbit of c^2, so the orbits the c^2
          reach are the square ones and the rest are not.  When ord(alpha)
          is odd, -1 is not a power of alpha, and the orbit of -c needs no
          squaring of its own: (-c)^2 = c^2.
        - chi(alpha) = -1: chi alternates along each orbit.  m is odd, so
          squaring permutes the orbits, and the place of the square c^2
          in its orbit gives the sign of that orbit's first element.

        alpha, outside GF(p), has order at least 3, so that is at most
        (q-1)/4 squarings, where squaring half the field took (q-1)/2.
        Euler's criterion per orbit would cost more than it saves: for
        e = 2, alpha often has order 3 or 4.  Only built-in types: the
        exp/log tables would import numpy, and a search never does.
        """
        if self.p == 2:
            raise ConstructionInfeasible(
                "quadratic character is undefined in characteristic 2")
        if self._chi is None:
            with self._lock:
                if self._chi is None:
                    q = self.q
                    if self.e == 1:
                        marks = bytearray(b"\xff") * q  # -1 as a byte
                        marks[0] = square = 0
                        for odd in range(1, q - 1, 2):
                            square += odd  # (x + 1)^2 = x^2 + 2x + 1
                            if square >= q:
                                square -= q
                            marks[square] = 1
                        marks = bytes(marks)
                    else:
                        marks = self._orbit_character_table()
                    self._chi = memoryview(marks).cast("b")
        return self._chi

    def _orbit_character_table(self) -> bytes:
        """`character_table`'s bytes for e > 1, from the orbits of alpha."""
        p, e, q = self.p, self.e, self.q
        top = q // p  # weight of the top digit
        red = self._red[0]  # x^e
        # alpha * x, for x with top digit t, is x * p + shift[t] (the top
        # digit dropped and t x^e's digit at weight 1 added), then for each
        # other weight w where t x^e has a nonzero digit d, +d w where the
        # digit there is below p - d, else (d - p) w
        shift, adds = [], []
        for t in range(p):
            shift.append(t * red[0] % p - t * q)
            digits = []
            for i in range(1, e):
                d = t * red[i] % p
                if d:
                    w = p ** i
                    digits.append((w, p - d, d * w, (d - p) * w))
            adds.append(tuple(digits))
        # x's number in walk order, from 1
        place = memoryview(bytearray(4 * q)).cast("i")
        # (-c)^2 = c^2, so when ord(alpha) divides the odd part of q - 1,
        # -1 is not a power of alpha, and the orbit of -c, walked right
        # after c's, needs no squaring of its own
        paired = self._pow_slow(p, (q - 1) // ((q - 1) & (1 - q))) == 1
        firsts = []  # the elements that get squared
        m = n = 0
        for c in range(1, q):
            if place[c]:
                continue
            firsts.append(c)
            # neither x is placed: c by the check above, and -c is in
            # neither c's orbit (-1 is no power of alpha) nor an earlier
            # first's or its negative's, whose walks would have placed c
            for x in (c, self._sub(0, c)) if paired else (c,):
                m += 1
                while not place[x]:
                    n += 1
                    place[x] = n
                    t = x // top
                    x = x * p + shift[t]
                    for w, below, up, down in adds[t]:
                        x += up if x // w % p < below else down
            if n == q - 1:
                break
        size = (q - 1) // m
        alternate = m % 2  # chi(alpha) = -1
        sign = [0xff] * m  # chi's byte at each orbit's first element
        for c in firsts:
            k = place[self._mul_slow(c, c)] - 1
            sign[k // size] = 0xff if alternate and k % 2 else 1
        by_place = [0]  # chi's byte at the element numbered n, at n
        for s in sign:  # s ^ 0xfe is -s as a byte
            by_place += ([s, s ^ 0xfe] * (size // 2) if alternate
                         else [s] * size)
        return bytes([by_place[n] for n in place])

    def sqrt(self, x: Felt) -> Felt:
        """Deterministic square root: the root of smaller index.

        In characteristic 2 the root x^(q/2) is unique.  For odd q, x is a
        square exactly when k = log x is even, and its roots are
        +/-g^(k/2); the one of smaller index is returned.
        """
        if x == 0:
            return 0
        if self.p == 2:
            return self.power(x, self.q // 2)
        exp, log, _ = self._arrays()
        k = log.item(x)
        if k % 2:
            raise GrsDualError(f"{x} is not a square in GF({self.q})")
        y = exp.item(k // 2)
        return min(y, self.neg(y))

    def roots_of_unity(self, m: int) -> list[Felt]:
        """The m distinct solutions of z^m = 1, sorted by index."""
        if m < 1 or (self.q - 1) % m != 0:
            raise ConstructionInfeasible(
                f"{m} does not divide q - 1 = {self.q - 1}")
        z = self.power(self.primitive_element(), (self.q - 1) // m)
        out, cur = [], 1
        for _ in range(m):
            out.append(cur)
            cur = self.mul(cur, z)
        if len(set(out)) != m:
            raise GrsDualError("root-of-unity generator has wrong order")
        return sorted(out)

    # --- lazily built tables ---------------------------------------------

    def _arrays(self):
        """(exp, log, inv), built on first use."""
        if self._tables is None:
            self._ensure_tables()
        return self._tables

    def _ensure_tables(self) -> None:
        """Build the int32 arrays exp, log and inv, once.

        The q - 1 powers of g come by doubling: exp[n:2n] is g^n exp[:n],
        and multiplying by g^n maps coordinates by the e x e matrix with
        row i = g^n x^i.  exp holds them twice, so log x + log y needs no
        reduction mod q - 1, then zeros up to 4(q - 1): log 0 is 2(q - 1),
        so a zero factor reads a zero without a branch.
        """
        import numpy as np

        with self._lock:
            if self._tables is not None:
                return
            p, e, q1 = self.p, self.e, self.q - 1
            powers = [p ** i for i in range(e)]  # the elements x^i
            # wide enough for a sum of e coordinate products
            wide = np.uint8 if e * (p - 1) ** 2 < 256 else np.int64
            c = np.zeros((e, q1), dtype=wide)  # c[i, k]: coordinate i of g^k
            c[0, 0] = 1
            n, gn = 1, self.primitive_element()
            while n < q1:
                m = min(n, q1 - n)
                rows = [self.coeffs(self._mul_slow(gn, x)) for x in powers]
                np.einsum("ij,ik->jk", np.array(rows, dtype=wide), c[:, :m],
                          out=c[:, n:n + m])
                c[:, n:n + m] %= p
                n += m
                gn = self._mul_slow(gn, gn)
            gk = np.einsum("ik,i->k", c, np.array(powers, dtype=np.int32))
            del c  # the largest array, freed before exp and log are built
            exp = np.zeros(4 * q1 + 1, dtype=np.int32)
            exp[:q1] = exp[q1:2 * q1] = gk
            del gk
            log = np.full(q1 + 1, 2 * q1, dtype=np.int32)
            steps = np.arange(q1, dtype=np.int32)
            log[exp[:q1]] = steps
            # log[exp[i]] == i for every i only if the q - 1 powers differ
            if exp[:q1].min() == 0 or (log[exp[:q1]] != steps).any():
                raise GrsDualError(f"bad exp table for GF({self.q})")
            inv = np.zeros(q1 + 1, dtype=np.int32)
            inv[1:] = exp[q1 - log[1:]]
            self._tables = exp, log, inv

    def np_ops(self) -> _NpOps:
        """Numpy ops for bulk linear algebra, built once."""
        if self._np_ops is None:
            with self._lock:
                if self._np_ops is None:
                    self._np_ops = self._build_np_ops()
        return self._np_ops

    def _build_np_ops(self) -> _NpOps:
        """`sub` and `mul` as read-only dense q x q int16 tables for odd q
        up to 2^10.

        `mul` is an int16 copy of exp at log x + log y.  `sub` grows from
        the p x p table of GF(p) one base-p digit at a time: x - y below
        p^(i+1) is the GF(p) difference of the digits at weight p^i, times
        p^i, plus x - y of the lower digits, one broadcast add.  Otherwise
        `sub` is `_digit_sub` (XOR for p = 2, which with the exp/log lookup
        beats the tables at every size) and `mul` the exp/log lookup.
        """
        import numpy as np

        exp, log, inv = self._arrays()
        p, e, q = self.p, self.e, self.q

        def mul(x, y):
            return exp[log[x] + log[y]]

        if p == 2 or q > _NP_TABLE_LIMIT:
            return _NpOps(_Indexed(self._sub), _Indexed(mul), inv)
        # mul first: its q x q index array is freed before sub is built.
        # Log sums stay below 4q and every entry below q: int16 holds both
        log16 = log.astype(np.int16)
        products = exp.astype(np.int16)[log16[:, None] + log16[None, :]]
        digits = np.arange(p, dtype=np.int16)
        top = (digits[:, None] - digits[None, :]) % p
        sub = top
        for w in (p ** i for i in range(1, e)):
            sub = (top[:, None, :, None] * w + sub[None, :, None, :]
                   ).reshape(w * p, w * p)
        products.flags.writeable = sub.flags.writeable = False
        return _NpOps(sub, products, inv)

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


# chi's bytes as binary digits: 1 (a square) to "1", 0 and -1 to "0"
_BINARY_DIGITS = bytes.maketrans(b"\0\1\xff", b"010")


def _square_bitset(chi: memoryview) -> int:
    """N(0), bit y set iff chi[y] = 1, from a `FieldCtx.character_table`:
    its bytes reversed (bit q - 1 first), translated to binary digits and
    parsed by one int(..., 2), with no Python-level loop over the
    elements."""
    return int(chi.tobytes()[::-1].translate(_BINARY_DIGITS), 2)


class Neighbourhoods:
    """N(x) = {y : chi(y - x) = 1} for the elements x of GF(q), odd q, as
    q-bit ints, bit y for element y.

    N(0) is the set of nonzero squares (`_square_bitset`), and N(x) is
    N(0) translated by x.  Adding d digit-wise at the base-p weight w
    moves the elements whose digit there is below p - d up by d w and the
    rest down by (p - d) w: one masked pair of shifts of the bitset per
    nonzero digit of d, a rotation for prime q.  Each call translates the
    last N returned, so the digits x shares with the last x cost nothing.
    Memory holds a q-bit int per base-p digit.
    """

    __slots__ = ("_p", "_combs", "_last", "_bits")

    def __init__(self, ctx: FieldCtx):
        p, q, full = ctx.p, ctx.q, (1 << ctx.q) - 1
        self._p = p
        combs = []  # (w, one bit at the start of each block of p w elements)
        for w in (p ** i for i in range(ctx.e)):
            # by doubling: dividing 2^q - 1 by 2^(p w) - 1 takes time
            # quadratic in q for the middle weights
            comb, span = 1, p * w
            while span < q:
                comb |= comb << span
                span *= 2
            combs.append((w, comb & full))
        self._combs = tuple(combs)
        self._last = 0
        self._bits = _square_bitset(ctx.character_table())

    def __call__(self, x: Felt) -> int:
        p, y, bits = self._p, self._last, self._bits
        for w, comb in self._combs:
            d = (x // w - y // w) % p
            if d:
                low = bits & ((comb << (p - d) * w) - comb)
                bits = (low << d * w) | ((bits ^ low) >> (p - d) * w)
        self._last, self._bits = x, bits
        return bits


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}
_CACHE_LOCK = threading.Lock()


def make_field(p: int, e: int = 1) -> FieldCtx:
    """Field context for GF(p^e) with the canonical modulus.

    Deterministic across runs: the modulus is the lexicographically
    smallest monic irreducible (constant term first), and for e = 1 it is
    the polynomial x.
    """
    # type(), not isinstance: a bool is an int, and True == 1 would share
    # the cache slot of e = 1
    if type(p) is not int or type(e) is not int or e < 1:
        raise ValueError("p and e must be ints with e >= 1")
    bounded_power(p, e)  # before the primality test, which is slow for huge p
    if not is_prime(p):
        raise GrsDualError(f"{p} is not prime")
    key = (p, e)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        with _CACHE_LOCK:
            ctx = _FIELD_CACHE.get(key)
            if ctx is None:
                ctx = FieldCtx(p, e, _canonical_modulus(p, e))
                _FIELD_CACHE[key] = ctx
    return ctx


def field_for_order(q: int) -> FieldCtx:
    """Field context for GF(q), factoring q as a prime power."""
    p, e = split_prime_power(q)
    return make_field(p, e)


def field_from_json(obj: dict) -> FieldCtx:
    """Rebuild a context from its JSON fragment, checking the modulus."""
    p, e = json_int(obj["p"], '"p"'), json_int(obj["e"], '"e"')
    ctx = make_field(p, e)
    mod = tuple(json_int(c, "modulus coefficient") for c in obj["modulus"])
    if mod != ctx.modulus:
        raise ValueError(
            f"modulus {list(mod)} is not the canonical modulus "
            f"{list(ctx.modulus)} for GF({p}^{e})")
    return ctx
