"""Exact arithmetic in GF(p^e) for odd and even prime powers.

Field elements are plain ints in [0, q).  The element with polynomial
coordinates (c_0, c_1, ..., c_{e-1}) over GF(p) -- constant term first --
has index sum(c_i * p**i), so index 0 is the additive zero and index 1 the
multiplicative identity.  Every "smallest" or "first" tie-break in this
package refers to that index order.

The modulus polynomial is canonical: the monic irreducible of degree e
over GF(p) whose coefficient vector (constant first) is lexicographically
smallest.  This makes every derived quantity (primitive elements, square
roots, root-of-unity lists, JSON exports) reproducible bit for bit.

A FieldCtx is immutable after construction and safe to share between
threads.  Scalar multiplication falls back to polynomial arithmetic for
large fields and switches to exp/log tables once they are built; tables
are created lazily under a lock, exactly once.

Bulk linear algebra (see `linalg`) and the GRS layer (`grs`: dual
coefficients, generator rows and the theorem-3-5 block products) read
one numpy op provider per field, `np_ops()`, indexed like tables
(`mul[x, y]`, `sub[x, y]`, `inv[x]`).  Subtraction is always vectorized.
For q <= 2^16 `mul` and `inv` are computed from O(q) exp/log arrays, and
for q <= 2^10 all three are also evaluated once on every pair and kept
as dense q x q tables, so each op is a single lookup.  Above 2^16 there
are no exp/log tables, and the scalar `mul` and `inverse` are applied
elementwise.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from .errors import (
    BadOrderError,
    BadSubfieldError,
    DivisionByZeroError,
    EvenCharacteristicError,
    InternalCheckError,
    NonResidueError,
    NotPrimeError,
    TooLargeError,
)

Felt = int  # a field element: its index in [0, q)

FIELD_SIZE_LIMIT = 1 << 20
_EXP_TABLE_LIMIT = 1 << 16  # build exp/log tables up to this q
_NP_TABLE_LIMIT = 1 << 10   # tabulate the numpy ops up to this q


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def bounded_power(p: int, e: int) -> int:
    """p**e, or TooLargeError past FIELD_SIZE_LIMIT without forming a huge
    power first."""
    if ((abs(p) > 1 and e >= FIELD_SIZE_LIMIT.bit_length())
            or p ** e > FIELD_SIZE_LIMIT):
        raise TooLargeError(f"{p}^{e} exceeds the limit {FIELD_SIZE_LIMIT}")
    return p ** e


def split_prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^e with p prime; raises NotPrimeError otherwise."""
    if q < 2:
        raise NotPrimeError(f"{q} is not a prime power")
    if q > FIELD_SIZE_LIMIT:
        raise TooLargeError(f"{q} exceeds the limit {FIELD_SIZE_LIMIT}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotPrimeError(f"{q} is not a prime power")
    return p, e


# --- polynomial helpers over GF(p) --------------------------------------
# Dense coefficient lists, constant term first, trailing zeros trimmed.

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


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
    d <= deg(f)//2 is exactly reducibility.
    """
    e = len(f) - 1
    if e == 1:
        return True
    if f[0] == 0:
        return False  # divisible by x
    t = [0, 1]  # the polynomial x
    for _ in range(e // 2):
        # t <- t^p mod f by square-and-multiply on the exponent p
        base, acc, n = t, [1], p
        while n:
            if n & 1:
                acc = _pmod(_pmul(acc, base, p), f, p)
            n >>= 1
            if n:
                base = _pmod(_pmul(base, base, p), f, p)
        t = acc
        diff = list(t)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _ptrim(diff), p)
        if len(g) != 1:
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
    raise InternalCheckError(f"no irreducible of degree {e} over GF({p})")


def json_int(value, name: str) -> int:
    """value if it is a JSON integer (not a bool), else ValueError."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class _Indexed:
    """A vectorized op that reads like a table: op[x, y] or op[x]."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, key):
        return self.fn(*key) if isinstance(key, tuple) else self.fn(key)


class _NpOps:
    """What `linalg._np_echelon` and `grs.difference_products` read:
    sub[x, y], mul[x, y], inv[x]."""

    __slots__ = ("sub", "mul", "inv")

    def __init__(self, sub, mul, inv):
        self.sub = sub
        self.mul = mul
        self.inv = inv


class FieldCtx:
    """Immutable arithmetic context for one finite field GF(p^e)."""

    __slots__ = (
        "p", "e", "q", "modulus", "_red", "_lock",
        "_exp", "_log", "_prim", "_nonres", "_chi", "_np_ops",
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
        self._lock = threading.RLock()
        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        self._prim: Optional[int] = None
        self._nonres: Optional[int] = None
        self._chi: Optional[list[int]] = None
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

    def element(self, cs: Sequence[int]) -> Felt:
        """Element with the given length-e coordinate vector."""
        if len(cs) != self.e:
            raise ValueError(f"expected {self.e} coordinates, got {len(cs)}")
        x = 0
        for c in reversed(cs):
            if not 0 <= json_int(c, "coordinate") < self.p:
                raise ValueError(f"coordinate {c} out of range [0, {self.p})")
            x = x * self.p + c
        return x

    # --- ring operations -------------------------------------------------

    def add(self, x: Felt, y: Felt) -> Felt:
        p = self.p
        if self.e == 1:
            return (x + y) % p
        if p == 2:
            return x ^ y
        z, shift = 0, 1
        while x or y:
            z += ((x % p) + (y % p)) % p * shift
            x //= p
            y //= p
            shift *= p
        return z

    def neg(self, x: Felt) -> Felt:
        p = self.p
        if self.e == 1:
            return (p - x) % p
        if p == 2:
            return x
        z, shift = 0, 1
        while x:
            z += (p - (x % p)) % p * shift
            x //= p
            shift *= p
        return z

    def sub(self, x: Felt, y: Felt) -> Felt:
        return self.add(x, self.neg(y))

    def mul(self, x: Felt, y: Felt) -> Felt:
        if self._exp is None and self.q <= _EXP_TABLE_LIMIT:
            self._ensure_tables()
        if self._exp is not None:
            if x == 0 or y == 0:
                return 0
            return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]
        return self._mul_slow(x, y)

    def _mul_slow(self, x: Felt, y: Felt) -> Felt:
        p, e = self.p, self.e
        if e == 1:
            return (x * y) % p
        a = self.coeffs(x)
        b = self.coeffs(y)
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        for d in range(2 * e - 2, e - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i, rv in enumerate(self._red[d - e]):
                    if rv:
                        prod[i] = (prod[i] + c * rv) % p
        z = 0
        for c in reversed(prod[:e]):
            z = z * p + c
        return z

    def inverse(self, x: Felt) -> Felt:
        if x == 0:
            raise DivisionByZeroError("zero has no multiplicative inverse")
        if self._exp is None and self.q <= _EXP_TABLE_LIMIT:
            self._ensure_tables()
        if self._exp is not None:
            return self._exp[(self.q - 1 - self._log[x]) % (self.q - 1)]
        return self._pow_slow(x, self.q - 2)

    def div(self, x: Felt, y: Felt) -> Felt:
        return self.mul(x, self.inverse(y))

    def power(self, x: Felt, n: int) -> Felt:
        """x^n with square-and-multiply; n < 0 allowed for nonzero x."""
        if n < 0:
            return self.power(self.inverse(x), -n)
        if x == 0:
            return 1 if n == 0 else 0
        if self._exp is None and self.q <= _EXP_TABLE_LIMIT:
            self._ensure_tables()
        if self._exp is not None:
            return self._exp[(self._log[x] * n) % (self.q - 1)]
        return self._pow_slow(x, n)

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
            raise BadSubfieldError(
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
            raise InternalCheckError("subfield enumeration is not GF(r)")
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
        primes = []
        m = q1
        f = 2
        while f * f <= m:
            if m % f == 0:
                primes.append(f)
                while m % f == 0:
                    m //= f
            f += 1
        if m > 1:
            primes.append(m)
        for x in range(1, self.q):
            if all(self._pow_slow(x, q1 // ell) != 1 for ell in primes):
                return x
        raise InternalCheckError("no primitive element found")

    def quadratic_character(self, x: Felt) -> int:
        """0 for x = 0, +1 for nonzero squares, -1 for nonsquares (q odd).

        Euler's criterion, x^((q-1)/2); it never reads character_table,
        so each can be checked against the other.
        """
        if self.p == 2:
            raise EvenCharacteristicError(
                "quadratic character is undefined in characteristic 2")
        if x == 0:
            return 0
        return 1 if self.power(x, (self.q - 1) // 2) == 1 else -1

    def character_table(self) -> list[int]:
        """Quadratic character of every element, indexed by element.

        Built from squares: x and -x have the same square, so it squares
        one of each pair, the x whose leading base-p digit is at most
        (p-1)/2, and marks the (q-1)/2 results.  Building the exp/log
        tables would take twice as many products, so they are used only
        when they already exist.
        """
        if self.p == 2:
            raise EvenCharacteristicError(
                "quadratic character is undefined in characteristic 2")
        if self._chi is None:
            with self._lock:
                if self._chi is None:
                    mul = self.mul if self._exp is not None else self._mul_slow
                    chi = [-1] * self.q
                    chi[0] = 0
                    for i in range(self.e):
                        w = self.p ** i
                        for x in range(w, w * (self.p + 1) // 2):
                            chi[mul(x, x)] = 1
                    self._chi = chi
        return self._chi

    def smallest_nonresidue(self) -> Felt:
        """Smallest-index element of character -1 (q odd)."""
        if self.p == 2:
            raise EvenCharacteristicError("every element is a square")
        if self._nonres is None:
            with self._lock:
                if self._nonres is None:
                    half = (self.q - 1) // 2
                    for x in range(2, self.q):
                        if self.power(x, half) != 1:
                            self._nonres = x
                            break
                    else:
                        raise InternalCheckError("no quadratic nonresidue")
        return self._nonres

    def sqrt(self, x: Felt) -> Felt:
        """Deterministic square root: the root of smaller index.

        In characteristic 2 the root x^(q/2) is unique.  For odd q a
        Tonelli-Shanks descent runs inside the multiplicative group, with
        the auxiliary nonresidue fixed as the smallest-index one; of the
        two roots +/-y the smaller index is returned.
        """
        if x == 0:
            return 0
        if self.p == 2:
            return self.power(x, self.q // 2)
        if self.quadratic_character(x) == -1:
            raise NonResidueError(f"{x} is not a square in GF({self.q})")
        m, s = self.q - 1, 0
        while m % 2 == 0:
            m //= 2
            s += 1
        y = self.power(x, (m + 1) // 2)
        t = self.power(x, m)
        if t != 1:
            c = self.power(self.smallest_nonresidue(), m)
            while t != 1:
                i, tt = 0, t
                while tt != 1:
                    tt = self.mul(tt, tt)
                    i += 1
                b = c
                for _ in range(s - i - 1):
                    b = self.mul(b, b)
                y = self.mul(y, b)
                c = self.mul(b, b)
                t = self.mul(t, c)
                s = i
        other = self.neg(y)
        return y if y <= other else other

    def roots_of_unity(self, m: int) -> list[Felt]:
        """The m distinct solutions of z^m = 1, sorted by index."""
        if m < 1 or (self.q - 1) % m != 0:
            raise BadOrderError(f"{m} does not divide q - 1 = {self.q - 1}")
        z = self.power(self.primitive_element(), (self.q - 1) // m)
        out, cur = [], 1
        for _ in range(m):
            out.append(cur)
            cur = self.mul(cur, z)
        if len(set(out)) != m:
            raise InternalCheckError("root-of-unity generator has wrong order")
        return sorted(out)

    # --- lazily built tables ---------------------------------------------

    def _ensure_tables(self) -> None:
        if self._exp is not None:
            return
        with self._lock:
            if self._exp is not None:
                return
            g = self._prim if self._prim is not None else self._find_primitive()
            self._prim = g
            q1 = self.q - 1
            exp = [0] * max(q1, 1)
            log = [0] * self.q
            cur = 1
            for i in range(q1):
                exp[i] = cur
                log[cur] = i
                cur = self._mul_slow(cur, g)
            self._log = log
            self._exp = exp

    def np_ops(self) -> _NpOps:
        """Numpy ops for bulk linear algebra, built once."""
        if self._np_ops is None:
            with self._lock:
                if self._np_ops is None:
                    self._np_ops = self._build_np_ops()
        return self._np_ops

    def _build_np_ops(self) -> _NpOps:
        import numpy as np

        q, p, e = self.q, self.p, self.e
        if e == 1:
            def sub(x, y):
                return (x - y) % p
        elif p == 2:
            def sub(x, y):
                return x ^ y
        else:
            weights = [p ** i for i in range(e)]

            def sub(x, y):
                # (x // w - y // w) mod p is the digit difference at weight w
                z = 0
                for w in weights:
                    z = z + (x // w - y // w) % p * w
                return z
        if q > _EXP_TABLE_LIMIT:
            # no exp/log tables: lift the scalar ops; they give object
            # arrays, which stores into the int32 elimination array cast back
            return _NpOps(_Indexed(sub),
                          _Indexed(np.frompyfunc(self.mul, 2, 1)),
                          _Indexed(np.frompyfunc(self.inverse, 1, 1)))
        q1 = q - 1
        self._ensure_tables()
        # exp is stored twice so log x + log y needs no reduction mod q - 1;
        # log 0 points past both copies, into zeros, so a zero factor
        # gives 0 without a mask
        log = np.array(self._log, dtype=np.int32)
        log[0] = 2 * q1
        exp = np.zeros(4 * q1 + 1, dtype=np.int32)
        exp[:q1] = self._exp
        exp[q1:2 * q1] = exp[:q1]
        inv = np.zeros(q, dtype=np.int32)
        inv[1:] = exp[q1 - log[1:]]

        def mul(x, y):
            return exp[log[x] + log[y]]

        if q <= _NP_TABLE_LIMIT:
            x, y = np.meshgrid(np.arange(q, dtype=np.int32),
                               np.arange(q, dtype=np.int32), indexing="ij")
            return _NpOps(sub(x, y), mul(x, y), inv)
        return _NpOps(_Indexed(sub), _Indexed(mul), inv)

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}
_CACHE_LOCK = threading.Lock()


def make_field(p: int, e: int = 1) -> FieldCtx:
    """Field context for GF(p^e) with the canonical modulus.

    Deterministic across runs: the modulus is the lexicographically
    smallest monic irreducible (constant term first), and for e = 1 it is
    the polynomial x.
    """
    if not isinstance(p, int) or not isinstance(e, int) or e < 1:
        raise ValueError("p and e must be ints with e >= 1")
    bounded_power(p, e)  # before the primality test, which is slow for huge p
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
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
