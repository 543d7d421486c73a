"""Generalized Reed-Solomon codes and their duals.

A code is determined by n distinct evaluation points a, n nonzero column
multipliers v, and a dimension k: codewords are (v_1 f(a_1), ...,
v_n f(a_n)) over all polynomials f of degree < k.  With extended=True the
coefficient of x^(k-1) is appended as one extra coordinate, giving block
length n + 1; the extended coordinate is always last.

The dual of a plain code is again such a code: GRS_{n-k}(a, u/v) where
u_i is the product of the inverses of all differences (a_i - a_j).  The
all-ones-v case is the textbook identity; the entrywise division by v is
the natural generalization, which the tests check (orthogonality and
rank, and equal row spaces by scalar row reduction) rather than trust.

Dual coefficients, generator rows and the theorem-3-5 block products run
on the field's numpy op provider (`FieldCtx.np_ops`): one difference-
product kernel, `difference_products`, reduces rows of the difference
matrix, and generator row i + 1 is row i times the points, entrywise.
The verifier's inner products do not use that provider, so a generator
built here is checked by arithmetic it does not share.  A generator is a
read-only int32 (k, N) array of element indices; its JSON form lists
each entry's coordinates, written by `FieldCtx.coords` and read back by
its inverse, `FieldCtx.elements`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import GrsDualError
from .gf import FieldCtx, Felt, field_from_json, json_int


# Longest block length N accepted, checked before any O(N^2) work; since
# k <= N it also bounds the k x N generator.  `construct -o` and
# `verify --mds-mode structural` of the even-char [1280, 640] code over
# GF(2048) took 4.9-6.2 s (peak RSS 468 MB) and 4.7-6.4 s (419 MB), and
# of [1024, 512] over GF(1024) 2.7-3.6 s (287 MB) and 2.7-2.9 s
# (270 MB), each in its own process on a noisy 2-vCPU Xeon with Python
# 3.11 and numpy 2.4; the time grows about as N^3.
MAX_BLOCK_LENGTH = 1280


def check_block_length(length: int) -> None:
    """GrsDualError when a code of this block length would be too big."""
    if length > MAX_BLOCK_LENGTH:
        raise GrsDualError(
            f"block length {length} exceeds the limit {MAX_BLOCK_LENGTH}")


class _CodeFields(NamedTuple):
    ctx: FieldCtx
    a: tuple[Felt, ...]
    v: tuple[Felt, ...]
    k: int
    extended: bool = False


class GrsCode(_CodeFields):
    """Evaluation code GRS_k(a, v), optionally extended by one coordinate."""

    __slots__ = ()

    def __new__(cls, ctx: FieldCtx, a: Sequence[Felt], v: Sequence[Felt],
                k: int, extended: bool = False):
        self = super().__new__(cls, ctx, tuple(a), tuple(v), k, extended)
        check_block_length(self.block_length)
        if len(set(self.a)) != len(self.a):
            raise GrsDualError("evaluation points must be distinct")
        if len(self.v) != len(self.a):
            raise GrsDualError("need one multiplier per point")
        if any(type(x) is not int or not 0 < x < ctx.q for x in self.v):
            raise ValueError("multipliers must be nonzero field elements")
        if any(type(x) is not int or not 0 <= x < ctx.q for x in self.a):
            raise ValueError("evaluation points must be field elements")
        if not 1 <= json_int(k, "dimension") <= self.block_length:
            raise ValueError(
                f"dimension {k} outside [1, {self.block_length}]")
        return self

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def block_length(self) -> int:
        return self.n + (1 if self.extended else 0)


# entries of the difference matrix held at once: rows are reduced a chunk
# at a time, so memory stays bounded for long point sets
_DIFFERENCE_CHUNK = 1 << 20


def difference_products(ctx: FieldCtx, points: Sequence[Felt],
                        blocks: int = 1):
    """(n, blocks) int32 array: entry (i, b) is the product of (a_i - a_j)
    over the j != i in the b-th of `blocks` equal runs of the points.

    One kernel on the field's op provider: the n x n difference matrix
    with ones on its diagonal, each row block reduced by log-depth
    pairwise products.  Tabulated and exp/log ops index alike; each
    chunk's products are written into the int32 result, whatever dtype
    the ops gather.
    """
    import numpy as np

    n = len(points)
    check_block_length(n)
    ops = ctx.np_ops()
    a = np.array(points, dtype=np.int32)
    out = np.empty((n, blocks), dtype=np.int32)
    chunk = max(1, _DIFFERENCE_CHUNK // n)
    for start in range(0, n, chunk):
        rows = np.arange(start, min(start + chunk, n))
        d = ops.sub[a[rows, None], a[None, :]]
        d[np.arange(rows.size), rows] = 1
        d = d.reshape(rows.size, blocks, n // blocks)
        while d.shape[2] > 1:
            half = d.shape[2] // 2
            paired = ops.mul[d[:, :, :half], d[:, :, half:2 * half]]
            d = (np.concatenate((paired, d[:, :, 2 * half:]), axis=2)
                 if d.shape[2] % 2 else paired)
        out[start:start + rows.size] = d[:, :, 0]
    return out


def dual_coefficients(ctx: FieldCtx, points: Sequence[Felt]) -> tuple[Felt, ...]:
    """u with u_i the inverse of the product of (a_i - a_j) over j != i.

    This vector spans the nullspace of the power-rows system built from
    the points; every coordinate is nonzero.
    """
    n = len(points)
    if len(set(points)) != n:
        raise GrsDualError("evaluation points must be distinct")
    if n < 2:
        raise ValueError("need at least two points")
    prod = difference_products(ctx, points)[:, 0]
    return tuple(ctx.np_ops().inv[prod].tolist())


def generator_matrix(code: GrsCode):
    """Read-only int32 k x N array with row i = (v_j a_j^i); extended
    column last.  Each row is written into the one array in place, so it
    stays int32 whatever dtype the ops gather."""
    import numpy as np

    mul = code.ctx.np_ops().mul
    n = code.n
    a = np.array(code.a, dtype=np.int32)
    gen = np.zeros((code.k, code.block_length), dtype=np.int32)
    gen[0, :n] = code.v
    for i in range(1, code.k):
        gen[i, :n] = mul[gen[i - 1, :n], a]
    if code.extended:
        gen[-1, n] = 1
    gen.flags.writeable = False
    return gen


# --- interchange format ---------------------------------------------------

def code_to_json(code: GrsCode) -> dict:
    ctx = code.ctx
    return {
        "field": ctx.to_json(),
        "n": code.n,
        "k": code.k,
        "extended": code.extended,
        "alpha": ctx.coords(code.a),
        "v": ctx.coords(code.v),
        "generator": {"rows": code.k, "cols": code.block_length,
                      "entries": ctx.coords(generator_matrix(code))},
    }


# the JSON type of each field of a code object, a dict for a nested
# object; "generator" is optional (absent or null)
_CODE_SCHEMA = {
    "field": {"p": int, "e": int, "modulus": list},
    "n": int, "k": int, "extended": bool, "alpha": list, "v": list,
}
_GENERATOR_SCHEMA = {"rows": int, "cols": int, "entries": list}
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "true or false",
               type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _check_fields(obj: dict, schema: dict, path: str = "") -> None:
    for key, want in schema.items():
        name = path + key
        if key not in obj:
            raise ValueError(f'"{name}" is missing')
        kind = dict if isinstance(want, dict) else want
        if type(obj[key]) is not kind:
            raise ValueError(f'"{name}" must be {_JSON_TYPES[kind]}, '
                             f"got {_json_type(obj[key])}")
        if kind is dict:
            _check_fields(obj[key], want, name + ".")


def check_code_json(obj) -> None:
    """ValueError naming the first missing or mistyped field of a code
    object, down to each coordinate list being an array; the coordinates
    themselves are checked as the elements are read."""
    if type(obj) is not dict:
        raise ValueError(
            f"a code must be a JSON object, got {_json_type(obj)}")
    _check_fields(obj, _CODE_SCHEMA)
    lists = {"alpha": obj["alpha"], "v": obj["v"]}
    if obj.get("generator") is not None:
        _check_fields(obj, {"generator": _GENERATOR_SCHEMA})
        lists["generator.entries"] = obj["generator"]["entries"]
    for name, items in lists.items():
        for i, cs in enumerate(items):
            if type(cs) is not list:
                raise ValueError(f'"{name}[{i}]" must be an array of '
                                 f"coordinates, got {_json_type(cs)}")


def _read_elements(ctx: FieldCtx, items: list, name: str):
    """The elements of the coordinate arrays items, as an int array; a bad
    coordinate's ValueError names the field."""
    try:
        return ctx.elements(items)
    except ValueError as exc:
        raise ValueError(f'"{name}": {exc}') from None


def code_from_json(obj: dict) -> GrsCode:
    check_code_json(obj)
    ctx = field_from_json(obj["field"])
    code = GrsCode(ctx, _read_elements(ctx, obj["alpha"], "alpha").tolist(),
                   _read_elements(ctx, obj["v"], "v").tolist(), obj["k"],
                   obj["extended"])
    if code.n != obj["n"]:
        raise ValueError("stored n does not match the alpha list")
    return code


def stored_generator_from_json(obj: dict, code: GrsCode):
    """The generator matrix embedded in a code JSON object, if present,
    as a read-only int32 k x N array.

    code is `code_from_json(obj)`, which has checked every field of obj,
    the generator's included, so obj is not walked a second time.  Kept
    separate from code_from_json so a verifier can check the stored
    matrix against the one implied by (a, v, k) instead of silently
    regenerating it.  Its entry count must be rows x cols, and then its
    shape k x block length, before the entries are shaped into an array.
    """
    import numpy as np

    gen = obj.get("generator")
    if gen is None:
        return None
    entries = _read_elements(code.ctx, gen["entries"], "generator.entries")
    rows, cols = gen["rows"], gen["cols"]
    k, length = code.k, code.block_length
    if rows * cols != len(entries):
        raise GrsDualError(f"{rows}x{cols} matrix needs "
                           f"{rows * cols} entries, got {len(entries)}")
    if (rows, cols) != (k, length):
        raise GrsDualError(
            f"stored generator is {rows}x{cols}, expected {k}x{length}")
    stored = entries.astype(np.int32, copy=False).reshape(k, length)
    stored.flags.writeable = False
    return stored
