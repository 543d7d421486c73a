"""Generalized Reed-Solomon codes and their duals.

A code is determined by n distinct evaluation points a, n nonzero column
multipliers v, and a dimension k: codewords are (v_1 f(a_1), ...,
v_n f(a_n)) over all polynomials f of degree < k.  With extended=True the
coefficient of x^(k-1) is appended as one extra coordinate, giving block
length n + 1; the extended coordinate is always last.

Messages are plain coefficient lists of length exactly k, constant term
first (high zeros allowed).

The dual of a plain code is again such a code: GRS_{n-k}(a, u/v) where
u_i is the product of the inverses of all differences (a_i - a_j).  The
all-ones-v case is the textbook identity; the entrywise division by v is
the natural generalization and is cross-checked against the elimination
nullspace throughout the test suite rather than trusted blindly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DuplicatePointsError,
    ExtendedDualUnsupportedError,
    LengthMismatchError,
)
from .gf import FieldCtx, Felt, field_from_json, json_int
from .linalg import MatrixGF, matrix_from_json


@dataclass(frozen=True)
class GrsCode:
    """Evaluation code GRS_k(a, v), optionally extended by one coordinate."""

    ctx: FieldCtx
    a: tuple[Felt, ...]
    v: tuple[Felt, ...]
    k: int
    extended: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "v", tuple(self.v))
        if len(set(self.a)) != len(self.a):
            raise DuplicatePointsError("evaluation points must be distinct")
        if len(self.v) != len(self.a):
            raise LengthMismatchError("need one multiplier per point")
        if any(not 0 < x < self.ctx.q for x in self.v):
            raise ValueError("multipliers must be nonzero field elements")
        if any(not 0 <= x < self.ctx.q for x in self.a):
            raise ValueError("evaluation points must be field elements")
        if not 1 <= self.k <= self.block_length:
            raise ValueError(
                f"dimension {self.k} outside [1, {self.block_length}]")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def block_length(self) -> int:
        return self.n + (1 if self.extended else 0)


def dual_coefficients(ctx: FieldCtx, points: Sequence[Felt]) -> tuple[Felt, ...]:
    """u with u_i the inverse of the product of (a_i - a_j) over j != i.

    This vector spans the nullspace of the power-rows system built from
    the points; every coordinate is nonzero.
    """
    n = len(points)
    if len(set(points)) != n:
        raise DuplicatePointsError("evaluation points must be distinct")
    if n < 2:
        raise ValueError("need at least two points")
    out = []
    for i, ai in enumerate(points):
        prod = 1
        for j, aj in enumerate(points):
            if j != i:
                prod = ctx.mul(prod, ctx.sub(ai, aj))
        out.append(ctx.inverse(prod))
    return tuple(out)


def generator_matrix(code: GrsCode) -> MatrixGF:
    """k x N matrix with row i = (v_j a_j^i); extended column last."""
    ctx = code.ctx
    ncols = code.block_length
    entries: list[Felt] = []
    powers = [1] * code.n
    for i in range(code.k):
        row = [ctx.mul(vj, pw) for vj, pw in zip(code.v, powers)]
        if code.extended:
            row.append(1 if i == code.k - 1 else 0)
        entries.extend(row)
        powers = [ctx.mul(pw, aj) for pw, aj in zip(powers, code.a)]
    return MatrixGF(ctx, code.k, ncols, tuple(entries))


def encode(code: GrsCode, message: Sequence[Felt]) -> list[Felt]:
    """Codeword (v_1 f(a_1), ..., v_n f(a_n)) for f given by message.

    The message holds the k coefficients of f, constant term first; when
    the code is extended, the top coefficient f_{k-1} is appended.
    """
    if len(message) != code.k:
        raise LengthMismatchError(
            f"message length {len(message)} != dimension {code.k}")
    ctx = code.ctx
    word = []
    for aj, vj in zip(code.a, code.v):
        acc = 0
        for c in reversed(message):
            acc = ctx.add(ctx.mul(acc, aj), c)
        word.append(ctx.mul(vj, acc))
    if code.extended:
        word.append(message[code.k - 1])
    return word


def dual_code(code: GrsCode) -> GrsCode:
    """The Euclidean dual, itself a GRS code.

    Plain case: GRS_{n-k}(a, u/v) with u = dual_coefficients(a).  Extended
    case: requires v all ones, a an enumeration of the whole field and
    1 <= k <= q - 1, and yields the extended code of dimension q - k + 1.
    """
    ctx = code.ctx
    if code.extended:
        if (any(x != 1 for x in code.v)
                or len(code.a) != ctx.q
                or not 1 <= code.k <= ctx.q - 1):
            raise ExtendedDualUnsupportedError(
                "extended dual needs v = 1, alpha = all of GF(q) "
                "and 1 <= k <= q-1")
        return GrsCode(ctx, code.a, code.v, ctx.q - code.k + 1, extended=True)
    if code.k == code.n:
        raise ValueError("dual of a full-dimension code is zero-dimensional")
    u = dual_coefficients(ctx, code.a)
    dual_v = tuple(ctx.mul(ui, ctx.inverse(vi))
                   for ui, vi in zip(u, code.v))
    return GrsCode(ctx, code.a, dual_v, code.n - code.k)


# --- interchange format ---------------------------------------------------

def code_to_json(code: GrsCode) -> dict:
    ctx = code.ctx
    return {
        "field": ctx.to_json(),
        "n": code.n,
        "k": code.k,
        "extended": code.extended,
        "alpha": [ctx.coeffs(x) for x in code.a],
        "v": [ctx.coeffs(x) for x in code.v],
        "generator": generator_matrix(code).to_json(),
    }


def code_from_json(obj: dict) -> GrsCode:
    if type(obj["extended"]) is not bool:
        raise ValueError('"extended" must be true or false')
    for key in ("n", "k"):
        json_int(obj[key], f'"{key}"')
    ctx = field_from_json(obj["field"])
    a = tuple(ctx.element(cs) for cs in obj["alpha"])
    v = tuple(ctx.element(cs) for cs in obj["v"])
    code = GrsCode(ctx, a, v, obj["k"], obj["extended"])
    if code.n != obj["n"]:
        raise ValueError("stored n does not match the alpha list")
    return code


def stored_generator_from_json(obj: dict) -> MatrixGF | None:
    """The generator matrix embedded in a code JSON object, if present.

    Kept separate from code_from_json so a verifier can check the stored
    matrix against the one implied by (a, v, k) instead of silently
    regenerating it.
    """
    gen = obj.get("generator")
    if gen is None:
        return None
    ctx = field_from_json(obj["field"])
    return matrix_from_json(ctx, gen)
