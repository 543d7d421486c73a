"""Output gate: every operation of every run is checked twice.

1. Against golden outputs recorded from the seed commit (`golden.json`):
   exit codes, and SHA-256 digests of stdout, stderr and every file a
   command writes, so JSON must stay byte-identical.
2. By re-checks written here, sharing no code with grsdual: generator
   matrices must satisfy G*G^T = 0 over GF(p)[x]/(m) with m an irreducible
   modulus, verify reports must say `overall: true`, and every pair of a
   found search set must differ by a nonzero square (Euler's criterion).

`check_run` returns one `Outcome` per operation; a failed one carries
its reasons, which the runner prints and counts against `fail_ratio`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path

import numpy as np

from workloads import SEARCH, SWEEP, SWEEP_DIR


@dataclass
class Outcome:
    label: str
    reasons: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# --- arithmetic in GF(p)[x] and GF(p^e), independent of grsdual -------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        c = a[-1] * inv_lead % p
        shift = len(a) - len(m)
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
        _trim(a)
    return a


def is_irreducible(m: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    e = len(m) - 1
    if e < 1 or m[-1] != 1:
        return False
    for d in range(1, e // 2 + 1):
        for low in product(range(p), repeat=d):
            if not _poly_rem(m, list(low) + [1], p):
                return False
    return True


@functools.lru_cache(maxsize=None)
def canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically first (constant term first) monic irreducible."""
    if e == 1:
        return (0, 1)
    for low in product(range(p), repeat=e):
        if is_irreducible(list(low) + [1], p):
            return (*low, 1)
    raise ValueError(f"no irreducible of degree {e} over GF({p})")


def _mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_rem(out, m, p)


def is_nonzero_square(x: list[int], m: list[int], p: int) -> bool:
    """Euler's criterion x^((q-1)/2) = 1 in GF(p)[x]/(m), q = p^deg(m)."""
    x = _poly_rem(list(x), m, p)
    if not x:
        return False
    n, acc = (p ** (len(m) - 1) - 1) // 2, [1]
    while n:
        if n & 1:
            acc = _mulmod(acc, x, m, p)
        n >>= 1
        if n:
            x = _mulmod(x, x, m, p)
    return acc == [1]


def gram_is_zero(entries: list[list[int]], rows: int, cols: int,
                 m: list[int], p: int) -> bool:
    """G*G^T = 0 for G given row-major as coordinate vectors over GF(p)."""
    e = len(m) - 1
    g = np.array(entries, dtype=np.int64).reshape(rows, cols, e)
    conv = np.zeros((2 * e - 1, rows, rows), dtype=np.int64)
    for i in range(e):
        for j in range(e):
            conv[i + j] += (g[:, :, i] @ g[:, :, j].T) % p
    conv %= p
    for d in range(2 * e - 2, e - 1, -1):   # x^d = -x^(d-e) * (m - x^e)
        top = conv[d]
        for t in range(e):
            conv[d - e + t] -= top * m[t]
        conv[d] = 0
        conv %= p
    return not conv.any()


# --- semantic checks on command output ---------------------------------------

def check_code_json(obj: dict) -> list[str]:
    """A construct artefact must describe a self-dual code."""
    try:
        p, e, m = obj["field"]["p"], obj["field"]["e"], obj["field"]["modulus"]
        gen = obj["generator"]
        n, k, extended = obj["n"], obj["k"], obj["extended"]
    except (KeyError, TypeError) as exc:
        return [f"code JSON lacks {exc}"]
    reasons = []
    if len(m) != e + 1 or (e > 1 and not is_irreducible(m, p)):
        reasons.append(f"modulus {m} is not monic irreducible of degree {e}")
    length = n + (1 if extended else 0)
    if gen["rows"] != k or gen["cols"] != length or length != 2 * k:
        reasons.append(f"generator {gen['rows']}x{gen['cols']} for n={n}, "
                       f"k={k}, extended={extended}")
    elif not reasons and not gram_is_zero(gen["entries"], k, length, m, p):
        reasons.append("G*G^T != 0")
    return reasons


def check_report(text: str) -> list[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"verify report is not JSON: {exc}"]
    bad = [c["name"] for c in report.get("checks", [])
           if c.get("status") not in ("pass", "skipped")]
    if report.get("overall") is not True or bad:
        return [f"verify report not overall true (failed checks: {bad})"]
    return []


def check_search_payload(text: str, q: int, n: int) -> list[str]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"search output is not JSON: {exc}"]
    if payload.get("q") != q or payload.get("n") != n:
        return [f"search output is for q={payload.get('q')}, n={payload.get('n')}"]
    found = payload.get("set")
    if not payload.get("found"):
        return [] if found is None else ["found is false but a set is given"]
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e = round(np.log(q) / np.log(p))
    m = list(canonical_modulus(p, e))
    index = [sum(c * p ** i for i, c in enumerate(x)) for x in found]
    reasons = []
    if len(found) != n or index != sorted(set(index)) or index[0] != 0:
        reasons.append(f"set {index} is not {n} increasing elements from 0")
    for x, y in combinations(found, 2):
        diff = [(a - b) % p for a, b in zip(x, y)]
        if not is_nonzero_square(diff, m, p):
            reasons.append(f"difference of {x} and {y} is not a nonzero square")
            break
    return reasons


# --- golden comparison ---------------------------------------------------------

def _sweep_table(stdout: str) -> str:
    """The sweep table without its timing column."""
    return "\n".join(line.rsplit(None, 1)[0] for line in stdout.splitlines())


def _seedless(text: str, seed: int) -> tuple[str, int]:
    """Artefact text as written at seed 0, and how many seed keys it had."""
    found = re.findall(r'"seed": (\d+)', text)
    if any(int(s) != seed for s in found):
        return text, -1
    return re.sub(r'"seed": \d+', '"seed": 0', text), len(found)


def record(workload: str, seed: int, ops: list[dict], workdir: Path) -> dict:
    """Golden entry for one run of a workload at seed 0."""
    if seed != 0:
        raise ValueError("golden outputs are recorded at seed 0")
    if workload == SWEEP:
        op = ops[0]
        arts = {}
        for path in sorted((workdir / SWEEP_DIR).glob("*.json")):
            text = path.read_text()
            arts[path.name] = {"sha256": sha256(text),
                               "seed_keys": len(re.findall(r'"seed": ', text))}
        return {"rc": op["rc"], "table_sha256": sha256(_sweep_table(op["stdout"])),
                "stderr_sha256": sha256(op["stderr"]), "artefacts": arts}
    entry = {}
    for op in ops:
        rec = {"rc": op["rc"], "stdout_sha256": sha256(op["stdout"]),
               "stderr_sha256": sha256(op["stderr"])}
        if op["output"] and op["rc"] == 0:
            rec["file_sha256"] = sha256((workdir / op["output"]).read_text())
        if workload == SEARCH:
            rec["set"] = json.loads(op["stdout"])["set"]
        entry[op["label"]] = rec
    return entry


def _guarded(check, *args) -> list[str]:
    """Run an independent check; output it cannot parse is a failure too."""
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output for {check.__name__}: {exc!r}"]


def _check_code_text(text: str) -> list[str]:
    return check_code_json(json.loads(text))


def _check_artefact_report(text: str) -> list[str]:
    return check_report(json.dumps(json.loads(text)["report"]))


def _common(op: dict, gold: dict) -> list[str]:
    reasons = []
    if op["error"]:
        reasons.append("raised:\n" + op["error"])
    if op["rc"] != gold["rc"]:
        reasons.append(f"exit code {op['rc']}, expected {gold['rc']}")
    return reasons


def check_run(workload: str, seed: int, ops: list[dict], workdir: Path,
              golden: dict) -> list[Outcome]:
    gold = golden[workload]
    if workload == SWEEP:
        return _check_sweep(seed, ops, workdir, gold)
    outcomes = []
    by_label = {op["label"]: op for op in ops}
    for label, g in gold.items():
        out = Outcome(label)
        outcomes.append(out)
        op = by_label.get(label)
        if op is None:
            out.reasons.append("operation did not run")
            continue
        out.reasons += _common(op, g)
        for stream in ("stdout", "stderr"):
            if sha256(op[stream]) != g[f"{stream}_sha256"]:
                out.reasons.append(f"{stream} differs from golden:\n{op[stream][:2000]}")
        if "file_sha256" in g:
            path = workdir / op["output"]
            if not path.is_file():
                out.reasons.append(f"{op['output']} was not written")
                continue
            text = path.read_text()
            if sha256(text) != g["file_sha256"]:
                out.reasons.append(f"{op['output']} differs from golden")
            out.reasons += _guarded(_check_code_text, text)
        if label.startswith("verify:"):
            out.reasons += _guarded(check_report, op["stdout"])
        if workload == SEARCH:
            q, n = (int(x[1:]) for x in label.split(":")[1].split("-"))
            out.reasons += _guarded(check_search_payload, op["stdout"], q, n)
    extra = set(by_label) - set(gold)
    if extra:
        outcomes.append(Outcome("unexpected", [f"operations not in golden: {sorted(extra)}"]))
    return outcomes


def _check_sweep(seed: int, ops: list[dict], workdir: Path,
                 gold: dict) -> list[Outcome]:
    op = ops[0]
    whole = _common(op, gold)
    if sha256(_sweep_table(op["stdout"])) != gold["table_sha256"]:
        whole.append("sweep table differs from golden:\n" + op["stdout"])
    if sha256(op["stderr"]) != gold["stderr_sha256"]:
        whole.append("stderr differs from golden:\n" + op["stderr"][:2000])
    written = {p.name for p in (workdir / SWEEP_DIR).glob("*.json")}
    if written != set(gold["artefacts"]):
        whole.append(f"artefact set differs: missing "
                     f"{sorted(set(gold['artefacts']) - written)}, extra "
                     f"{sorted(written - set(gold['artefacts']))}")
    outcomes = []
    for name, g in gold["artefacts"].items():
        out = Outcome(f"sweep:{name}", list(whole))
        outcomes.append(out)
        path = workdir / SWEEP_DIR / name
        if not path.is_file():
            continue
        text = path.read_text()
        norm, keys = _seedless(text, seed)
        if keys != g["seed_keys"]:
            out.reasons.append(f"{name}: {keys} seed keys with value {seed}, "
                               f"expected {g['seed_keys']}")
        elif sha256(norm) != g["sha256"]:
            out.reasons.append(f"{name} differs from golden")
        out.reasons += _guarded(_check_code_text, text)
        out.reasons += _guarded(_check_artefact_report, text)
    return outcomes
