"""The three workloads, as lists of `grsdual` command lines.

Each workload runs in one fresh child process, as a fresh `grsdual`
invocation would, and every operation is one call of `grsdual.cli.main`.
The seed goes to every command that takes one (`sweep --seed` and
`verify --seed`).  The round-trip and search cells are fixed and run in
the order listed: the order changes which tables are alive when a later
cell runs, and with it peak memory and garbage-collection time, so
shuffling it by seed would add spread without adding coverage.  No seed
changes how much work a workload does.
"""

from __future__ import annotations

from dataclasses import dataclass

SWEEP = "sweep-default"
ROUNDTRIP = "roundtrip-large"
SEARCH = "search-squares"
WORKLOADS = (SWEEP, ROUNDTRIP, SEARCH)

SWEEP_DIR = "sweep"

# (label, construct flags, whether a code is built and then verified).
# Large codes whose time goes to scalar field arithmetic: dual
# coefficients, block products, the self-dual re-check and the dual
# identity.  GF(1849) and GF(2048) lie above the dense-table limit.
ROUNDTRIP_CELLS = (
    ("theorem-3-5-r27-t3", ("--family", "theorem-3-5", "--r", "27", "--t", "3"), True),
    ("theorem-3-5-r43-t2", ("--family", "theorem-3-5", "--r", "43", "--t", "2"), True),
    ("even-char-q2048-n128", ("--family", "even-char", "--q", "2048", "--n", "128"), True),
    ("extended-q127", ("--family", "extended", "--q", "127"), True),
    ("roots-of-unity-q361-n46", ("--family", "roots-of-unity", "--q", "361", "--n", "46"), True),
    ("auto-q49-n42", ("--family", "auto", "--q", "49", "--n", "42"), True),
    # every family is tried and none applies: exit 2
    ("auto-q81-n10", ("--family", "auto", "--q", "81", "--n", "10"), False),
)

# (q, n): exhaustive nonexistence proofs first, then lexicographically
# first finds in large fields where the character-table build dominates.
SEARCH_CELLS = (
    (113, 10), (125, 8), (149, 10), (181, 10), (197, 10),
    (15625, 10), (65537, 10), (114689, 10),
)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    output: str | None = None   # file the command writes, relative to its cwd


def ops(workload: str, seed: int) -> list[Op]:
    if workload == SWEEP:
        return [Op("sweep", ("sweep", "--seed", str(seed),
                             "--out-dir", SWEEP_DIR))]
    if workload == ROUNDTRIP:
        out = []
        for label, flags, verified in ROUNDTRIP_CELLS:
            path = f"{label}.json"
            out.append(Op(f"construct:{label}",
                          ("construct", *flags, "-o", path),
                          path if verified else None))
            if verified:
                out.append(Op(f"verify:{label}",
                              ("verify", path, "--mds-mode", "structural",
                               "--dual-identity", "--seed", str(seed))))
        return out
    if workload == SEARCH:
        return [Op(f"search:q{q}-n{n}", ("search", "--q", str(q), "--n", str(n)))
                for q, n in SEARCH_CELLS]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
