"""Symplectic Pauli algebra and the product bases stabilized by graph subgroups.

A PauliOperator is i^phase * X^x Z^z with X written to the left of Z on each
qubit and the phase tracked as an exponent of i mod 4.  Product stabilizer
states are plain strings over the alphabet {0,1,+,-,i,j} where i/j denote the
Y+ / Y- eigenstates; qubit a is character a-1.

Whole bases are built as one bytearray of ASCII labels, each state a row of
n label bytes ended by b"\n", and decoded to strings once; only
lc_clifford_transport encodes a string.  Column v of the rows is the strided
slice buf[v::n + 1].  The stabilized basis is the GF(2) span of one row per
beta vertex, and the LC transport relabels whole columns with bytes.translate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, _independent_mask, _mask_of

STATE_ALPHABET = "01+-ij"

_XZ_TO_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}

# Action of X^x Z^z on the six labels: (x, z) -> {label: (i-exponent, new label)}.
# Built from Z|1> = -|1>, Z swapping +/- and i/j, X swapping 0/1 and i/j
# (with a +/-i factor on the Y states), applying Z before X.
_XZ_ACTION = {
    (0, 0): {c: (0, c) for c in STATE_ALPHABET},
    (0, 1): {"0": (0, "0"), "1": (2, "1"), "+": (0, "-"), "-": (0, "+"), "i": (0, "j"), "j": (0, "i")},
    (1, 0): {"0": (0, "1"), "1": (0, "0"), "+": (0, "+"), "-": (2, "-"), "i": (1, "j"), "j": (3, "i")},
    (1, 1): {"0": (0, "1"), "1": (2, "0"), "+": (2, "-"), "-": (0, "+"), "i": (3, "i"), "j": (1, "j")},
}


# Projective action of the local Cliffords in U_a^tau = sqrt(-iX)_a sqrt(iZ)_{N_a},
# as byte tables over the labels 0 1 + - i j.  Global phases are deliberately
# dropped; unit tests lock the conventions to the dense unitary in tests/oracles.py.
_SQRT_MINUS_IX = bytes.maketrans(b"01+-ij", b"ji+-01")
_SQRT_PLUS_IZ = bytes.maketrans(b"01+-ij", b"01ji+-")
# Adding a beta vertex b to k flips 0/1 on b and +/- on its alpha neighbours.
_FLIP = bytes.maketrans(b"01+-", b"10-+")
_LABEL_BYTES = STATE_ALPHABET.encode("ascii")

# The most beta vertices whose 2^|beta| basis states are listed.  At 20 the
# 40-ring's minimal_decomposition lists its 2^20 terms in 0.55-0.8 s on a
# 2-core x86 VM, at a peak of 250 MiB; each further vertex doubles both.
_MAX_LISTED_BETA = 20


def _unknown_label(label: str) -> ValueError:
    return ValueError(f"unknown state label {label!r}; labels are {STATE_ALPHABET!r}")


def _encode_state(state: str, n: int) -> bytearray:
    """The one-row label buffer of a state; ValueError for a wrong length or an unknown label."""
    if len(state) != n:
        raise ValueError("state length does not match graph size")
    # a non-ASCII character becomes "?", which is not a label either
    data = state.encode("ascii", "replace")
    if data.translate(None, _LABEL_BYTES):
        raise _unknown_label(next(c for c in state if c not in STATE_ALPHABET))
    return bytearray(data + b"\n")


def _decode_states(buf: bytearray) -> tuple[str, ...]:
    """The rows of a label buffer as strings: one decode, one split."""
    states = buf.decode("ascii").split("\n")
    states.pop()  # the empty string after the last row's b"\n"
    return tuple(states)


def _translate_column(buf: bytearray, start: int, n: int, table: bytes) -> None:
    """Relabel, through table and in place, one column of an n-label buffer
    from byte start on: start v is column v of every row."""
    buf[start::n + 1] = buf[start::n + 1].translate(table)


@dataclass(frozen=True)
class PauliOperator:
    """n-qubit Pauli in symplectic form: i^phase * X^x Z^z."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        full = (1 << self.n) - 1
        if (self.x & ~full) or (self.z & ~full):
            raise ValueError("Pauli support outside qubit range")
        object.__setattr__(self, "phase", self.phase % 4)

    def text(self) -> str:
        """Letter form with Y for overlapping X,Z; sign folded into a prefix."""
        # X^x Z^z = (-i)^{|x&z|} (letter form), so the prefix is i^{phase-|x&z|}
        sign_exp = (self.phase - (self.x & self.z).bit_count()) % 4
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[sign_exp]
        letters = "".join(
            _XZ_TO_LETTER[((self.x >> b) & 1, (self.z >> b) & 1)] for b in range(self.n)
        )
        return prefix + letters


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Symplectic product with phase bookkeeping (Z^z1 past X^x2 costs (-1)^|z1&x2|)."""
    if p.n != q.n:
        raise ValueError("Pauli length mismatch")
    phase = (p.phase + q.phase + 2 * (p.z & q.x).bit_count()) % 4
    return PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def generators_from_graph(g: Graph) -> tuple[PauliOperator, ...]:
    """The n graph-state generators: X on vertex a, Z on its neighbourhood."""
    return restricted_subgroup(g, range(1, g.n + 1))


def restricted_subgroup(g: Graph, keep) -> tuple[PauliOperator, ...]:
    """The graph-state generators X_a Z_N(a) of the vertices a in keep, ascending."""
    return tuple(PauliOperator(g.n, 1 << v, g.adj[v]) for v in _bits(_mask_of(keep, g.n)))


def group_elements(n: int, generators) -> list[PauliOperator]:
    """All 2^k products of the n-qubit generators, in subset-mask order.

    Built by doubling: after generator j, each element so far times g_j is
    appended, so element mask is the left fold over the ascending bits of mask.
    """
    elements = [identity(n)]
    for gen in generators:
        elements += [multiply(acc, gen) for acc in elements]
    return elements


def _basis_codes(g: Graph, amask: int) -> bytearray:
    """stabilized_product_basis of the independent set amask, as its label buffer.

    Each state's bits are a GF(2)-linear function of k, so the basis is built
    by doubling, last beta vertex b first: the rows for k + e_b are a copy of
    the rows so far, appended to them, with "0"/"1" swapped on b and "+"/"-"
    on its alpha neighbours.  Raises ValueError when |beta| exceeds _MAX_LISTED_BETA.
    """
    n = g.n
    beta = [v for v in range(n) if not (amask >> v) & 1]
    if len(beta) > _MAX_LISTED_BETA:
        raise ValueError(
            f"the stabilized basis has 2^{len(beta)} states, past the 2^{_MAX_LISTED_BETA} that can be listed"
        )
    buf = bytearray(b"".join(b"+" if (amask >> v) & 1 else b"0" for v in range(n)) + b"\n")
    for b in reversed(beta):
        size = len(buf)
        buf *= 2
        for v in (b, *_bits(g.adj[b] & amask)):
            _translate_column(buf, size + v, n, _FLIP)
    return buf


def stabilized_product_basis(g: Graph, alpha) -> tuple[str, ...]:
    """Product states stabilized by the alpha-restricted graph stabilizer.

    One state per bit-string k over beta = V \\ alpha (k ascending as a binary
    integer, first beta vertex most significant): beta vertex b carries Z+/Z-
    per k_b, alpha vertex a carries X+/X- per the parity of k over N_a.
    """
    return _decode_states(_basis_codes(g, _independent_mask(g, alpha)))


def apply_pauli(p: PauliOperator, state: str) -> tuple[int, str]:
    """p|state> = i^k |state'>; returns (k mod 4, state')."""
    if len(state) != p.n:
        raise ValueError("state length does not match Pauli size")
    k = p.phase
    out = []
    for b, ch in enumerate(state):
        xb = (p.x >> b) & 1
        zb = (p.z >> b) & 1
        try:
            dk, new = _XZ_ACTION[(xb, zb)][ch]
        except KeyError:
            raise _unknown_label(ch) from None
        k += dk
        out.append(new)
    return k % 4, "".join(out)


def apply_generator(p: PauliOperator, state: str) -> tuple[int, str]:
    """Action of a Hermitian stabilizer element on a product state: (+-1, state')."""
    k, new = apply_pauli(p, state)
    if k % 2:
        raise ValueError("operator maps this state outside the +-1 sign regime")
    return (1 if k == 0 else -1), new


def _transport_step(g: Graph, a: int, buf: bytearray) -> None:
    """Relabel every row of a label buffer under U_a^tau for g, in place."""
    _mask_of((a,), g.n)
    _translate_column(buf, a - 1, g.n, _SQRT_MINUS_IX)
    for v in _bits(g.adj[a - 1]):
        _translate_column(buf, v, g.n, _SQRT_PLUS_IZ)


def lc_clifford_transport(g: Graph, a: int, state: str) -> str:
    """Relabel a product state under U_a^tau for graph g (global phase dropped)."""
    buf = _encode_state(state, g.n)
    _transport_step(g, a, buf)
    return _decode_states(buf)[0]


__all__ = [
    "PauliOperator",
    "STATE_ALPHABET",
    "identity",
    "multiply",
    "generators_from_graph",
    "restricted_subgroup",
    "group_elements",
    "stabilized_product_basis",
    "apply_pauli",
    "apply_generator",
    "lc_clifford_transport",
]
