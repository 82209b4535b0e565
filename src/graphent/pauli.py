"""Symplectic Pauli algebra and the product bases stabilized by graph subgroups.

A PauliOperator is i^phase * X^x Z^z with X written to the left of Z on each
qubit and the phase tracked as an exponent of i mod 4.  Product stabilizer
states are plain strings over the alphabet {0,1,+,-,i,j} where i/j denote the
Y+ / Y- eigenstates; qubit a is character a-1.

Whole bases are built as arrays: a (states, n) uint8 array of the labels'
ASCII codes, decoded to strings once.  The stabilized basis is the GF(2) span
of one row per beta vertex, and the LC transport maps whole columns through
256-entry byte tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _bits, _independent_mask

STATE_ALPHABET = "01+-ij"

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_XZ_TO_LETTER = {v: k for k, v in _LETTER_TO_XZ.items()}

# Action of X^x Z^z on the six labels: (x, z) -> {label: (i-exponent, new label)}.
# Built from Z|1> = -|1>, Z swapping +/- and i/j, X swapping 0/1 and i/j
# (with a +/-i factor on the Y states), applying Z before X.
_XZ_ACTION = {
    (0, 0): {c: (0, c) for c in STATE_ALPHABET},
    (0, 1): {"0": (0, "0"), "1": (2, "1"), "+": (0, "-"), "-": (0, "+"), "i": (0, "j"), "j": (0, "i")},
    (1, 0): {"0": (0, "1"), "1": (0, "0"), "+": (0, "+"), "-": (2, "-"), "i": (1, "j"), "j": (3, "i")},
    (1, 1): {"0": (0, "1"), "1": (2, "0"), "+": (2, "-"), "-": (0, "+"), "i": (3, "i"), "j": (1, "j")},
}


def _label_table(images: str) -> np.ndarray:
    """Byte table sending STATE_ALPHABET[i] to images[i] and every other byte to 0."""
    table = np.zeros(256, np.uint8)
    table[list(STATE_ALPHABET.encode("ascii"))] = list(images.encode("ascii"))
    return table


# Projective action of the local Cliffords in U_a^tau = sqrt(-iX)_a sqrt(iZ)_{N_a},
# as byte tables over the labels 0 1 + - i j.  Global phases are deliberately
# dropped; the conventions match dense.lc_unitary_dense and are locked by unit tests.
_SQRT_MINUS_IX = _label_table("ji+-01")
_SQRT_PLUS_IZ = _label_table("01ji+-")
_LABEL_BYTES = STATE_ALPHABET.encode("ascii")


def _unknown_label(label: str) -> ValueError:
    return ValueError(f"unknown state label {label!r}; labels are {STATE_ALPHABET!r}")


def _encode_states(states, n: int) -> np.ndarray:
    """The (len(states), n) uint8 array of the labels' ASCII codes, writable.

    ValueError for a state whose length is not n or a label outside
    STATE_ALPHABET.
    """
    if set(map(len, states)) - {n}:
        raise ValueError("state length does not match graph size")
    # a non-ASCII character becomes "?", which is not a label either
    data = "".join(states).encode("ascii", "replace")
    if data.translate(None, _LABEL_BYTES):
        raise _unknown_label(next(c for s in states for c in s if c not in STATE_ALPHABET))
    return np.frombuffer(bytearray(data), np.uint8).reshape(len(states), n)


def _decode_states(codes: np.ndarray) -> tuple[str, ...]:
    """The rows of an ASCII code array as strings: one decode, then slices."""
    n = codes.shape[1]
    data = codes.tobytes().decode("ascii")
    return tuple([data[i:i + n] for i in range(0, len(data), n)])


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

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase == 0

    def is_hermitian(self) -> bool:
        # (i^p X^x Z^z)^dagger = (-1)^(p + |x&z|) i^p X^x Z^z
        return (self.phase + (self.x & self.z).bit_count()) % 2 == 0

    def text(self) -> str:
        """Letter form with Y for overlapping X,Z; sign folded into a prefix."""
        # X^x Z^z = (-i)^{|x&z|} (letter form), so the prefix is i^{phase-|x&z|}
        sign_exp = (self.phase - (self.x & self.z).bit_count()) % 4
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[sign_exp]
        letters = "".join(
            _XZ_TO_LETTER[((self.x >> b) & 1, (self.z >> b) & 1)] for b in range(self.n)
        )
        return prefix + letters

    @staticmethod
    def from_text(text: str) -> "PauliOperator":
        """Parse e.g. 'XZI', '-IIZZXZ' (unicode minus accepted)."""
        s = text.strip().replace("−", "-")
        phase = 0
        # lowercase i is the imaginary prefix; uppercase I is the identity letter
        if s[:2] == "-i":
            phase, s = 3, s[2:]
        elif s[:1] == "-":
            phase, s = 2, s[1:]
        elif s[:2] == "+i":
            phase, s = 1, s[2:]
        elif s[:1] == "i":
            phase, s = 1, s[1:]
        elif s[:1] == "+":
            s = s[1:]
        x = z = 0
        for b, letter in enumerate(s):
            try:
                xb, zb = _LETTER_TO_XZ[letter]
            except KeyError:
                raise ValueError(f"bad Pauli letter {letter!r} in {text!r}") from None
            x |= xb << b
            z |= zb << b
            if xb and zb:
                phase += 1  # Y = i * XZ
        return PauliOperator(len(s), x, z, phase)


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Symplectic product with phase bookkeeping (Z^z1 past X^x2 costs (-1)^|z1&x2|)."""
    if p.n != q.n:
        raise ValueError("Pauli length mismatch")
    phase = (p.phase + q.phase + 2 * (p.z & q.x).bit_count()) % 4
    return PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


@dataclass(frozen=True)
class StabilizerGroup:
    """Independent commuting generators, tagged with the vertex indices kept."""

    n: int
    generators: tuple[PauliOperator, ...]
    support: frozenset[int]

    def order(self) -> int:
        return 1 << len(self.generators)


def generators_from_graph(g: Graph) -> StabilizerGroup:
    """The n graph-state generators: X on vertex a, Z on its neighbourhood."""
    gens = tuple(
        PauliOperator(g.n, 1 << (a - 1), g.adj[a - 1], 0) for a in range(1, g.n + 1)
    )
    return StabilizerGroup(g.n, gens, frozenset(range(1, g.n + 1)))


def restricted_subgroup(s: StabilizerGroup, keep) -> StabilizerGroup:
    """Keep only the generators whose vertex index lies in keep."""
    keep_set = frozenset(keep)
    if keep_set - s.support:
        raise ValueError("keep contains indices outside the group support")
    ordered = sorted(s.support)
    gens = tuple(s.generators[ordered.index(a)] for a in sorted(keep_set))
    return StabilizerGroup(s.n, gens, keep_set)


def group_elements(s: StabilizerGroup) -> list[PauliOperator]:
    """All 2^k products of the generators, in subset-mask order."""
    elements = []
    for mask in range(1 << len(s.generators)):
        acc = identity(s.n)
        for idx in _bits(mask):
            acc = multiply(acc, s.generators[idx])
        elements.append(acc)
    return elements


def entangles_check(s: StabilizerGroup) -> bool:
    """True when some kept generator has Z on another kept generator's vertex.

    For graph stabilizers this means the kept vertex set is not independent,
    so the stabilized set contains entangled states rather than a product
    basis.
    """
    for p, q in itertools.permutations(s.generators, 2):
        if p.x & q.z:
            return True
    return False


def stabilized_product_basis(g: Graph, alpha) -> tuple[str, ...]:
    """Product states stabilized by the alpha-restricted graph stabilizer.

    One state per bit-string k over beta = V \\ alpha (k ascending as a binary
    integer, first beta vertex most significant): beta vertex b carries Z+/Z-
    per k_b, alpha vertex a carries X+/X- per the parity of k over N_a.

    Each state's bits are a GF(2)-linear function of k, so the basis is built
    by doubling, last beta vertex b first: the rows for k + e_b are the rows
    so far XOR b's row, which flips "0"/"1" on b and "+"/"-" on its alpha
    neighbours.
    """
    amask = _independent_mask(g, alpha)
    n = g.n
    beta = [v for v in range(n) if not (amask >> v) & 1]
    codes = np.empty((1 << len(beta), n), np.uint8)
    codes[0] = [ord("+") if (amask >> v) & 1 else ord("0") for v in range(n)]
    for t, b in enumerate(reversed(beta)):  # b is bit t of k
        flip = np.zeros(n, np.uint8)
        flip[b] = ord("0") ^ ord("1")
        flip[list(_bits(g.adj[b] & amask))] = ord("+") ^ ord("-")
        np.bitwise_xor(codes[:1 << t], flip, out=codes[1 << t:2 << t])
    return _decode_states(codes)


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


def _transport_step(g: Graph, a: int, codes: np.ndarray) -> None:
    """Relabel every row of an ASCII code array under U_a^tau for g, in place."""
    g._check_vertex(a)
    codes[:, a - 1] = _SQRT_MINUS_IX[codes[:, a - 1]]
    cols = list(_bits(g.adj[a - 1]))
    codes[:, cols] = _SQRT_PLUS_IZ[codes[:, cols]]


def lc_clifford_transport(g: Graph, a: int, state: str) -> str:
    """Relabel a product state under U_a^tau for graph g (global phase dropped)."""
    codes = _encode_states((state,), g.n)
    _transport_step(g, a, codes)
    return _decode_states(codes)[0]


def states_orthogonal(s1: str, s2: str) -> bool:
    """Product states are orthogonal iff some qubit pair is an opposite pair."""
    opposite = {("0", "1"), ("1", "0"), ("+", "-"), ("-", "+"), ("i", "j"), ("j", "i")}
    return any((c1, c2) in opposite for c1, c2 in zip(s1, s2))


__all__ = [
    "PauliOperator",
    "StabilizerGroup",
    "STATE_ALPHABET",
    "identity",
    "multiply",
    "commutes",
    "generators_from_graph",
    "restricted_subgroup",
    "group_elements",
    "entangles_check",
    "stabilized_product_basis",
    "apply_pauli",
    "apply_generator",
    "lc_clifford_transport",
    "states_orthogonal",
]
