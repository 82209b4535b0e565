"""Symplectic Pauli algebra against the dense oracle, and the product bases."""

from __future__ import annotations

import functools
import hashlib
import itertools
import random

import numpy as np
import pytest

from graphent import (
    Graph,
    PauliOperator,
    apply_generator,
    apply_pauli,
    dense,
    evaluate,
    generators_from_graph,
    lattices,
    lc_clifford_transport,
    local_complement,
    max_independent_set,
    multiply,
    pauli,
    restricted_subgroup,
    stabilized_product_basis,
    transport_css,
)
from graphent.cli import _json
from graphent.graphs import _independent_mask
from graphent.measures import _transport_components
from graphent.pauli import _basis_codes, _decode_states, _encode_state, group_elements, identity

from conftest import kernel_cases, random_connected
from oracles import all_connected_graphs, commutes, entangles_check, lc_unitary_dense, pauli_from_text
from test_golden import GOLDEN


def test_generators_p3(p3):
    gens = generators_from_graph(p3)
    assert [p.text() for p in gens] == ["XZI", "ZXZ", "IZX"]


def test_generators_fig6(fig6):
    gens = generators_from_graph(fig6)
    assert [p.text() for p in gens] == [
        "XIIIIZ",
        "IXIIIZ",
        "IIXIZI",
        "IIIXZI",
        "IIZZXZ",
        "ZZIIZX",
    ]


def test_generators_single_vertex():
    g = Graph.from_edges(1, [])
    assert [p.text() for p in generators_from_graph(g)] == ["X"]


def test_generators_commute(fig6):
    gens = generators_from_graph(fig6)
    for p, q in itertools.combinations(gens, 2):
        assert commutes(p, q)


def test_text_parse_round_trip():
    for text in ["XZI", "-IIZZXZ", "Y", "-iXY", "iZZ", "IIII"]:
        p = pauli_from_text(text)
        assert pauli_from_text(p.text()).__eq__(p)
    # unicode minus accepted
    assert pauli_from_text("−IIZZXZ").phase == 2


def test_multiply_example():
    p = pauli_from_text("XZI")
    q = pauli_from_text("ZXZ")
    prod = multiply(p, q)
    assert prod.text() == "YYZ"
    assert (prod.phase + (prod.x & prod.z).bit_count()) % 2 == 0  # Hermitian


def test_multiply_self_inverse(fig6):
    for gen in generators_from_graph(fig6):
        assert multiply(gen, gen) == identity(6)


def test_multiply_identity(p3):
    g1 = generators_from_graph(p3)[0]
    assert multiply(g1, identity(3)) == g1


def test_multiply_length_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))


def test_multiply_matches_dense():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randrange(2, 6)
        g = random_connected(n, rng)
        gens = generators_from_graph(g)
        a = rng.choice(gens)
        b = rng.choice(gens)
        ab = multiply(a, b)
        assert np.allclose(
            dense.pauli_dense(a) @ dense.pauli_dense(b), dense.pauli_dense(ab), atol=1e-12
        )


def test_multiply_associative():
    rng = random.Random(1)
    g = random_connected(4, rng)
    gens = generators_from_graph(g)
    for a, b, c in itertools.permutations(gens, 3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


# ---------------------------------------------------------------------------
# subgroup restriction and product bases


def test_restricted_subgroup_p3(p3):
    sub = restricted_subgroup(p3, [3, 1])
    assert [p.text() for p in sub] == ["XZI", "IZX"]
    assert len(group_elements(3, sub)) == 4
    with pytest.raises(ValueError, match="vertex 4 out of range 1..3"):
        restricted_subgroup(p3, [4])


def test_restricted_subgroup_empty(p3):
    sub = restricted_subgroup(p3, [])
    assert sub == ()
    assert [p.text() for p in group_elements(3, sub)] == ["III"]


def test_restricted_subgroup_fig6(fig6):
    sub = restricted_subgroup(fig6, [1, 2, 3, 4])
    assert len(sub) == 4
    assert all(gen.text()[4:] != "XX" for gen in sub)


def test_group_elements_are_left_folds():
    # element mask is the product of the generators on the ascending bits of
    # mask, multiplied left to right from the identity (x, z and phase alike)
    for n in range(1, 6):
        for g in all_connected_graphs(n):
            for keep in (range(1, n + 1), max_independent_set(g), ()):
                gens = restricted_subgroup(g, keep)
                elements = group_elements(n, gens)
                assert len(elements) == 1 << len(gens)
                for mask, element in enumerate(elements):
                    fold = functools.reduce(
                        multiply, [gens[i] for i in range(len(gens)) if (mask >> i) & 1], identity(n)
                    )
                    assert element == fold, (g.edges(), keep, mask)


def test_entangles_check_example1(p3):
    assert entangles_check(restricted_subgroup(p3, [1, 2]))
    assert not entangles_check(restricted_subgroup(p3, [1, 3]))
    assert not entangles_check(restricted_subgroup(p3, [2]))


def test_basis_example2(fig6):
    basis = stabilized_product_basis(fig6, [1, 2, 3, 4])
    assert basis == ("++++00", "--++01", "++--10", "----11")


def test_basis_example1(p3):
    assert stabilized_product_basis(p3, [1, 3]) == ("+0+", "-1-")


def test_basis_p2(p2):
    assert stabilized_product_basis(p2, [1]) == ("+0", "-1")


def test_basis_requires_independent_alpha(fig6):
    with pytest.raises(ValueError):
        stabilized_product_basis(fig6, [5, 6])


def test_basis_past_the_listing_limit_is_refused():
    # a star's centre alone as alpha leaves every leaf in beta
    limit = pauli._MAX_LISTED_BETA
    assert limit > 17  # the largest basis the lattice certificates list
    leaves = Graph.from_edges(limit + 2, [(1, v) for v in range(2, limit + 3)])
    with pytest.raises(ValueError, match=rf"2\^{limit + 1} states"):
        stabilized_product_basis(leaves, [1])
    assert len(stabilized_product_basis(leaves, range(2, limit + 3))) == 2


def test_basis_mutually_orthogonal(fig6):
    basis = stabilized_product_basis(fig6, [1, 2, 3, 4])
    for s1, s2 in itertools.combinations(basis, 2):
        overlap = np.vdot(dense.product_state_vector(s1), dense.product_state_vector(s2))
        assert abs(overlap) < 1e-12, (s1, s2)


def test_basis_states_fixed_by_alpha_subgroup():
    rng = random.Random(7)
    for _ in range(15):
        g = random_connected(rng.randrange(2, 7), rng)
        from graphent import max_independent_set

        alpha = max_independent_set(g)
        sub = restricted_subgroup(g, alpha)
        basis = stabilized_product_basis(g, alpha)
        for state in basis:
            for el in group_elements(g.n, sub):
                sign, out = apply_generator(el, state)
                assert (sign, out) == (1, state)


def test_beta_generators_permute_basis(fig6):
    basis = stabilized_product_basis(fig6, [1, 2, 3, 4])
    gens = generators_from_graph(fig6)
    for k in (4, 5):  # beta generators g5, g6
        for state in basis:
            sign, out = apply_generator(gens[k], state)
            assert out in basis and sign in (1, -1)


def test_apply_generator_cover_actions(fig6):
    basis = stabilized_product_basis(fig6, [1, 2, 3, 4])
    g5 = generators_from_graph(fig6)[4]
    g6 = generators_from_graph(fig6)[5]
    assert apply_generator(g5, basis[0]) == (1, basis[2])
    assert apply_generator(g5, basis[1]) == (-1, basis[3])
    assert apply_generator(g6, basis[0]) == (1, basis[1])
    assert apply_generator(g6, basis[2]) == (-1, basis[3])


def test_apply_identity(fig6):
    assert apply_generator(identity(6), "+-01ij") == (1, "+-01ij")


def test_apply_pauli_matches_dense():
    rng = random.Random(3)
    labels = "01+-ij"
    for _ in range(40):
        n = rng.randrange(1, 5)
        p = PauliOperator(
            n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4)
        )
        state = "".join(rng.choice(labels) for _ in range(n))
        k, out = apply_pauli(p, state)
        lhs = dense.pauli_dense(p) @ dense.product_state_vector(state)
        rhs = (1j**k) * dense.product_state_vector(out)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_basis_dense_eigenvectors(fig6):
    # every basis state is a +1 eigenvector of every S_alpha element, densely
    sub = restricted_subgroup(fig6, [1, 2, 3, 4])
    for state in stabilized_product_basis(fig6, [1, 2, 3, 4]):
        vec = dense.product_state_vector(state)
        for el in group_elements(6, sub):
            assert np.allclose(dense.pauli_dense(el) @ vec, vec, atol=1e-12)


# ---------------------------------------------------------------------------
# LC Clifford transport


def test_transport_convention_on_labels(p2):
    # sqrt(-iX) fixes X eigenstates and sends Z+ to Y-; sqrt(iZ) fixes Z states
    assert lc_clifford_transport(p2, 1, "00") == "j0"
    assert lc_clifford_transport(p2, 1, "+0") == "+0"
    assert lc_clifford_transport(p2, 2, "0+") == "0+"
    assert lc_clifford_transport(p2, 2, "01") == "0i"


def test_transport_matches_dense_unitary():
    rng = random.Random(5)
    labels = "01+-ij"
    for _ in range(30):
        n = rng.randrange(2, 6)
        g = random_connected(n, rng)
        a = rng.randrange(1, n + 1)
        state = "".join(rng.choice(labels) for _ in range(n))
        out = lc_clifford_transport(g, a, state)
        lhs = lc_unitary_dense(g, a) @ dense.product_state_vector(state)
        rhs = dense.product_state_vector(out)
        assert abs(abs(np.vdot(lhs, rhs)) - 1) < 1e-10


def test_lc_unitary_consistency_small():
    # statevector(tau_a(g)) equals the dense U_a^tau action up to global phase
    for n in (2, 3, 4, 5):
        rng = random.Random(n)
        for _ in range(6):
            g = random_connected(n, rng)
            a = rng.randrange(1, n + 1)
            lhs = dense.statevector(local_complement(g, a))
            rhs = lc_unitary_dense(g, a) @ dense.statevector(g)
            assert abs(abs(np.vdot(lhs, rhs)) - 1) < 1e-10


def test_transport_closed_on_six_states(fig6):
    labels = set("01+-ij")
    for a in range(1, 7):
        for ch in labels:
            out = lc_clifford_transport(fig6, a, ch * 6)
            assert set(out) <= labels


def test_transport_rejects_unknown_labels(p3):
    for bad, label in (("+x+", "x"), ("+\u00e9+", "\u00e9")):
        with pytest.raises(ValueError, match=repr(label)):
            lc_clifford_transport(p3, 1, bad)
        with pytest.raises(ValueError, match=repr(label)):
            apply_pauli(identity(3), bad)
        # also on a qubit that the step does not touch (U_3 acts on qubits 2 and 3)
        with pytest.raises(ValueError, match=repr(label)):
            lc_clifford_transport(p3, 3, label + "++")


def test_transport_rejects_bad_lengths(p3):
    for bad in ("+0", "+0+0"):
        with pytest.raises(ValueError, match="state length does not match graph size"):
            lc_clifford_transport(p3, 1, bad)


# ---------------------------------------------------------------------------
# The buffer builders against the per-character loops they replaced

LOOP_SQRT_MINUS_IX = {"0": "j", "1": "i", "+": "+", "-": "-", "i": "0", "j": "1"}
LOOP_SQRT_PLUS_IZ = {"0": "0", "1": "1", "+": "j", "-": "i", "i": "+", "j": "-"}


def loop_basis(g: Graph, alpha) -> tuple[str, ...]:
    """The stabilized basis built one character at a time."""
    amask = sum(1 << (a - 1) for a in alpha)
    beta = [b + 1 for b in range(g.n) if not (amask >> b) & 1]
    m = len(beta)
    states = []
    for k in range(1 << m):
        kmask = 0
        for pos, b in enumerate(beta):
            if (k >> (m - 1 - pos)) & 1:
                kmask |= 1 << (b - 1)
        chars = []
        for v in range(1, g.n + 1):
            if (amask >> (v - 1)) & 1:
                chars.append("-" if (g.adj[v - 1] & kmask).bit_count() & 1 else "+")
            else:
                chars.append("1" if (kmask >> (v - 1)) & 1 else "0")
        states.append("".join(chars))
    return tuple(states)


def loop_lc_transport(g: Graph, a: int, state: str) -> str:
    """U_a^tau on one label string through the two label dicts."""
    out = list(state)
    out[a - 1] = LOOP_SQRT_MINUS_IX[out[a - 1]]
    for b in range(1, g.n + 1):
        if (g.adj[a - 1] >> (b - 1)) & 1:
            out[b - 1] = LOOP_SQRT_PLUS_IZ[out[b - 1]]
    return "".join(out)


def codes_of(states) -> bytearray:
    """The label buffer of label strings: each a row ended by a newline."""
    return bytearray("".join(state + "\n" for state in states).encode("ascii"))


def states_of(codes: bytearray) -> tuple[str, ...]:
    return tuple(codes.decode("ascii").split())


def loop_transport(g: Graph, lc_sequence, states):
    h, out = g, list(states)
    for a in lc_sequence:
        out = [loop_lc_transport(h, a, s) for s in out]
        h = local_complement(h, a)
    return h, tuple(out)


def test_basis_is_the_character_loop():
    for g, alpha, _ in kernel_cases():
        assert stabilized_product_basis(g, alpha) == loop_basis(g, alpha), (g.adj, alpha)


def test_transport_is_the_dict_loop():
    complex_labels = repeats = 0
    for g, alpha, seq in kernel_cases():
        basis = loop_basis(g, alpha)
        codes = codes_of(basis)
        final = _transport_components(g, seq, codes)
        comps = states_of(codes)
        want_final, want = loop_transport(g, seq, basis)
        assert final.adj == want_final.adj and comps == want, (g.adj, alpha, seq)
        for state in basis[:4]:
            assert lc_clifford_transport(g, seq[0], state) == loop_lc_transport(g, seq[0], state)
        complex_labels += any("i" in s or "j" in s for s in comps)
        repeats += len(set(seq)) < len(seq)
    assert complex_labels and repeats


def test_transport_is_the_dict_loop_on_every_label():
    rng = random.Random(17)
    for n in range(6, 11):
        g = random_connected(n, rng)
        states = ["".join(rng.choice("01+-ij") for _ in range(n)) for _ in range(50)]
        seq = [rng.randrange(1, n + 1) for _ in range(4)] * 2
        codes = codes_of(states)
        _transport_components(g, seq, codes)
        assert states_of(codes) == loop_transport(g, seq, states)[1]


def slice_decode(codes: bytearray, n: int) -> tuple[str, ...]:
    """The rows of a label buffer cut out of one decoded string, one slice per row."""
    data = codes.decode("ascii")
    return tuple([data[i:i + n] for i in range(0, len(data), n + 1)])


def test_decode_is_the_slice_decode():
    for g, alpha, seq in kernel_cases():
        codes = _basis_codes(g, _independent_mask(g, alpha))
        _transport_components(g, seq, codes)
        assert _decode_states(codes) == slice_decode(codes, g.n), (g.adj, alpha, seq)
    assert _decode_states(_encode_state("+0ij-1", 6)) == ("+0ij-1",)


def test_certificates_encode_no_string(monkeypatch):
    # the basis stays one label buffer through signs and transport: only a
    # string handed to lc_clifford_transport is ever encoded
    def refuse(state, n):
        raise AssertionError("a certificate string was encoded")

    monkeypatch.setattr(pauli, "_encode_state", refuse)
    _, g, cap, digest = next(case for case in GOLDEN if case[0] == "K4")
    report = evaluate(g, orbit_cap=cap)
    assert report.lc_path  # the CSS is transported back to K4
    assert hashlib.sha256(_json(report.to_dict()).encode("utf-8")).hexdigest() == digest
    rng = random.Random(4)
    for kind, size in (("hexagonal", 4), ("triangular", 4)):
        g = lattices.generate_lattice(lattices.LatticeSpec(kind, size))
        alpha = max_independent_set(g)
        seq = [rng.randrange(1, g.n + 1) for _ in range(3)]
        css = transport_css(g, seq, alpha)
        assert css.components == loop_transport(g, seq, loop_basis(g, alpha))[1], (kind, size)
