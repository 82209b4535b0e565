"""Symplectic Pauli algebra against the dense oracle, and the product bases."""

from __future__ import annotations

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
    entangles_check,
    generators_from_graph,
    lc_clifford_transport,
    local_complement,
    multiply,
    restricted_subgroup,
    stabilized_product_basis,
)
from graphent.measures import _transport_components
from graphent.pauli import commutes, group_elements, identity, states_orthogonal

from conftest import kernel_cases, random_connected


def test_generators_p3(p3):
    gens = generators_from_graph(p3).generators
    assert [p.text() for p in gens] == ["XZI", "ZXZ", "IZX"]


def test_generators_fig6(fig6):
    gens = generators_from_graph(fig6).generators
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
    assert [p.text() for p in generators_from_graph(g).generators] == ["X"]


def test_generators_commute(fig6):
    gens = generators_from_graph(fig6).generators
    for p, q in itertools.combinations(gens, 2):
        assert commutes(p, q)


def test_text_parse_round_trip():
    for text in ["XZI", "-IIZZXZ", "Y", "-iXY", "iZZ", "IIII"]:
        p = PauliOperator.from_text(text)
        assert PauliOperator.from_text(p.text()).__eq__(p)
    # unicode minus accepted
    assert PauliOperator.from_text("−IIZZXZ").phase == 2


def test_multiply_example():
    p = PauliOperator.from_text("XZI")
    q = PauliOperator.from_text("ZXZ")
    prod = multiply(p, q)
    assert prod.text() == "YYZ"
    assert prod.is_hermitian()


def test_multiply_self_inverse(fig6):
    for gen in generators_from_graph(fig6).generators:
        assert multiply(gen, gen).is_identity()


def test_multiply_identity(p3):
    g1 = generators_from_graph(p3).generators[0]
    assert multiply(g1, identity(3)) == g1


def test_multiply_length_mismatch():
    with pytest.raises(ValueError):
        multiply(identity(2), identity(3))


def test_multiply_matches_dense():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randrange(2, 6)
        g = random_connected(n, rng)
        gens = generators_from_graph(g).generators
        a = rng.choice(gens)
        b = rng.choice(gens)
        ab = multiply(a, b)
        assert np.allclose(
            dense.pauli_dense(a) @ dense.pauli_dense(b), dense.pauli_dense(ab), atol=1e-12
        )


def test_multiply_associative():
    rng = random.Random(1)
    g = random_connected(4, rng)
    gens = generators_from_graph(g).generators
    for a, b, c in itertools.permutations(gens, 3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


# ---------------------------------------------------------------------------
# subgroup restriction and product bases


def test_restricted_subgroup_p3(p3):
    full = generators_from_graph(p3)
    sub = restricted_subgroup(full, [1, 3])
    assert [p.text() for p in sub.generators] == ["XZI", "IZX"]
    assert sub.support == {1, 3}
    assert sub.order() == 4


def test_restricted_subgroup_empty(p3):
    sub = restricted_subgroup(generators_from_graph(p3), [])
    assert sub.generators == ()
    assert [p.text() for p in group_elements(sub)] == ["III"]


def test_restricted_subgroup_fig6(fig6):
    sub = restricted_subgroup(generators_from_graph(fig6), [1, 2, 3, 4])
    assert len(sub.generators) == 4
    assert all(gen.text()[4:] != "XX" for gen in sub.generators)


def test_entangles_check_example1(p3):
    full = generators_from_graph(p3)
    assert entangles_check(restricted_subgroup(full, [1, 2]))
    assert not entangles_check(restricted_subgroup(full, [1, 3]))
    assert not entangles_check(restricted_subgroup(full, [2]))


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


def test_basis_mutually_orthogonal(fig6):
    basis = stabilized_product_basis(fig6, [1, 2, 3, 4])
    for s1, s2 in itertools.combinations(basis, 2):
        assert states_orthogonal(s1, s2)


def test_basis_states_fixed_by_alpha_subgroup():
    rng = random.Random(7)
    for _ in range(15):
        g = random_connected(rng.randrange(2, 7), rng)
        from graphent import max_independent_set

        alpha = max_independent_set(g)
        sub = restricted_subgroup(generators_from_graph(g), alpha)
        basis = stabilized_product_basis(g, alpha)
        for state in basis:
            for el in group_elements(sub):
                sign, out = apply_generator(el, state)
                assert (sign, out) == (1, state)


def test_beta_generators_permute_basis(fig6):
    basis = stabilized_product_basis(fig6, [1, 2, 3, 4])
    gens = generators_from_graph(fig6).generators
    for k in (4, 5):  # beta generators g5, g6
        for state in basis:
            sign, out = apply_generator(gens[k], state)
            assert out in basis and sign in (1, -1)


def test_apply_generator_cover_actions(fig6):
    basis = stabilized_product_basis(fig6, [1, 2, 3, 4])
    g5 = generators_from_graph(fig6).generators[4]
    g6 = generators_from_graph(fig6).generators[5]
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
    sub = restricted_subgroup(generators_from_graph(fig6), [1, 2, 3, 4])
    for state in stabilized_product_basis(fig6, [1, 2, 3, 4]):
        vec = dense.product_state_vector(state)
        for el in group_elements(sub):
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
        lhs = dense.lc_unitary_dense(g, a) @ dense.product_state_vector(state)
        rhs = dense.product_state_vector(out)
        assert dense.equal_up_to_phase(lhs, rhs)


def test_lc_unitary_consistency_small():
    # statevector(tau_a(g)) equals the dense U_a^tau action up to global phase
    for n in (2, 3, 4, 5):
        rng = random.Random(n)
        for _ in range(6):
            g = random_connected(n, rng)
            a = rng.randrange(1, n + 1)
            lhs = dense.statevector(local_complement(g, a))
            rhs = dense.lc_unitary_dense(g, a) @ dense.statevector(g)
            assert dense.equal_up_to_phase(lhs, rhs)


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
        # also on a qubit that no step touches, and with no step at all
        with pytest.raises(ValueError, match=repr(label)):
            _transport_components(p3, (1,), ("+0+", bad[::-1]))
        with pytest.raises(ValueError, match=repr(label)):
            _transport_components(p3, (), (bad,))


def test_transport_rejects_bad_lengths(p3):
    with pytest.raises(ValueError, match="state length does not match graph size"):
        lc_clifford_transport(p3, 1, "+0")
    # the lengths are checked per string, not only in total
    with pytest.raises(ValueError, match="state length does not match graph size"):
        _transport_components(p3, (2,), ("+0+0", "+0"))


# ---------------------------------------------------------------------------
# The array builders against the per-character loops they replaced

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
        if g.has_edge(a, b):
            out[b - 1] = LOOP_SQRT_PLUS_IZ[out[b - 1]]
    return "".join(out)


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
        final, comps = _transport_components(g, seq, basis)
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
        assert _transport_components(g, seq, states)[1] == loop_transport(g, seq, states)[1]
