"""Golden outputs: the SHA-256 of the analyze report JSON on fixed graphs, of
`graphent orbit` stdout on whole and capped orbits, and of the oracle
commands' stdout (verify, css with each --method and with all), and of
`graphent lattice` stdout on every exact patch of each kind within 64
vertices and on two formula-only ranges.

The digests pin the reports byte for byte, tie-breaks and float formatting
included.  K_{3,3} at orbit cap 2 reports the interval [2, 3]: a truncated
orbit's lower bound is the cut rank, which holds on every member, not the
smallest matching among the members visited (3 here, although the full orbit
gives [2, 2]).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from graphent import Graph, evaluate
from graphent.cli import _json, main
from graphent.lattices import LatticeSpec, generate_lattice

from conftest import FIG6, complete, random_connected, ring, star, write_graph

K33 = Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])

# (name, graph, orbit cap, SHA-256 of `graphent analyze` stdout)
GOLDEN = [
    ("fig6", FIG6, 5000, "9b172e21ce6fe3b66e997166ec28fcfccfadddf4b19b7ae184ac5fedac8d8fe8"),
    ("K4", complete(4), 5000, "f134db8815a29b75edbe2e346f0fbafb8558fcdb023f48726850dc2194b751b5"),
    ("C5", ring(5), 5000, "209d732b001ec0253a90bc63847f0e3ad21c240a4ffa928396ece34528d16715"),
    ("K33", K33, 5000, "833b4325eb5aa4ded718e03abdcbe0473995f52f15e220730f97097de9a54707"),
    ("star6", star(6), 5000, "29bbaee611e84f95652592c90dfb43df1ee074a7a6fbce80c9f85474ed8ee57b"),
    ("ring8", ring(8), 5000, "28c64361887e53d50493224710637f6eeb6de3126b60cf8bde57de7ce99e8c6a"),
    ("ring10", ring(10), 5000, "0eab986a74406febe01f21f59af5e997e3e288ce727336548701cabe97598198"),
    ("ring12", ring(12), 5000, "490a284d3832521e9c910b9ea7200d2e7f806cebded9470f2b72ac14001f4303"),
    ("K33-cap2", K33, 2, "dbfbe84f447cf9500b465e2c63bcf2468ccd61b2a2bda27a84225d5711e47a66"),
    # two inputs that enumerate their whole orbit and report a nonempty lc_path
    ("G8-seed3", random_connected(8, random.Random(3)), 5000,
     "d22dc79c135a448e6ee172d678df8ff68dc30f079ed0fbe736f3c92a974423a5"),
    ("G9-seed1", random_connected(9, random.Random(1)), 5000,
     "022c56c1a428a9ea36098a82900fdae7133c16214c34717021d61499ad232d7e"),
]


@pytest.mark.parametrize("graph,cap,digest", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_analyze_report_digest(graph, cap, digest):
    text = _json(evaluate(graph, orbit_cap=cap).to_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# (name, graph, orbit cap or None for the default, SHA-256 of `graphent orbit`
# stdout): three whole orbits of 8,140, 22,484 and 27,368 members, and two
# that the cap cuts off, one of them at 62 vertices
ORBIT_GOLDEN = [
    ("ring9", ring(9), None, "74f554b6bc584f4f21d268406dbfc741951e3d5e7f8ac8debfec45ca8180599b"),
    ("ring10", ring(10), None, "486b10e8ea63564fb65c1a1a70d424d16a1fa6016bb37f5003cfb0a41a6517d6"),
    ("G10-seed10", random_connected(10, random.Random(10)), None,
     "4e8a2c3059f660257fa431bc46b55cf120f034d34e449ea68f87290cb02af1cb"),
    ("G13-seed13-cap5000", random_connected(13, random.Random(13)), 5000,
     "398b52082b8b21662a40c95d9ba07bc2343312f64aab62bfd9af07d9db9b380f"),
    ("hexagonal15-cap2000", generate_lattice(LatticeSpec("hexagonal", 15)), 2000,
     "d1be486890b7aaee0659a915e7f3b9cfaefdc627dd5079d24179f47bb512bb42"),
]


@pytest.mark.parametrize("graph,cap,digest", [case[1:] for case in ORBIT_GOLDEN], ids=[case[0] for case in ORBIT_GOLDEN])
def test_orbit_command_digest(graph, cap, digest, tmp_path, capsys):
    main(["orbit", *([] if cap is None else ["--orbit-cap", str(cap)]), write_graph(graph, tmp_path / "graph.txt")])
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# a fixed connected 10-vertex graph with 20 edges: the size at which the dense
# oracle's 2^n x 2^n matrices and 4^n-entry group sums cost the most
G10 = Graph.from_edges(10, [
    (1, 2), (1, 3), (1, 4), (1, 9), (2, 4), (2, 5), (2, 7), (3, 4), (3, 7), (3, 10),
    (4, 8), (4, 10), (5, 6), (5, 7), (5, 9), (6, 8), (6, 10), (7, 9), (8, 10), (9, 10),
])

ORACLE_GRAPHS = {"fig6": FIG6, "C5": ring(5), "K4": complete(4), "G10": G10}
ORACLE_COMMANDS = {
    "verify": ["verify"],
    "css": ["css", "--method", "all"],
    "css-stabilizer": ["css", "--method", "stabilizer"],
    "css-peps": ["css", "--method", "peps"],
    "css-noise": ["css", "--method", "noise"],
}

# (command, graph, SHA-256 of its stdout); K4's report has a nonempty lc_path
ORACLE_GOLDEN = [
    ("verify", "fig6", "74924d0776e0f7045ef0151a1c73196dd8bec4cbe4de0869590c95b6342760b7"),
    ("css", "fig6", "4cf0a30765488f1cab948be35794d9c717a50b0b6006765a89352b6671f64bf5"),
    ("verify", "C5", "05c04d75d532b1879a99efeab58ca663e8698eaf57f28049ea29c23e54c600d7"),
    ("css", "C5", "bb0fc1df544e816238aff733aaafd978864576a74fa851f52382779bda98d681"),
    ("verify", "K4", "7d97479e6d617e50fc897bdc46cf09ae04467090273b1b99868aa6cbb16a295e"),
    ("css", "K4", "e71cc879c724d530e94dbf3bde5da9eafc3c2cae18fa35004129f22005ea0a08"),
    ("verify", "G10", "7b05e250cafaedd18f40e078669d276635ef959aa7f967068560227ce84a1cee"),
    ("css", "G10", "b3bcf609d7184c9082c3394896ef4db69c12954be7691f23e2c5897134115e57"),
    # each css method alone
    ("css-stabilizer", "fig6", "4df65a74eaa27857806adc133e6f760055a8aa634b18e0be8ddd4548d4f940a2"),
    ("css-stabilizer", "C5", "1f958fdbbee97cf16fdbda4dce6fecf8284c0040c42772d781bfd575a4b04efd"),
    ("css-stabilizer", "G10", "f3d54e34fa26a573662ca3d4ee5465a955fa42b11e0cd63bb495b2e74b0f82e2"),
    ("css-peps", "fig6", "ab69e92720509a3940991783095c649156795c1feadcbea7558392f74cfd476f"),
    ("css-peps", "C5", "1bc09051de6f53d238769c2935fb4d9440037696fda6d23d204474e2946541fc"),
    ("css-peps", "G10", "e399c58d99bd109582151f8e0c5e31988cb9a60cfa0e12875739e5b202bb1b7f"),
    ("css-noise", "fig6", "f8897e030f96e9021d13ec01989430c976c88f491cb23e915e35e893a95dd8e1"),
    ("css-noise", "C5", "b1e6b1ca71c42ac0c15d4fff090871f6a79b75489b7772cc441f0d367a3d599c"),
    ("css-noise", "G10", "5df68177275cb24f5d29c6b98c06f4de322ea690e4de6b726f7567d1dd4b8d2f"),
]


@pytest.mark.parametrize("command,graph,digest", ORACLE_GOLDEN, ids=[f"{c}-{g}" for c, g, _ in ORACLE_GOLDEN])
def test_oracle_command_digest(command, graph, digest, tmp_path, capsys):
    main([*ORACLE_COMMANDS[command], write_graph(ORACLE_GRAPHS[graph], tmp_path / "graph.txt")])
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# (kind, size range, --exact, SHA-256 of `graphent lattice` stdout)
LATTICE_GOLDEN = [
    ("triangular", "1..8", True, "55219f202e41f9a1aa8f984747f29f93b4a946508a55a65eddfc0ecd8af321b4"),
    ("kagome", "1..4", True, "df8f6e012ba1eb24c91c564a26673629f63d4449914658bf7b03a67c50a1df1b"),
    ("hexa-triangular", "1..4", True, "efcef4e8060522f43c35bfdc38ce8a137860832c13c758d3ead28d92de0e465b"),
    ("hexagonal", "1..15", True, "ae3e600335b1e2cf2a0b93b8fd1b5e3876a98152cad2578116fc0ebdd73b7b86"),
    # formula-only rows, past 64 vertices
    ("triangular", "4..9", False, "f1e0512d5cb6bed8aa03a91b9cfc49ca5b9d0f1c1edddc8c432cee9e50d6b0a8"),
    ("kagome", "1..30", False, "682a568d1742bc5e4e40faad67e5e8117c77eaabd78b58116cebb9bbd4fa462f"),
]


@pytest.mark.parametrize("kind,sizes,exact,digest", LATTICE_GOLDEN,
                         ids=[f"{k}-{s}{'-exact' if e else ''}" for k, s, e, _ in LATTICE_GOLDEN])
def test_lattice_command_digest(kind, sizes, exact, digest, capsys):
    assert main(["lattice", kind, sizes, *(["--exact"] if exact else [])]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
