"""Golden outputs: the SHA-256 of the analyze report JSON on fixed graphs.

The digests pin the reports byte for byte, tie-breaks and float formatting
included.  K_{3,3} at orbit cap 2 reports coinciding bounds with the value 3,
although its full orbit gives [2, 2]: a truncated orbit's minimum matching is
not a sound lower bound.  Its digest pins that output until the bound is made
sound, which must change the digest on purpose.
"""

from __future__ import annotations

import hashlib

import pytest

from graphent import Graph, evaluate
from graphent.cli import _json

from conftest import FIG6, complete, ring, star

K33 = Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])

# (name, graph, orbit cap, SHA-256 of `graphent analyze` stdout)
GOLDEN = [
    ("fig6", FIG6, 5000, "9b172e21ce6fe3b66e997166ec28fcfccfadddf4b19b7ae184ac5fedac8d8fe8"),
    ("K4", complete(4), 5000, "f134db8815a29b75edbe2e346f0fbafb8558fcdb023f48726850dc2194b751b5"),
    ("C5", ring(5), 5000, "209d732b001ec0253a90bc63847f0e3ad21c240a4ffa928396ece34528d16715"),
    ("K33", K33, 5000, "833b4325eb5aa4ded718e03abdcbe0473995f52f15e220730f97097de9a54707"),
    ("star6", star(6), 5000, "29bbaee611e84f95652592c90dfb43df1ee074a7a6fbce80c9f85474ed8ee57b"),
    ("ring8", ring(8), 5000, "28c64361887e53d50493224710637f6eeb6de3126b60cf8bde57de7ce99e8c6a"),
    ("ring10", ring(10), 5000, "efdf3be55b6fbf0a1f5fd6331f638160e9824cfd14de2848163a7779b26459c4"),
    ("ring12", ring(12), 5000, "a6cfcf328d49db1e6968078ff1b85ed914c4072261a96dbb125f51aa0384bc1a"),
    ("K33-cap2", K33, 2, "a3daa02334fb4eecc3663496357389bb03a286c0a6b1d8d97eb883c05aa1140c"),
]


@pytest.mark.parametrize("graph,cap,digest", [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_analyze_report_digest(graph, cap, digest):
    text = _json(evaluate(graph, orbit_cap=cap).to_dict())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
