"""Golden hashes of simulator trajectories, so a change of the random stream fails loudly.

Each hash covers the sampled counts, the number of events and the per-event
totals of one `simulate` or `node_level_simulate` call.  The count-level
values were recorded before that event loop was rewritten to step plain
counts in place, the node-level ones before both simulators were moved onto
one shared event loop, and the 64-island cycle and the star before the
count-level loop recomputed only the rate slots an event changes; a refactor of either simulator must reproduce them bit
for bit.  A deliberate stream change must update them and document the change.
"""

import builtins
import hashlib
import math

import numpy as np
import pytest

from islandsis import micro
from islandsis.micro import MacroCounts, StrainParams, edge_rows, node_level_simulate, simulate
from islandsis.topology import (
    bipartite_supernetwork,
    build_supernetwork,
    cycle_supernetwork,
    star_supernetwork,
)


def trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(traj.counts, dtype="<i8").tobytes())
    h.update(repr(traj.n_events).encode())
    h.update(repr(sorted(traj.event_totals.items())).encode())
    return h.hexdigest()


def _c9_shape(run, seed, rep):
    # C9: bipartite 3+3, gamma 2, mu 1, one infected node, t = 2; seed 11 count-level, 13 node-level
    net = bipartite_supernetwork(3, 3)
    return run(net, StrainParams.uniform(net, 2.0, 1.0), MacroCounts(((1,), (0,)), (3, 3)),
               2.0, seed, [0.0, 2.0], rep)


def _converge_shape():
    # C8's largest size: bipartite 1600+1600, gamma 2, 10% infected, grid of 21 over t = 10
    net = bipartite_supernetwork(1600, 1600)
    counts0 = MacroCounts.from_fractions(net, [[0.1], [0.1]])
    return simulate(counts0, net, StrainParams.uniform(net, 2.0, 1.0), 10.0, 2025,
                    np.linspace(0.0, 10.0, 21), rep=0)


def _path_two_strains(run):
    # unequal sizes and a distinct rate on every directed edge and strain
    net = build_supernetwork([2, 3, 2, 5], [(1, 2), (2, 3), (3, 4)])
    rates = {}
    for k in (1, 2):
        for e, (j, i) in enumerate(net.in_edge_pairs):
            rates[(k, j, i)] = 0.6 + 0.35 * e + 0.5 * k
    params = StrainParams(net, edge_rows(net, rates, (1, 2)), (1.0, 1.3))
    counts0 = MacroCounts(((1, 0), (0, 1), (1, 1), (0, 2)), net.sizes)
    return run(net, params, counts0, 6.0, 7, np.linspace(0.0, 6.0, 13), 2)


def _cycle_two_strains(run):
    net = cycle_supernetwork(8, 40)
    params = StrainParams.uniform(net, (1.8, 1.4), (1.0, 1.0))
    counts0 = MacroCounts(tuple((4, 2) if i % 2 else (1, 5) for i in range(8)), net.sizes)
    return run(net, params, counts0, 3.0, 99, np.linspace(0.0, 3.0, 7), 1)


def _cycle64_two_strains(run):
    # M = 64: an event touches a few of the 256 rate slots, so a wrong neighbour update shows
    net = cycle_supernetwork(64, 20)
    params = StrainParams.uniform(net, (1.6, 1.3), (1.0, 1.2))
    counts0 = MacroCounts(tuple(((i * 7) % 5, (i * 3) % 4) for i in range(64)), net.sizes)
    return run(net, params, counts0, 1.5, 31, np.linspace(0.0, 1.5, 7), 3)


def _star_unequal(run):
    # a hub of 40 feeding seven leaves of unequal sizes, a distinct rate on every edge and strain
    net = star_supernetwork(8, [40, 5, 12, 3, 25, 8, 17, 9])
    rates = {}
    for k in (1, 2):
        for e, (j, i) in enumerate(net.in_edge_pairs):
            rates[(k, j, i)] = 0.4 + 0.15 * e + 0.7 * k
    params = StrainParams(net, edge_rows(net, rates, (1, 2)), (1.1, 0.9))
    counts0 = MacroCounts(((6, 3), (1, 0), (0, 2), (1, 1), (0, 0), (2, 0), (0, 4), (1, 0)), net.sizes)
    return run(net, params, counts0, 4.0, 5, np.linspace(0.0, 4.0, 9), 1)


def _count_level(net, params, counts0, t_end, seed, grid, rep):
    return simulate(counts0, net, params, t_end, seed, grid, rep=rep)


def _node_level(net, params, counts0, t_end, seed, grid, rep):
    # each island's infected nodes first, strain by strain, then its healthy ones
    initial = [[k + 1 for k, c in enumerate(row) for _ in range(c)] + [0] * (n - sum(row))
               for row, n in zip(counts0.y, counts0.sizes)]
    return node_level_simulate(net, params, initial, t_end, seed, grid, rep=rep)


GOLDEN = {
    **{f"c9-rep{rep}": (lambda rep=rep: _c9_shape(_count_level, 11, rep)) for rep in range(10)},
    "converge-1600": _converge_shape,
    "path-2325-k2": lambda: _path_two_strains(_count_level),
    "cycle8x40-k2": lambda: _cycle_two_strains(_count_level),
    "cycle64x20-k2": lambda: _cycle64_two_strains(_count_level),
    "star8-unequal-k2": lambda: _star_unequal(_count_level),
    **{f"node-c9-rep{rep}": (lambda rep=rep: _c9_shape(_node_level, 13, rep)) for rep in range(10)},
    "node-path-2325-k2": lambda: _path_two_strains(_node_level),
    "node-cycle8x40-k2": lambda: _cycle_two_strains(_node_level),
    "node-cycle64x20-k2": lambda: _cycle64_two_strains(_node_level),
    "node-star8-unequal-k2": lambda: _star_unequal(_node_level),
}

GOLDEN_SHA256 = {
    "c9-rep0": "56ac6c0b0c0ff9570ccc518a544a2eff922c00d521230c5ad1c14a5e5caa4822",
    "c9-rep1": "639ccdac6d343a24e3a86a72e83db421a6c1e4552652b1f726d62b74a136a8a9",
    "c9-rep2": "2d9da54ae8a1e00dd2d4c6866333304de478925fe7a05e053a80e1543a3c9087",
    "c9-rep3": "66b50a8fc16364522accf811addd31c2a69b5c47e8994a325630946d2265dadc",
    "c9-rep4": "9b0224b4ac6f1802fc7d69d24cf18b3bcbe479ac9277cf2cea617b7aca32b4b5",
    "c9-rep5": "1225918cbde11f02478b41fc68b8f7cc286615218f97dd33f32303763a638880",
    "c9-rep6": "e6bf717aa64249b74568bc2649d1b1a1a782d7e83b53ad45cdafacc4258c956a",
    "c9-rep7": "2d9da54ae8a1e00dd2d4c6866333304de478925fe7a05e053a80e1543a3c9087",
    "c9-rep8": "2d9da54ae8a1e00dd2d4c6866333304de478925fe7a05e053a80e1543a3c9087",
    "c9-rep9": "2d9da54ae8a1e00dd2d4c6866333304de478925fe7a05e053a80e1543a3c9087",
    "converge-1600": "5504d4005863670b3532015b96f046f2bcb3349dd6c32b093fc87c9fc4e54148",
    "cycle64x20-k2": "772eef426a18a29af56ccbf1b5e9a561ebb2d1bd5cc774a237d59cbedb006768",
    "star8-unequal-k2": "878fb62e6cbb9e795b4c32c8b7773366713083a54a2752bbb50af1929ba16638",
    "cycle8x40-k2": "13f305e874310277e50758fa4452a3265133723d035cdf6a1be595387218e11c",
    "path-2325-k2": "89ed00839eb2a5732f1cb9726cfa55152dcea32e8c034ff551d9ee32a03e4286",
    "node-c9-rep0": "2d9da54ae8a1e00dd2d4c6866333304de478925fe7a05e053a80e1543a3c9087",
    "node-c9-rep1": "e0394013e21a94078ae50bb2f7d8ef1b9c10d66a7177d8f006c8eba2ad844958",
    "node-c9-rep2": "795e8b4b1ca8cbd89c6a1aab54995b832737ac95cc1c0863a1c705d0317f1f71",
    "node-c9-rep3": "b6055b845461ca93218a4a355909113ebe396e5003318c833ba7ec4fb0cebf1c",
    "node-c9-rep4": "2d9da54ae8a1e00dd2d4c6866333304de478925fe7a05e053a80e1543a3c9087",
    "node-c9-rep5": "1aa16362d48161e74c11015fec7a95cffdc778bbe7edfece5585ae8452aa3b1a",
    "node-c9-rep6": "2d9da54ae8a1e00dd2d4c6866333304de478925fe7a05e053a80e1543a3c9087",
    "node-c9-rep7": "f211b01613366c214eb1b10d654012f3a7aebe647d991db2ac287a56dbc276da",
    "node-c9-rep8": "db5f6b431afe35c7557c9ae9553f447b0ed10e273216c89c1abf6d3c7f88eb07",
    "node-c9-rep9": "2d9da54ae8a1e00dd2d4c6866333304de478925fe7a05e053a80e1543a3c9087",
    "node-cycle64x20-k2": "26a5ddce2989e6c25c60630b8e8cd9623301fcc723a2416b1215c67456255c68",
    "node-star8-unequal-k2": "368293de226354b9bd7e98294bb0a33a4945396b46ebc9616b5b90543d836af1",
    "node-cycle8x40-k2": "9a7fb7bc2fe8a11d89e1a52946a75621dcf3afd84a0e32930d4c94bf3bc08a05",
    "node-path-2325-k2": "9000f5c38adc9187a2b024e9652a952bf084bdcf561c1e986e545ddb0b1008e1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trajectory_matches_golden_hash(name):
    digest = trajectory_digest(GOLDEN[name]())
    assert digest == GOLDEN_SHA256[name], (
        f"{name}: trajectory digest {digest} differs from the pinned one; "
        "a change of the random stream must be deliberate and documented"
    )


def _compensated_sum(values):
    # what CPython 3.12's compensated float `sum` approaches: math.fsum rounds the exact sum once
    values = list(values)
    return math.fsum(values) if any(isinstance(v, float) for v in values) else builtins.sum(values)


@pytest.mark.parametrize("name", [name for name in sorted(GOLDEN) if not name.startswith("node-")])
def test_golden_hash_holds_under_compensated_sum(name, monkeypatch):
    # The digests cover sampled counts and event totals, not event times, so they must not
    # depend on how a Python version rounds `simulate`'s float sums (the node-level loop
    # accumulates its total explicitly).
    monkeypatch.setattr(micro, "sum", _compensated_sum, raising=False)
    assert trajectory_digest(GOLDEN[name]()) == GOLDEN_SHA256[name]
