"""Topology generators.

Builds the paper's concrete networks and families of synthetic COW
topologies used by the network-level experiments:

* :func:`fig6_testbed` — the 3-host / 2-switch evaluation testbed of
  the paper's Figure 6 (LAN and SAN NICs, M2FM-SW8 switches with 4 LAN
  + 4 SAN ports, parallel inter-switch links so routes can loop).
* :func:`fig1_topology` — an irregular network realizing the paper's
  Figure 1 situation: the minimal route between two switches is
  forbidden by up*/down* but enabled by one in-transit buffer.
* :func:`random_irregular` — random irregular COW topologies in the
  style used by the authors' simulation studies [2, 3]: ``n`` switches,
  fixed port count, random switch-to-switch cabling, ``h`` hosts per
  switch.
* :func:`mesh_2d`, :func:`linear_switches` — regular fabrics for tests.
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import PortKind, Topology, TopologyError

__all__ = [
    "clos",
    "fat_tree",
    "fig1_topology",
    "fig6_testbed",
    "linear_switches",
    "make_topology",
    "mesh_2d",
    "random_irregular",
    "random_irregular_scaled",
    "star_of_switches",
    "torus_2d",
]


def fig6_testbed() -> tuple[Topology, dict[str, int]]:
    """The paper's Figure 6 evaluation testbed.

    Two M2FM-SW8 switches (8 ports: 0-3 SAN, 4-7 LAN by our
    convention).  Three hosts:

    * ``host1`` — M2L (LAN) NIC on switch 1,
    * ``itb``   — M2L (LAN) NIC on switch 2 (the in-transit host),
    * ``host2`` — M2M (SAN) NIC on switch 2.

    The switches are joined by **three** parallel cables (two SAN, one
    LAN) so that test routes can bounce between the switches without
    ever reusing a directed channel (a wormhole packet re-entering a
    channel it still holds would deadlock against itself — on real
    hardware too), and switch 2 carries a LAN **loopback cable**
    (ports 6<->7).  Together these allow the Figure 8 methodology: an
    up*/down* reference path and an in-transit path that cross the
    *same* number of switches (5) through the *same kinds* of ports —
    the paper's "loop in switch 2".

    Returns ``(topology, roles)`` where ``roles`` maps
    ``{"sw1", "sw2", "host1", "host2", "itb"}`` to node ids.
    """
    topo = Topology(name="fig6-testbed")
    sw1 = topo.add_switch(n_ports=8, name="sw1")
    sw2 = topo.add_switch(n_ports=8, name="sw2")
    # Inter-switch cables: SAN on ports 0<->0 and 2<->2, LAN on 4<->4.
    topo.connect(sw1, 0, sw2, 0, kind=PortKind.SAN)
    topo.connect(sw1, 2, sw2, 2, kind=PortKind.SAN)
    topo.connect(sw1, 4, sw2, 4, kind=PortKind.LAN)
    # Loopback cable on switch 2 (LAN ports 6<->7).
    topo.connect(sw2, 6, sw2, 7, kind=PortKind.LAN)
    host1 = topo.attach_host(sw1, 5, kind=PortKind.LAN, name="host1")
    itb = topo.attach_host(sw2, 5, kind=PortKind.LAN, name="itb")
    host2 = topo.attach_host(sw2, 1, kind=PortKind.SAN, name="host2")
    topo.validate()
    return topo, {
        "sw1": sw1,
        "sw2": sw2,
        "host1": host1,
        "host2": host2,
        "itb": itb,
    }


def fig1_topology() -> tuple[Topology, dict[str, int]]:
    """An irregular fabric realizing the paper's Figure 1.

    Construction (switch ids follow the figure's labels where they
    matter): switch 0 is the spanning-tree root; switches 4 and 6 are
    cabled so that the *minimal* route ``4 -> 6 -> 1`` needs a
    down->up transition at switch 6 and is therefore forbidden by
    up*/down*, while the shortest *valid* route ``4 -> 2 -> 0 -> 1``
    is one hop longer.  A host on switch 6 serves as the in-transit
    host that legalizes the minimal route.

    Every switch carries one host so any pair can communicate.

    Returns ``(topology, roles)`` with ``roles`` mapping ``"sw0"`` ..
    ``"sw7"`` and ``"host_on_sw<i>"`` names to node ids.
    """
    topo = Topology(name="fig1-example")
    sw = [topo.add_switch(n_ports=8, name=f"fig1-sw{i}") for i in range(8)]

    def join(a: int, b: int) -> None:
        topo.connect(sw[a], topo.free_port(sw[a]), sw[b], topo.free_port(sw[b]),
                     kind=PortKind.SAN)

    # Tree-ish core rooted at 0.
    join(0, 1)
    join(0, 2)
    join(1, 3)
    join(2, 4)
    join(2, 5)
    # Switch 6 hangs below both 1 and 4 -> the 4-6-1 shortcut.
    join(1, 6)
    join(4, 6)
    # Extra irregular cabling (keeps the network from being a pure tree).
    join(3, 7)
    join(5, 7)

    roles: dict[str, int] = {f"sw{i}": sw[i] for i in range(8)}
    for i in range(8):
        host = topo.attach_host(
            sw[i], topo.free_port(sw[i]), kind=PortKind.SAN,
            name=f"fig1-host{i}",
        )
        roles[f"host_on_sw{i}"] = host
    topo.validate()
    return topo, roles


def linear_switches(
    n_switches: int, hosts_per_switch: int = 1, kind: PortKind = PortKind.SAN
) -> Topology:
    """A chain of switches, each with ``hosts_per_switch`` hosts."""
    if n_switches < 1:
        raise TopologyError("need at least one switch")
    ports = max(8, hosts_per_switch + 2)
    topo = Topology(name=f"linear-{n_switches}")
    sw = [topo.add_switch(n_ports=ports) for _ in range(n_switches)]
    for a, b in zip(sw, sw[1:]):
        topo.connect(a, topo.free_port(a), b, topo.free_port(b), kind=kind)
    for s in sw:
        for _ in range(hosts_per_switch):
            topo.attach_host(s, topo.free_port(s), kind=kind)
    topo.validate()
    return topo


def mesh_2d(
    rows: int, cols: int, hosts_per_switch: int = 1, kind: PortKind = PortKind.SAN
) -> Topology:
    """A rows x cols switch mesh (4-neighbour), hosts on every switch."""
    if rows < 1 or cols < 1:
        raise TopologyError("mesh dimensions must be >= 1")
    ports = max(8, hosts_per_switch + 4)
    topo = Topology(name=f"mesh-{rows}x{cols}")
    sw = [[topo.add_switch(n_ports=ports) for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                a, b = sw[r][c], sw[r][c + 1]
                topo.connect(a, topo.free_port(a), b, topo.free_port(b), kind=kind)
            if r + 1 < rows:
                a, b = sw[r][c], sw[r + 1][c]
                topo.connect(a, topo.free_port(a), b, topo.free_port(b), kind=kind)
    for r in range(rows):
        for c in range(cols):
            for _ in range(hosts_per_switch):
                topo.attach_host(sw[r][c], topo.free_port(sw[r][c]), kind=kind)
    topo.validate()
    return topo


def torus_2d(
    rows: int, cols: int, hosts_per_switch: int = 1,
    kind: PortKind = PortKind.SAN,
) -> Topology:
    """A rows x cols switch torus (mesh + wraparound links).

    A highly symmetric cyclic fabric.  Interestingly, up*/down* from a
    min-eccentricity root stays *minimal* on small tori (the tests
    pin this down) — the ITB win is specific to the irregular
    topologies COWs actually have, which is exactly the paper's
    setting.  Needs rows, cols >= 3 for distinct wraparound cables.
    """
    if rows < 3 or cols < 3:
        raise TopologyError("torus needs rows, cols >= 3")
    ports = max(8, hosts_per_switch + 4)
    topo = Topology(name=f"torus-{rows}x{cols}")
    sw = [[topo.add_switch(n_ports=ports) for _ in range(cols)]
          for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            a = sw[r][c]
            right = sw[r][(c + 1) % cols]
            down = sw[(r + 1) % rows][c]
            topo.connect(a, topo.free_port(a), right,
                         topo.free_port(right), kind=kind)
            topo.connect(a, topo.free_port(a), down,
                         topo.free_port(down), kind=kind)
    for r in range(rows):
        for c in range(cols):
            for _ in range(hosts_per_switch):
                topo.attach_host(sw[r][c], topo.free_port(sw[r][c]),
                                 kind=kind)
    topo.validate()
    return topo


def star_of_switches(
    n_leaves: int, hosts_per_leaf: int = 1, kind: PortKind = PortKind.SAN
) -> Topology:
    """A hub switch with ``n_leaves`` leaf switches.

    The degenerate best case for up*/down* (the tree IS the topology)
    — ITB routing must find zero ITBs here, which tests assert.
    """
    if n_leaves < 1:
        raise TopologyError("need at least one leaf")
    hub_ports = max(8, n_leaves)
    topo = Topology(name=f"star-{n_leaves}")
    hub = topo.add_switch(n_ports=hub_ports, name="hub")
    for _ in range(n_leaves):
        leaf = topo.add_switch(n_ports=max(8, hosts_per_leaf + 1))
        topo.connect(hub, topo.free_port(hub), leaf, topo.free_port(leaf),
                     kind=kind)
        for _ in range(hosts_per_leaf):
            topo.attach_host(leaf, topo.free_port(leaf), kind=kind)
    topo.validate()
    return topo


def random_irregular(
    n_switches: int,
    seed: int,
    ports_per_switch: int = 8,
    switch_links: int = 4,
    hosts_per_switch: int = 1,
    kind: PortKind = PortKind.SAN,
) -> Topology:
    """Random irregular COW topology, as in the authors' studies [2,3].

    Each switch dedicates up to ``switch_links`` ports to the switch
    fabric and the rest to hosts.  Cabling follows the usual
    irregular-network methodology: build a random spanning structure
    first (guaranteeing connectivity), then add random extra cables
    until port budgets are exhausted or no legal pair remains.  Fully
    deterministic for a given ``seed``.
    """
    if n_switches < 2:
        raise TopologyError("need at least two switches")
    if switch_links < 1 or switch_links >= ports_per_switch:
        raise TopologyError("switch_links must be in [1, ports_per_switch)")
    if hosts_per_switch > ports_per_switch - switch_links:
        raise TopologyError("not enough ports for requested hosts")

    rng = np.random.default_rng(seed)
    topo = Topology(name=f"irregular-{n_switches}-s{seed}")
    sw = [topo.add_switch(n_ports=ports_per_switch) for _ in range(n_switches)]
    budget = {s: switch_links for s in sw}
    # Cabled switch pairs, kept here: asking the topology would rebuild
    # its link index after every connect.
    cabled: set[tuple[int, int]] = set()

    def connect(a: int, b: int) -> None:
        topo.connect(a, topo.free_port(a), b, topo.free_port(b), kind=kind)
        budget[a] -= 1
        budget[b] -= 1
        cabled.add((a, b) if a < b else (b, a))

    # Random connected skeleton: attach each switch (in random order) to a
    # random already-attached switch.
    order = list(rng.permutation(n_switches))
    attached = [sw[order[0]]]
    for idx in order[1:]:
        s = sw[idx]
        candidates = [t for t in attached if budget[t] > 0]
        if not candidates:
            raise TopologyError(
                "port budget too tight to build a connected skeleton; "
                "increase switch_links"
            )
        t = candidates[int(rng.integers(len(candidates)))]
        connect(s, t)
        attached.append(s)

    # Extra random cables between distinct switches with spare budget,
    # avoiding parallel duplicates.
    for _ in range(4 * n_switches):
        avail = [s for s in sw if budget[s] > 0]
        pairs = [
            (a, b)
            for i, a in enumerate(avail)
            for b in avail[i + 1:]
            if (a, b) not in cabled
        ]
        if not pairs:
            break
        a, b = pairs[int(rng.integers(len(pairs)))]
        connect(a, b)

    for s in sw:
        for _ in range(hosts_per_switch):
            topo.attach_host(s, topo.free_port(s), kind=kind)
    topo.validate()
    return topo


def random_irregular_scaled(
    n_switches: int,
    seed: int,
    ports_per_switch: int = 8,
    switch_links: int = 4,
    hosts_per_switch: int = 1,
    kind: PortKind = PortKind.SAN,
) -> Topology:
    """Scaled variant of :func:`random_irregular` for large fabrics.

    Same methodology (random connected skeleton, then random extra
    cables up to the per-switch budget, fully seed-deterministic) but
    with the extra-cable phase rewritten from re-enumerating every
    candidate pair per cable — O(n³) overall, minutes at 512 switches —
    to rejection sampling over the switches with spare budget, with an
    exact-enumeration fallback for the tail.  Output differs from
    :func:`random_irregular` for the same seed (different draw
    sequence), which is why this is a new generator: the legacy one
    stays byte-stable for goldens and cache signatures.
    """
    if n_switches < 2:
        raise TopologyError("need at least two switches")
    if switch_links < 1 or switch_links >= ports_per_switch:
        raise TopologyError("switch_links must be in [1, ports_per_switch)")
    if hosts_per_switch > ports_per_switch - switch_links:
        raise TopologyError("not enough ports for requested hosts")

    rng = np.random.default_rng(seed)
    topo = Topology(name=f"irregular-scaled-{n_switches}-s{seed}")
    sw = [topo.add_switch(n_ports=ports_per_switch) for _ in range(n_switches)]
    budget = {s: switch_links for s in sw}
    cabled: set[tuple[int, int]] = set()

    def connect(a: int, b: int) -> None:
        topo.connect(a, topo.free_port(a), b, topo.free_port(b), kind=kind)
        budget[a] -= 1
        budget[b] -= 1
        cabled.add((a, b) if a < b else (b, a))

    # Random connected skeleton, exactly as in random_irregular.
    order = list(rng.permutation(n_switches))
    attached = [sw[order[0]]]
    for idx in order[1:]:
        s = sw[idx]
        candidates = [t for t in attached if budget[t] > 0]
        if not candidates:
            raise TopologyError(
                "port budget too tight to build a connected skeleton; "
                "increase switch_links"
            )
        connect(s, candidates[int(rng.integers(len(candidates)))])
        attached.append(s)

    # Extra random cables: sample endpoint pairs directly instead of
    # materializing the full O(n²) candidate list per cable.
    for _ in range(4 * n_switches):
        avail = [s for s in sw if budget[s] > 0]
        if len(avail) < 2:
            break
        placed = False
        for _attempt in range(16):
            i = int(rng.integers(len(avail)))
            j = int(rng.integers(len(avail)))
            if i == j:
                continue
            a, b = avail[i], avail[j]
            if ((a, b) if a < b else (b, a)) in cabled:
                continue
            connect(a, b)
            placed = True
            break
        if not placed:
            # Dense tail: fall back to exact enumeration once so the
            # port budget is exhausted as thoroughly as the legacy
            # generator would.
            pairs = [
                (a, b)
                for i, a in enumerate(avail)
                for b in avail[i + 1:]
                if (a, b) not in cabled
            ]
            if not pairs:
                break
            connect(*pairs[int(rng.integers(len(pairs)))])

    for s in sw:
        for _ in range(hosts_per_switch):
            topo.attach_host(s, topo.free_port(s), kind=kind)
    topo.validate()
    return topo


def clos(
    m: int,
    n: int,
    r: int,
    kind: PortKind = PortKind.SAN,
) -> Topology:
    """A folded Clos (leaf-spine) fabric: ``r`` leaves x ``m`` spines.

    Every leaf cables one uplink to every spine and carries ``n``
    hosts; spines carry no hosts.  Fully deterministic: switch ids are
    spines ``0..m-1`` then leaves, cables in (leaf, spine) order, hosts
    attached leaf by leaf after all cabling.  Port counts are sized
    exactly (spine: ``r``, leaf: ``m + n``) so the generator scales to
    hundreds of switches without the 8-port M2FM-SW8 constraint — the
    paper's switches are small, but the scale study needs the family.
    """
    if m < 1 or r < 2 or n < 1:
        raise TopologyError("clos needs m >= 1 spines, r >= 2 leaves, n >= 1")
    topo = Topology(name=f"clos-m{m}-n{n}-r{r}")
    spines = [topo.add_switch(n_ports=r, name=f"spine{i}") for i in range(m)]
    leaves = [topo.add_switch(n_ports=m + n, name=f"leaf{i}")
              for i in range(r)]
    for leaf in leaves:
        for spine in spines:
            topo.connect(leaf, topo.free_port(leaf),
                         spine, topo.free_port(spine), kind=kind)
    for leaf in leaves:
        for _ in range(n):
            topo.attach_host(leaf, topo.free_port(leaf), kind=kind)
    topo.validate()
    return topo


def fat_tree(
    k: int,
    hosts_per_edge: int = 0,
    kind: PortKind = PortKind.SAN,
) -> Topology:
    """A three-level k-ary fat tree (k pods, 5k²/4 switches).

    Standard construction: ``(k/2)²`` core switches; each of ``k`` pods
    has ``k/2`` aggregation and ``k/2`` edge switches; every edge
    switch cables to all aggregation switches of its pod; aggregation
    switch at position ``j`` cables to core switches ``j·k/2 ..
    (j+1)·k/2 - 1``.  ``hosts_per_edge`` hosts attach to every edge
    switch (default ``k/2``, the full bisection population — pass a
    smaller count to keep host-pair counts tractable in sweeps).
    Fully deterministic; switch ids are cores, then per-pod aggs and
    edges; hosts attach after all cabling.
    """
    if k < 2 or k % 2:
        raise TopologyError("fat_tree needs an even k >= 2")
    half = k // 2
    if hosts_per_edge == 0:
        hosts_per_edge = half
    if hosts_per_edge < 1 or hosts_per_edge > half:
        raise TopologyError(f"hosts_per_edge must be in [1, {half}]")
    topo = Topology(name=f"fattree-k{k}-h{hosts_per_edge}")
    cores = [topo.add_switch(n_ports=k, name=f"core{i}")
             for i in range(half * half)]
    pods: list[tuple[list[int], list[int]]] = []
    for p in range(k):
        aggs = [topo.add_switch(n_ports=k, name=f"agg{p}.{j}")
                for j in range(half)]
        edges = [topo.add_switch(n_ports=k, name=f"edge{p}.{j}")
                 for j in range(half)]
        pods.append((aggs, edges))
    for aggs, edges in pods:
        for edge in edges:
            for agg in aggs:
                topo.connect(edge, topo.free_port(edge),
                             agg, topo.free_port(agg), kind=kind)
        for j, agg in enumerate(aggs):
            for core in cores[j * half:(j + 1) * half]:
                topo.connect(agg, topo.free_port(agg),
                             core, topo.free_port(core), kind=kind)
    for _aggs, edges in pods:
        for edge in edges:
            for _ in range(hosts_per_edge):
                topo.attach_host(edge, topo.free_port(edge), kind=kind)
    topo.validate()
    return topo


#: Generator spec grammar for :func:`make_topology` (CLI + scale study):
#: ``name`` or ``name:key=value,key=value``.
_SPEC_GENERATORS = {
    "clos": (clos, {"m": "m", "n": "n", "r": "r"}),
    "fattree": (fat_tree, {"k": "k", "hosts": "hosts_per_edge"}),
    "random": (random_irregular,
               {"n": "n_switches", "seed": "seed", "ports": "ports_per_switch",
                "links": "switch_links", "hosts": "hosts_per_switch"}),
    "random-scaled": (random_irregular_scaled,
                      {"n": "n_switches", "seed": "seed",
                       "ports": "ports_per_switch", "links": "switch_links",
                       "hosts": "hosts_per_switch"}),
    "linear": (linear_switches,
               {"n": "n_switches", "hosts": "hosts_per_switch"}),
    "mesh": (mesh_2d, {"rows": "rows", "cols": "cols",
                       "hosts": "hosts_per_switch"}),
    "torus": (torus_2d, {"rows": "rows", "cols": "cols",
                         "hosts": "hosts_per_switch"}),
    "star": (star_of_switches, {"leaves": "n_leaves",
                                "hosts": "hosts_per_leaf"}),
}


def make_topology(spec: str) -> Topology:
    """Build a topology from a compact generator spec string.

    Examples: ``fig6``, ``fig1``, ``clos:m=4,n=1,r=12``, ``fattree:k=4``,
    ``random:n=16,seed=7``, ``random-scaled:n=256,seed=3``,
    ``mesh:rows=4,cols=4``.  Integer values only; unknown generators or
    keys raise :class:`TopologyError` listing the valid choices.
    """
    name, _, argstr = spec.partition(":")
    name = name.strip().lower().replace("_", "-").replace("fat-tree", "fattree")
    if name == "fig6":
        return fig6_testbed()[0]
    if name == "fig1":
        return fig1_topology()[0]
    entry = _SPEC_GENERATORS.get(name)
    if entry is None:
        choices = ", ".join(["fig6", "fig1", *sorted(_SPEC_GENERATORS)])
        raise TopologyError(f"unknown generator {name!r}; choose from {choices}")
    fn, keymap = entry
    kwargs = {}
    for part in filter(None, (p.strip() for p in argstr.split(","))):
        key, eq, value = part.partition("=")
        key = key.strip().lower()
        if not eq or keymap.get(key) is None:
            valid = ", ".join(sorted(keymap))
            raise TopologyError(
                f"bad {name} argument {part!r}; expected key=int with "
                f"keys from: {valid}"
            )
        try:
            kwargs[keymap[key]] = int(value)
        except ValueError:
            raise TopologyError(
                f"bad {name} argument {part!r}; value must be an integer"
            ) from None
    try:
        return fn(**kwargs)
    except TypeError as exc:  # missing required generator arguments
        raise TopologyError(f"{name}: {exc}") from None
