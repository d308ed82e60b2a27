"""CPPN genomes and their compiled feed-forward evaluators.

A genome encodes the organism's physiology: a small directed acyclic
network with heterogeneous activations that maps the 3x3 perception
vector (plus a trailing constant-1 bias input) to ``K`` hidden-channel
writes followed by the desired reservoir and mass changes.

A node's id fixes its kind: ids ``0 .. n_inputs-1`` are the inputs (the
last one is the bias input), the next ``n_outputs`` ids are the outputs,
and higher ids are hidden nodes, numbered by the innovation registry; a
negative id is none of these. Inputs are fixed (identity, bias 0), so a
genome stores node genes for its output and hidden nodes only, and no
node stores its kind. Its enabled connections form a DAG, and
``topological_order`` alone decides whether they do, with or without
one candidate edge: validation, compilation and ``creates_cycle`` ask it,
except for a candidate leaving an input, which no edge enters.

``compile_genome`` compiles a population's genomes, or one genome, into
one ``Phenotype``: padded tables with one column per member, so the
population's rule runs as one pass over all its cells, where
``members[r]`` names the member whose network evaluates input row r.
Evaluation is pure and deterministic; identical inputs give bit-identical
outputs, whatever the batch and whichever other members share the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .fileio import json_scalar
from .substrate import N_BASE_CHANNELS


class GenomeError(ValueError):
    """Structurally invalid genome (cycles, bad or repeated node ids,
    repeated innovation numbers, sizes that fit no world)."""


def _sigmoid(x):
    e = np.exp(np.minimum(x, -x))  # exp(-|x|), never overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


#: The activation palette. Every function is total over finite reals and
#: returns finite outputs for finite inputs (sigmoid is computed in the
#: numerically stable split form).
ACTIVATIONS = {
    "identity": lambda x: x,
    "sigmoid": _sigmoid,
    "tanh": np.tanh,
    "sine": np.sin,
    "gaussian": lambda x: np.exp(-(x * x)),
    "absolute": np.abs,
    "relu": lambda x: np.maximum(x, 0.0),
}
ACTIVATION_NAMES = tuple(ACTIVATIONS)

INPUT, HIDDEN, OUTPUT = "input", "hidden", "output"


def io_sizes(k_hidden: int) -> tuple[int, int]:
    """(n_inputs, n_outputs) for a given hidden-channel count.

    Inputs: 9 neighborhood cells x (7 + K) channels, plus one constant-1
    bias input. Outputs: K hidden writes, desired dR, desired dM.
    """
    return 9 * (N_BASE_CHANNELS + k_hidden) + 1, k_hidden + 2


@dataclass
class NodeGene:
    id: int
    activation: str
    bias: float = 0.0


@dataclass
class ConnectionGene:
    innovation: int
    src: int
    dst: int
    weight: float
    enabled: bool = True


@dataclass
class Genome:
    """NEAT-encoded CPPN: node genes plus innovation-tagged connections.

    ``nodes`` holds the output and hidden nodes, keyed by node id, and
    ``connections`` is keyed by innovation number; both preserve insertion
    order, which ``neat.mutate`` reads. The fixed inputs are not stored:
    an id in ``range(n_inputs)`` names one.

    A genome pickles, and copies, as its three sizes and one plain tuple
    per stored gene, in dict order, rebuilt as equal genes in that order.
    This is how a process pool ships genomes to its workers.
    """

    n_inputs: int
    n_outputs: int
    k_hidden: int
    nodes: dict[int, NodeGene] = field(default_factory=dict)
    connections: dict[int, ConnectionGene] = field(default_factory=dict)

    @property
    def bias_input_id(self) -> int:
        return self.n_inputs - 1

    def output_ids(self) -> range:
        return range(self.n_inputs, self.n_inputs + self.n_outputs)

    def copy(self) -> "Genome":
        rebuild, genes = self.__reduce__()
        return rebuild(*genes)

    def sorted_connections(self) -> list[ConnectionGene]:
        return [self.connections[i] for i in sorted(self.connections)]

    def __reduce__(self):
        nodes = tuple((n.id, n.activation, n.bias) for n in self.nodes.values())
        connections = tuple((c.innovation, c.src, c.dst, c.weight, c.enabled) for c in self.connections.values())
        return _genome_from_genes, (self.n_inputs, self.n_outputs, self.k_hidden, nodes, connections)


def _genome_from_genes(n_inputs: int, n_outputs: int, k_hidden: int, nodes: tuple, connections: tuple) -> Genome:
    """The genome ``Genome.__reduce__`` pickled, its genes in the same order."""
    return Genome(
        n_inputs, n_outputs, k_hidden,
        {gene[0]: NodeGene(*gene) for gene in nodes},
        {gene[0]: ConnectionGene(*gene) for gene in connections},
    )


def empty_genome(k_hidden: int) -> Genome:
    """The output nodes, no connections. Outputs use identity."""
    n_in, n_out = io_sizes(k_hidden)
    g = Genome(n_inputs=n_in, n_outputs=n_out, k_hidden=k_hidden)
    for j in g.output_ids():
        g.nodes[j] = NodeGene(j, "identity", 0.0)
    return g


def validate_genome(genome: Genome):
    """Raise GenomeError unless every structural invariant holds."""
    n_in = genome.n_inputs
    if genome.k_hidden < 1:
        raise GenomeError("k_hidden must be >= 1")
    if (n_in, genome.n_outputs) != io_sizes(genome.k_hidden):
        raise GenomeError("n_inputs/n_outputs inconsistent with k_hidden")
    for j in genome.output_ids():
        if j not in genome.nodes:
            raise GenomeError(f"node {j} must be an output node")
    for node in genome.nodes.values():
        if node.id < n_in:  # an input id, or a negative one
            raise GenomeError(f"node {node.id} is not an output or hidden id")
        if node.activation not in ACTIVATIONS:
            raise GenomeError(f"unknown activation {node.activation!r}")
    for innov, conn in genome.connections.items():
        if innov != conn.innovation:
            raise GenomeError("connection key does not match its innovation number")
        if conn.src == conn.dst:
            raise GenomeError(f"self-connection at innovation {innov}")
        if 0 <= conn.dst < n_in:
            raise GenomeError(f"connection {innov} targets an input node")
        if conn.dst not in genome.nodes or not (0 <= conn.src < n_in or conn.src in genome.nodes):
            raise GenomeError(f"connection {innov} references a missing node")
        if conn.src in genome.output_ids():
            raise GenomeError(f"connection {innov} leaves an output node")
    topological_order(genome)  # raises on enabled cycles


def topological_order(genome: Genome, extra: tuple[int, int] | None = None) -> list[int]:
    """Kahn's algorithm over the stored nodes, the candidate edge ``extra``
    (src, dst) counted as one more enabled connection; inputs come first,
    so their edges order nothing.

    The smallest ready id goes next, so the order (and therefore float
    accumulation) is reproducible and does not depend on how the
    connections are stored. Raises GenomeError on an enabled cycle.
    """
    n_inputs = genome.n_inputs
    edges = [(c.src, c.dst) for c in genome.connections.values() if c.enabled and c.src >= n_inputs]
    if extra is not None and extra[0] >= n_inputs:
        edges.append(extra)
    successors: dict[int, list[int]] = {}
    indegree = dict.fromkeys(genome.nodes, 0)
    for src, dst in edges:
        successors.setdefault(src, []).append(dst)
        indegree[dst] += 1
    ready = sorted([i for i, d in indegree.items() if d == 0], reverse=True)  # the smallest id last
    order: list[int] = []
    while ready:
        node = ready.pop()
        order.append(node)
        if node in successors:
            for nxt in successors[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
            ready.sort(reverse=True)
    if len(order) != len(genome.nodes):
        raise GenomeError("enabled connections form a cycle")
    return order


def creates_cycle(genome: Genome, src: int, dst: int) -> bool:
    """Would an enabled src->dst edge close a cycle in the enabled subgraph
    of an acyclic genome? No edge enters an input, so an edge leaving one
    closes a cycle only as a self-loop."""
    if src < genome.n_inputs:
        return src == dst
    try:
        topological_order(genome, (src, dst))
    except GenomeError:
        return True
    return src == dst


@dataclass(frozen=True)
class _Position:
    """Node position j of a plan: each member's j-th non-input node, which
    writes slot n_inputs + j. ``edges`` are its rows in the edge tables and
    ``activations`` the (code, name) pairs its members use."""

    slot: int
    edges: slice
    activations: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class _Tables:
    """A plan's members padded to one position list, one column per member.

    An edge a member lacks reads the pad slot, which holds -0.0, with weight
    1.0: its term is -0.0, and x + -0.0 is x bit for bit for every float x,
    signed zeros included (a padded 0 * x is not: -0.0 + 0.0 is +0.0)."""

    positions: tuple[_Position, ...]
    bias: np.ndarray  # (positions, P); 0 where a member has no node
    codes: np.ndarray  # (positions, P) activation codes; -1 where a member has no node
    src: np.ndarray  # (edges, P) source slots; the pad slot where a member has no edge
    weight: np.ndarray  # (edges, P); 1.0 where a member has no edge


def _activate(pre: np.ndarray, codes: np.ndarray, activations) -> np.ndarray:
    """Each entry of ``pre`` through the activation its code names (-1: left
    as it is, or, when the position has one activation, through that one).
    Entries are sorted by code, so each activation runs once, on one
    contiguous run holding only its own entries."""
    if len(activations) == 1:
        # a member without this node gets activation(0) here, which nothing
        # reads; a one-member plan always takes this branch
        return ACTIVATIONS[activations[0][1]](pre)
    keys = codes + 1
    order = np.argsort(keys, kind="stable")
    grouped = pre[order]
    ends = np.cumsum(np.bincount(keys, minlength=len(ACTIVATION_NAMES) + 1)).tolist()
    for code, name in activations:
        start, end = ends[code], ends[code + 1]
        grouped[start:end] = ACTIVATIONS[name](grouped[start:end])
    out = np.empty_like(pre)
    out[order] = grouped
    return out


def _run(values: np.ndarray, t: _Tables, cols) -> None:
    """Evaluate the positions of ``t`` in order, in place: ``values`` holds
    one column per row, (slots + 1, n), with the slots those positions read
    already filled, and ``cols`` picks each row's member column of the
    tables (a one-member plan's single column broadcasts over the rows)."""
    n = values.shape[1]
    flat = values.reshape(-1)
    src = t.src[:, cols] * n + np.arange(n)  # flat index of each edge's source value, per row
    weight = t.weight[:, cols]
    bias = t.bias[:, cols]
    codes = t.codes[:, cols]
    for j, position in enumerate(t.positions):
        terms = flat.take(src[position.edges])
        terms *= weight[position.edges]
        # explicit per-edge accumulation in innovation order: summation
        # order (and therefore rounding) is identical for any batch size
        acc = values[position.slot]
        acc[...] = bias[j]
        for term in terms:
            acc += term
        acc[...] = _activate(acc, codes[j], position.activations)


def _tables(plans: list, keep: list[int], n_inputs: int, pad: int) -> _Tables:
    """Positions ``keep`` of the members' plans, in order, as one table:
    position j writes slot n_inputs + j and gets as many edge rows as its
    largest fan-in; the rows and positions a member lacks keep the pad
    entries, reading slot ``pad``."""
    fan_in = [max(len(plan[j][1]) for plan in plans if j < len(plan)) for j in keep]
    starts = [0, *accumulate(fan_in)]
    bias = np.zeros((len(keep), len(plans)))
    codes = np.full((len(keep), len(plans)), -1, dtype=np.int8)
    src = np.full((starts[-1], len(plans)), pad, dtype=np.intp)
    weight = np.ones((starts[-1], len(plans)))
    for m, plan in enumerate(plans):
        for i, j in enumerate(keep):
            if j < len(plan):
                node, edges = plan[j]
                bias[i, m] = node.bias
                codes[i, m] = ACTIVATION_NAMES.index(node.activation)
                for row, (slot, w) in enumerate(edges, starts[i]):
                    src[row, m], weight[row, m] = slot, w
    positions = tuple(
        _Position(
            slot=n_inputs + j,
            edges=slice(starts[i], starts[i + 1]),
            activations=tuple((c, ACTIVATION_NAMES[c]) for c in sorted(set(codes[i].tolist()) - {-1})),
        )
        for i, j in enumerate(keep)
    )
    return _Tables(positions=positions, bias=bias, codes=codes, src=src, weight=weight)


@dataclass(frozen=True, eq=False)
class Phenotype:
    """The compiled rule of one or more members: one padded evaluation plan.

    Its tables hold one column per member. ``compile_genome`` puts
    non-input node j of every genome in slot n_inputs + j, so the members
    line up position by position, and pads a member's missing node or edge
    so that it changes no bit (see ``_Tables``). ``evaluate_batch``
    evaluates row r with the network of member ``members[r]``: each
    position runs once over all rows, and each activation only on the rows
    of the members that use it there. Only the ``input_slots`` are copied
    in; a caller may leave the other input columns unfilled.

    The bias input is 1.0 by definition: ``evaluate_batch`` writes it
    itself and never reads the caller's bias column. A position is
    constant when every member's edges into it read only the bias input,
    the pad slot or earlier constant positions; an edgeless node is one,
    and so is each output of a bias-only NEAT founder. A constant
    position's value depends on the member alone: ``compile_genome``
    evaluates those once, through the same loop, into
    ``constant_values``, and a batch only copies each row's member value
    into ``constant_slots``. ``varying`` holds the other positions.

    Immutable and sharable across threads; evaluation allocates its own
    scratch buffer per call.
    """

    n_inputs: int
    input_slots: np.ndarray  # sorted perception slots some member's enabled edges read; the bias is not one
    constant_slots: np.ndarray  # (constant positions,)
    constant_values: np.ndarray  # (constant positions, P)
    varying: _Tables
    n_slots: int  # inputs plus positions; the pad slot follows them
    output_slots: np.ndarray  # (P, n_outputs)

    @property
    def n_members(self) -> int:
        return len(self.output_slots)

    def evaluate_batch(self, inputs: np.ndarray, members=None) -> np.ndarray:
        """Evaluate many input rows at once: (n, n_inputs) -> (n, n_outputs).

        ``members[r]`` is the member whose plan evaluates row r; it may be
        omitted for a one-member plan. Every row gets the bits its member's
        plan gives it alone. The last column, the bias input, is ignored:
        every row evaluates with the bias at 1.0.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise GenomeError(f"expected inputs of shape (n, {self.n_inputs}), got {inputs.shape}")
        n = inputs.shape[0]
        if members is None:
            if self.n_members != 1:
                raise GenomeError(f"a plan of {self.n_members} members needs the member of each row")
        else:
            members = np.asarray(members, dtype=np.intp)
            if members.shape != (n,):
                raise GenomeError(f"expected {n} member ids, got shape {members.shape}")
            if ((members < 0) | (members >= self.n_members)).any():
                raise GenomeError(f"member ids must lie in [0, {self.n_members}), got {members.min()} to {members.max()}")
        cols = slice(None) if self.n_members == 1 else members
        values = np.empty((self.n_slots + 1, n))
        read = self.input_slots
        values[read] = inputs.T[read]  # no edge reads the other inputs' slots
        values[self.n_inputs - 1] = 1.0  # the bias input
        values[-1] = -0.0  # the pad slot
        values[self.constant_slots] = self.constant_values[:, cols]
        _run(values, self.varying, cols)
        return values.reshape(-1).take(self.output_slots.T[:, cols] * n + np.arange(n)).T


def compile_genome(genomes) -> Phenotype:
    """Compile a genome, or a list of genomes of one size, into one plan
    whose member m is genome m (a lone genome is member 0).

    Node value = activation(bias + sum of weight * upstream value over
    enabled incoming edges, in innovation order); input nodes pass their
    input through, and a node with no enabled incoming edge evaluates to
    activation(bias). Non-input node j of each genome in topological order
    writes slot n_inputs + j (see ``_tables``). The constant positions (see
    ``Phenotype``) are found on the plans, then evaluated once by ``_run``,
    the loop that evaluates the other positions, one row per member, so a
    row of member m gets the bits one full loop would give it.
    """
    genomes = [genomes] if isinstance(genomes, Genome) else list(genomes)
    n_inputs, n_outputs = genomes[0].n_inputs, genomes[0].n_outputs
    if any((g.n_inputs, g.n_outputs) != (n_inputs, n_outputs) for g in genomes):
        raise GenomeError("compiled genomes must share their input and output sizes")
    plans, output_slots = [], []
    for genome in genomes:
        order = topological_order(genome)
        slot_of = {i: i for i in range(n_inputs)} | {node_id: n_inputs + j for j, node_id in enumerate(order)}
        incoming: dict[int, list[tuple[int, float]]] = {}
        for conn in genome.sorted_connections():
            if conn.enabled:
                incoming.setdefault(conn.dst, []).append((slot_of[conn.src], conn.weight))
        plans.append([(genome.nodes[i], incoming.get(i, [])) for i in order])
        output_slots.append([slot_of[i] for i in genome.output_ids()])
    n_members, n_positions = len(plans), max(len(plan) for plan in plans)
    known = {n_inputs - 1}  # the bias input, then each constant position's slot
    for j in range(n_positions):
        if all(slot in known for plan in plans if j < len(plan) for slot, _ in plan[j][1]):
            known.add(n_inputs + j)
    constant = [j for j in range(n_positions) if n_inputs + j in known]
    pad = n_inputs + n_positions
    fixed = _tables(plans, constant, n_inputs, pad)
    varying = _tables(plans, [j for j in range(n_positions) if n_inputs + j not in known], n_inputs, pad)
    values = np.empty((pad + 1, n_members))
    values[n_inputs - 1] = 1.0
    values[-1] = -0.0
    _run(values, fixed, np.arange(n_members))
    constant_slots = np.array([n_inputs + j for j in constant], dtype=np.intp)
    # the inputs before the bias are perception, read by varying positions only;
    # a mask, as np.unique's first call imports more of numpy
    perceived = np.zeros(n_inputs - 1, dtype=bool)
    perceived[varying.src[varying.src < n_inputs - 1]] = True
    return Phenotype(
        n_inputs=n_inputs,
        input_slots=np.flatnonzero(perceived),
        constant_slots=constant_slots,
        constant_values=values[constant_slots],
        varying=varying,
        n_slots=pad,
        output_slots=np.array(output_slots, dtype=np.intp),
    )


# -- serialization ----------------------------------------------------------
#
# A genome file is an object of these keys, each of its nodes and connections
# an object of theirs, in the order the genes take them. It round-trips
# exactly: floats use repr, the shortest round-trip decimal form.

_GENOME_KEYS = {"n_inputs": int, "n_outputs": int, "k_hidden": int, "nodes": list, "connections": list}
_NODE_KEYS = {"id": int, "kind": str, "activation": str, "bias": float}
_WRONG_KIND = {
    INPUT: "node {} must be an input node",
    OUTPUT: "node {} must be an output node",
    HIDDEN: "node {} outside io range must be hidden",
}
_CONNECTION_KEYS = {"innovation": int, "from": int, "to": int, "weight": float, "enabled": bool}


def genome_to_dict(genome: Genome) -> dict:
    outputs = genome.output_ids()
    return {
        "n_inputs": genome.n_inputs,
        "n_outputs": genome.n_outputs,
        "k_hidden": genome.k_hidden,
        "nodes": [
            *({"id": i, "kind": INPUT, "activation": "identity", "bias": 0.0} for i in range(genome.n_inputs)),
            *(
                {"id": i, "kind": OUTPUT if i in outputs else HIDDEN, "activation": n.activation, "bias": n.bias}
                for i, n in sorted(genome.nodes.items())
            ),
        ],
        "connections": [
            {
                "innovation": c.innovation,
                "from": c.src,
                "to": c.dst,
                "weight": c.weight,
                "enabled": c.enabled,
            }
            for c in genome.sorted_connections()
        ],
    }


def genome_from_dict(data: dict) -> Genome:
    """Read a genome by the ``json_scalar`` rule and validate it, then check
    that the file lists the nodes ``genome_to_dict`` writes for it: every
    fixed input, and each node's kind. An unknown key, a node id or
    innovation number given twice, or a failed check is a GenomeError
    naming it."""

    def read(entry: dict, what: str, kinds: dict) -> list:
        if not isinstance(entry, dict):
            raise GenomeError(f"{what} must be an object, got {entry!r}")
        unknown = sorted(set(entry) - set(kinds))
        if unknown:
            raise GenomeError(f"{what} has unknown keys {unknown}")
        return [entry[key] if kind is list else json_scalar(key, entry[key], kind) for key, kind in kinds.items()]

    try:
        *sizes, nodes, connections = read(data, "genome", _GENOME_KEYS)
        g = Genome(*sizes)
        listed = {}
        for n in nodes:
            node_id, kind, activation, bias = read(n, "node", _NODE_KEYS)
            if node_id in listed:
                raise GenomeError(f"node id {node_id} appears twice")
            listed[node_id] = (kind, activation, bias)
            if not 0 <= node_id < g.n_inputs:  # a negative id too, which validate_genome rejects
                g.nodes[node_id] = NodeGene(node_id, activation, bias)
        for c in connections:
            conn = ConnectionGene(*read(c, "connection", _CONNECTION_KEYS))
            if conn.innovation in g.connections:
                raise GenomeError(f"innovation number {conn.innovation} appears twice")
            g.connections[conn.innovation] = conn
    except (KeyError, TypeError) as exc:
        raise GenomeError(f"malformed genome data: {exc}") from exc
    validate_genome(g)
    for node in genome_to_dict(g)["nodes"]:  # every id listed is here: an input or a stored node
        kind, activation, bias = listed.get(node["id"], (None, None, None))
        if kind != node["kind"]:
            raise GenomeError(_WRONG_KIND[node["kind"]].format(node["id"]))
        if (activation, bias) != (node["activation"], node["bias"]):  # only an input's can differ
            raise GenomeError(f"input node {node['id']} must be identity with zero bias")
    return g
