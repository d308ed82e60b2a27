"""Genome compilation and evaluation against a definitional oracle, and
population plans against each member's own per-edge evaluation."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eincasm.cppn import (
    ACTIVATIONS,
    ACTIVATION_NAMES,
    ConnectionGene,
    GenomeError,
    NodeGene,
    compile_genome,
    creates_cycle,
    empty_genome,
    genome_from_dict,
    genome_to_dict,
    io_sizes,
    topological_order,
    validate_genome,
)
from eincasm.harness import chemotaxis_baseline
from eincasm.neat import EvolutionConfig, init_population, next_generation


def tiny_genome(k_hidden=1):
    """Minimal valid genome shell to wire by hand."""
    return empty_genome(k_hidden)


def recursive_oracle(genome, inputs):
    """Definition-level evaluator: value(n) = act(bias + sum w * value(src))."""
    incoming = {}
    for conn in genome.connections.values():
        if conn.enabled:
            incoming.setdefault(conn.dst, []).append(conn)
    memo = {}

    def value(node_id):
        if node_id in memo:
            return memo[node_id]
        if node_id < genome.n_inputs:  # the bias input is 1.0 by definition
            memo[node_id] = 1.0 if node_id == genome.bias_input_id else float(inputs[node_id])
            return memo[node_id]
        node = genome.nodes[node_id]
        acc = node.bias
        for conn in sorted(incoming.get(node_id, ()), key=lambda c: c.innovation):
            acc += conn.weight * value(conn.src)
        memo[node_id] = float(ACTIVATIONS[node.activation](np.float64(acc)))
        return memo[node_id]

    return np.array([value(i) for i in genome.output_ids()])


def reference_evaluate(genome, inputs):
    """A genome run array-valued over the rows, node by node in topological
    order and edge by edge in innovation order, with the bias input at
    1.0: the evaluation a compiled plan must reproduce bit for bit."""
    inputs = np.asarray(inputs, dtype=np.float64)
    values = {i: inputs[:, i] for i in range(genome.n_inputs)}
    values[genome.bias_input_id] = np.ones(inputs.shape[0])
    enabled = [conn for conn in genome.sorted_connections() if conn.enabled]
    for node_id in topological_order(genome):
        if node_id < genome.n_inputs:
            continue
        node = genome.nodes[node_id]
        acc = np.full(inputs.shape[0], node.bias)
        for conn in enabled:
            if conn.dst == node_id:
                acc += conn.weight * values[conn.src]
        values[node_id] = ACTIVATIONS[node.activation](acc)
    return np.stack([values[i] for i in genome.output_ids()], axis=1)


def reference_topological_order(genome):
    """Kahn's pass over the enabled connections in innovation order, the
    smallest ready id first: the order ``topological_order`` must give."""
    successors = {i: [] for i in genome.nodes}
    indegree = {i: 0 for i in genome.nodes}
    for conn in genome.sorted_connections():
        if conn.enabled and conn.src >= genome.n_inputs:
            successors[conn.src].append(conn.dst)
            indegree[conn.dst] += 1
    ready = sorted(i for i, d in indegree.items() if d == 0)
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        fresh = []
        for nxt in successors[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                fresh.append(nxt)
        if fresh:
            ready.extend(fresh)
            ready.sort()
    if len(order) != len(genome.nodes):
        raise GenomeError("enabled connections form a cycle")
    return order


def reference_creates_cycle(genome, src, dst):
    """Depth-first search: an enabled src->dst edge closes a cycle iff it is
    a self-loop or dst already reaches src through enabled edges."""
    if src == dst:
        return True
    successors = {}
    for conn in genome.connections.values():
        if conn.enabled:
            successors.setdefault(conn.src, []).append(conn.dst)
    stack, seen = [dst], set()
    while stack:
        node = stack.pop()
        if node == src:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(successors.get(node, ()))
    return False


def random_genome(rng, k_hidden=1, max_hidden=6, n_conns=12, p_enabled=0.9):
    g = empty_genome(k_hidden)
    n_hidden = int(rng.integers(0, max_hidden + 1))
    hidden_ids = []
    next_id = g.n_inputs + g.n_outputs
    for _ in range(n_hidden):
        g.nodes[next_id] = NodeGene(next_id, str(rng.choice(ACTIVATION_NAMES)), float(rng.normal()))
        hidden_ids.append(next_id)
        next_id += 1
    for out_id in g.output_ids():
        g.nodes[out_id].activation = str(rng.choice(ACTIVATION_NAMES))
        g.nodes[out_id].bias = float(rng.normal())
    # layered wiring keeps the graph acyclic: inputs -> hidden(asc) -> outputs
    order = list(range(g.n_inputs)) + hidden_ids + list(g.output_ids())
    rank = {node: i for i, node in enumerate(order)}
    innov = 0
    attempts = 0
    while innov < n_conns and attempts < 200:
        attempts += 1
        src = order[int(rng.integers(0, g.n_inputs + len(hidden_ids)))]
        dst = order[int(rng.integers(g.n_inputs, len(order)))]
        if rank[src] >= rank[dst]:
            continue
        if any(c.src == src and c.dst == dst for c in g.connections.values()):
            continue
        g.connections[innov] = ConnectionGene(innov, src, dst, float(rng.normal()), bool(rng.random() < p_enabled))
        innov += 1
    validate_genome(g)
    return g


def bias_fed_genome(rng, k_hidden=1, max_hidden=4):
    """A genome whose nodes mostly read the bias input alone: founder-style
    bias->output edges, edgeless outputs, and chains of hidden nodes fed
    only by the bias, plus now and then an edge from a perception input."""
    g = empty_genome(k_hidden)
    bias = g.bias_input_id
    sources = [bias]
    next_id = g.n_inputs + g.n_outputs
    for _ in range(int(rng.integers(0, max_hidden + 1))):
        g.nodes[next_id] = NodeGene(next_id, str(rng.choice(ACTIVATION_NAMES)), float(rng.normal()))
        sources.append(next_id)
        next_id += 1
    # hidden node i reads earlier sources only, so the wiring stays acyclic
    wiring = [(int(rng.choice(sources[:i])), node) for i, node in enumerate(sources) if i > 0]
    for out_id in g.output_ids():
        g.nodes[out_id].activation = str(rng.choice(ACTIVATION_NAMES))
        g.nodes[out_id].bias = float(rng.normal())
        choice = rng.random()
        if choice < 0.6:
            wiring.append((int(rng.choice(sources)), out_id))
        elif choice < 0.8:
            wiring.append((int(rng.integers(0, bias)), out_id))
    for innov, (src, dst) in enumerate(wiring):
        g.connections[innov] = ConnectionGene(innov, src, dst, float(rng.normal()), bool(rng.random() < 0.9))
    validate_genome(g)
    return g


class TestCompile:
    def test_single_passthrough_edge(self):
        g = tiny_genome()
        g.connections[0] = ConnectionGene(0, 0, g.n_inputs, 1.0, True)
        phen = compile_genome(g)
        x = np.zeros(g.n_inputs)
        x[0] = 0.7
        assert phen.evaluate_batch(x[None])[0, 0] == 0.7

    def test_disabled_edge_contributes_nothing(self):
        g = tiny_genome()
        g.nodes[g.n_inputs].bias = 0.25
        g.connections[0] = ConnectionGene(0, 0, g.n_inputs, 1.0, False)
        phen = compile_genome(g)
        x = np.full(g.n_inputs, 0.9)
        assert phen.evaluate_batch(x[None])[0, 0] == 0.25  # identity(bias)

    def test_cycle_detected(self):
        g = tiny_genome()
        a, b = 900, 901
        g.nodes[a] = NodeGene(a, "identity", 0.0)
        g.nodes[b] = NodeGene(b, "identity", 0.0)
        g.connections[0] = ConnectionGene(0, a, b, 1.0, True)
        g.connections[1] = ConnectionGene(1, b, a, 1.0, True)
        with pytest.raises(GenomeError):
            compile_genome(g)

    def test_cycle_of_disabled_edges_is_fine(self):
        g = tiny_genome()
        a, b = 900, 901
        g.nodes[a] = NodeGene(a, "identity", 0.0)
        g.nodes[b] = NodeGene(b, "identity", 0.0)
        g.connections[0] = ConnectionGene(0, a, b, 1.0, True)
        g.connections[1] = ConnectionGene(1, b, a, 1.0, False)
        compile_genome(g)


def hidden_chain(*enabled):
    """A one-hidden-channel genome with hidden nodes 900 -> 901 -> 902, the
    two edges enabled as given."""
    g = tiny_genome()
    for node_id in (900, 901, 902):
        g.nodes[node_id] = NodeGene(node_id, "identity", 0.0)
    for innov, (src, dst) in enumerate([(900, 901), (901, 902)]):
        g.connections[innov] = ConnectionGene(innov, src, dst, 1.0, enabled[innov])
    return g


class TestAcyclicity:
    def test_an_edge_closing_a_three_cycle_is_refused(self):
        g = hidden_chain(True, True)
        assert creates_cycle(g, 902, 900) and reference_creates_cycle(g, 902, 900)
        assert not creates_cycle(hidden_chain(True, False), 902, 900)  # a disabled edge closes nothing

    def test_the_reverse_edge_is_allowed(self):
        g = hidden_chain(True, True)
        assert not creates_cycle(g, 900, 902) and not reference_creates_cycle(g, 900, 902)

    def test_grown_genomes_match_the_references(self):
        """Every member of a population grown at high structural rates: its
        order, also with its connections stored shuffled, and every cycle
        answer for a sample of the inputs and every stored node as source."""
        c = EvolutionConfig(population_size=16, add_node_rate=0.6, add_connection_rate=0.9, disable_rate=0.3, seed=7)
        pop = init_population(c, 2)
        rng = np.random.default_rng(7)
        closing = 0
        for _ in range(12):
            pop = next_generation(pop, rng.random(c.population_size), c)
            for g in pop.members:
                shuffled = g.copy()
                keys = list(shuffled.connections)
                rng.shuffle(keys)
                shuffled.connections = {key: shuffled.connections[key] for key in keys}
                assert topological_order(g) == topological_order(shuffled) == reference_topological_order(g)
                sample = rng.choice(g.n_inputs - 1, 4, replace=False).tolist()
                for src in [*sample, g.bias_input_id, *g.nodes]:
                    for dst in g.nodes:
                        answer = creates_cycle(g, src, dst)
                        assert answer == reference_creates_cycle(g, src, dst), (src, dst)
                        closing += answer and src != dst
        assert closing > 0  # the grown genomes have paths the check must see


class TestEvaluate:
    def test_hand_computed_tanh_edge(self):
        g = tiny_genome()
        out = g.n_inputs
        g.nodes[out].activation = "tanh"
        g.connections[0] = ConnectionGene(0, 3, out, 2.0, True)
        phen = compile_genome(g)
        x = np.zeros(g.n_inputs)
        x[3] = 0.5
        assert phen.evaluate_batch(x[None])[0, 0] == pytest.approx(math.tanh(1.0), abs=1e-15)

    def test_wrong_input_length(self):
        g = tiny_genome()
        phen = compile_genome(g)
        with pytest.raises(GenomeError):
            phen.evaluate_batch(np.zeros((1, phen.n_inputs - 1)))

    def test_oracle_equivalence_100_random_genomes(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            g = random_genome(rng)
            phen = compile_genome(g)
            for _ in range(3):
                x = rng.normal(size=g.n_inputs)
                np.testing.assert_allclose(
                    phen.evaluate_batch(x[None])[0], recursive_oracle(g, x), rtol=0, atol=1e-12
                )

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        g = random_genome(rng)
        phen = compile_genome(g)
        batch = rng.normal(size=(17, g.n_inputs))
        out = phen.evaluate_batch(batch)
        for i in range(17):
            np.testing.assert_array_equal(out[i], phen.evaluate_batch(batch[i][None])[0])

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(9)
        g = random_genome(rng)
        phen = compile_genome(g)
        x = rng.normal(size=g.n_inputs)
        a, b = phen.evaluate_batch(x[None])[0], phen.evaluate_batch(x[None])[0]
        assert (a == b).all()


@st.composite
def stacked_population(draw):
    """Random or mostly bias-fed genomes (0-6 hidden nodes, disabled edges,
    every activation, signed-zero biases and weights), rows of random
    inputs, the bias column included, and a random member per row: some
    members get no rows, and there may be no rows at all."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    genomes = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            g = bias_fed_genome(rng, max_hidden=draw(st.integers(0, 4)))
        else:
            g = random_genome(
                rng,
                max_hidden=draw(st.integers(0, 6)),
                n_conns=draw(st.integers(0, 24)),
                p_enabled=draw(st.sampled_from([0.5, 0.9, 1.0])),
            )
        for node in g.nodes.values():  # the output and hidden nodes
            if rng.random() < 0.1:
                node.bias = float(rng.choice([0.0, -0.0]))
        for conn in g.connections.values():
            if rng.random() < 0.1:
                conn.weight = float(rng.choice([0.0, -0.0]))
        genomes.append(g)
    n_rows = draw(st.integers(0, 40))
    members = np.array(draw(st.lists(st.integers(0, len(genomes) - 1), min_size=n_rows, max_size=n_rows)), dtype=int)
    inputs = rng.normal(scale=3.0, size=(n_rows, genomes[0].n_inputs))
    inputs[rng.random(inputs.shape) < 0.1] = -0.0
    inputs[rng.random(inputs.shape) < 0.1] = 0.0
    return genomes, inputs, members


class TestStackedPlan:
    @settings(max_examples=150, deadline=None)
    @given(stacked_population())
    def test_each_row_gets_its_members_bits(self, population):
        genomes, inputs, members = population
        out = compile_genome(genomes).evaluate_batch(inputs, members)
        assert out.shape == (len(inputs), genomes[0].n_outputs)
        for m, genome in enumerate(genomes):
            mine = members == m
            expected = reference_evaluate(genome, inputs[mine])
            np.testing.assert_array_equal(out[mine].view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(stacked_population())
    def test_only_the_input_slots_are_read(self, population):
        genomes, inputs, members = population
        plan = compile_genome(genomes)
        # the bias input is not perception: the plan writes it itself
        sources = {c.src for g in genomes for c in g.connections.values() if c.enabled and c.src < g.n_inputs - 1}
        assert plan.input_slots.tolist() == sorted(sources)
        poisoned = inputs.copy()
        poisoned[:, np.setdiff1d(np.arange(plan.n_inputs), plan.input_slots)] = np.nan
        np.testing.assert_array_equal(
            plan.evaluate_batch(poisoned, members).view(np.uint64), plan.evaluate_batch(inputs, members).view(np.uint64)
        )

    def test_every_activation_on_one_position(self):
        # seven members that differ only in output 0's activation
        genomes = []
        for name in ACTIVATION_NAMES:
            g = tiny_genome()
            g.nodes[g.n_inputs].activation = name
            g.connections[0] = ConnectionGene(0, 3, g.n_inputs, -1.5, True)
            genomes.append(g)
        plan = compile_genome(genomes)
        assert plan.varying.positions[0].activations == tuple(enumerate(ACTIVATION_NAMES))
        x = np.random.default_rng(1).normal(size=(30, plan.n_inputs))
        members = np.arange(30) % 7
        out = plan.evaluate_batch(x, members)
        for m, g in enumerate(genomes):
            expected = reference_evaluate(g, x[members == m])
            np.testing.assert_array_equal(out[members == m].view(np.uint64), expected.view(np.uint64))

    def test_baseline_folds_its_input_free_positions(self):
        plan = compile_genome(chemotaxis_baseline())
        # H0 and dM read perception; H1-H3 have no edges and dR reads the bias
        assert (plan.constant_slots - plan.n_inputs).tolist() == [1, 2, 3, 4]
        assert [p.slot - plan.n_inputs for p in plan.varying.positions] == [0, 5]

    def test_a_compiled_plan_is_complete(self):
        """Evaluation derives nothing: a plan keeps the fields compile_genome gave it."""
        founders = init_population(EvolutionConfig(population_size=3, seed=15), 4).members
        for plan in (compile_genome(chemotaxis_baseline()), compile_genome(founders)):
            compiled = dict(vars(plan))
            x = np.random.default_rng(16).normal(size=(6, plan.n_inputs))
            plan.evaluate_batch(x, np.arange(6) % plan.n_members)
            assert vars(plan).keys() == compiled.keys()
            assert all(vars(plan)[key] is value for key, value in compiled.items())

    def test_founders_fold_every_position(self):
        founders = init_population(EvolutionConfig(population_size=5, seed=11), 4).members
        plan = compile_genome(founders)
        assert (plan.constant_slots - plan.n_inputs).tolist() == list(range(6))
        assert plan.varying.positions == ()
        x = np.random.default_rng(12).normal(size=(20, plan.n_inputs))
        members = np.arange(20) % 5
        out = plan.evaluate_batch(x, members)
        for m, g in enumerate(founders):
            expected = reference_evaluate(g, x[members == m])
            np.testing.assert_array_equal(out[members == m].view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("bias", [0.5, -1.0, 0.0, -0.0, np.nan])
    def test_rows_with_another_bias_match_the_reference(self, bias):
        """The bias column is ignored: any value there gives the bits of 1.0."""
        rng = np.random.default_rng(13)
        founders = init_population(EvolutionConfig(population_size=3, seed=14), 4).members
        genomes = [chemotaxis_baseline(), *founders]
        plan = compile_genome(genomes)
        x = rng.normal(size=(24, plan.n_inputs))
        x[:, -1] = 1.0
        other = x.copy()
        other[::3, -1] = bias  # one row in three
        members = np.arange(24) % len(genomes)
        out = plan.evaluate_batch(other, members)
        np.testing.assert_array_equal(out.view(np.uint64), plan.evaluate_batch(x, members).view(np.uint64))
        for m, genome in enumerate(genomes):
            expected = reference_evaluate(genome, x[members == m])
            np.testing.assert_array_equal(out[members == m].view(np.uint64), expected.view(np.uint64))

    def test_a_genome_and_a_list_of_it_compile_alike(self):
        genome = random_genome(np.random.default_rng(2))
        alone, listed = compile_genome(genome), compile_genome([genome])
        assert alone.n_members == listed.n_members == 1
        x = np.random.default_rng(4).normal(size=(10, alone.n_inputs))
        np.testing.assert_array_equal(alone.evaluate_batch(x).view(np.uint64), listed.evaluate_batch(x).view(np.uint64))

    def test_several_members_need_member_ids(self):
        rng = np.random.default_rng(3)
        plan = compile_genome([random_genome(rng) for _ in range(2)])
        x = np.zeros((4, plan.n_inputs))
        with pytest.raises(GenomeError):
            plan.evaluate_batch(x)
        with pytest.raises(GenomeError):
            plan.evaluate_batch(x, [0, 1])

    @pytest.mark.parametrize("member", [-1, 3])
    def test_member_ids_outside_the_plan_are_refused(self, member):
        """-1 would wrap to the last member and 3 would index past it."""
        rng = np.random.default_rng(3)
        plan = compile_genome([random_genome(rng) for _ in range(3)])
        with pytest.raises(GenomeError, match=r"member ids must lie in \[0, 3\), got"):
            plan.evaluate_batch(np.zeros((2, plan.n_inputs)), [0, member])

    def test_compiled_sizes_must_agree(self):
        with pytest.raises(GenomeError):
            compile_genome([tiny_genome(1), tiny_genome(2)])


class TestActivations:
    @pytest.mark.parametrize("name", ACTIVATION_NAMES)
    def test_finite_on_extreme_inputs(self, name):
        xs = np.array([-1e6, -700.0, -1.0, 0.0, 1.0, 700.0, 1e6])
        out = ACTIVATIONS[name](xs)
        assert np.isfinite(out).all()

    def test_definitions(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(ACTIVATIONS["sigmoid"](x), 1 / (1 + np.exp(-x)), atol=1e-15)
        np.testing.assert_allclose(ACTIVATIONS["gaussian"](x), np.exp(-(x**2)), atol=1e-15)
        np.testing.assert_allclose(ACTIVATIONS["sine"](x), np.sin(x), atol=1e-15)
        np.testing.assert_allclose(ACTIVATIONS["relu"](x), np.maximum(x, 0), atol=0)
        np.testing.assert_allclose(ACTIVATIONS["absolute"](x), np.abs(x), atol=0)

    def test_sigmoid_keeps_the_split_form_bits_on_edge_values(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000ABCDEF, 0xFFFC0000DEADBEEF],
                        dtype=np.uint64).view(np.float64)
        x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 745.2, -745.2], nans])
        assert_sigmoid_bits(x)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
    def test_sigmoid_keeps_the_split_form_bits(self, xs):
        assert_sigmoid_bits(np.array(xs, dtype=np.float64))


def split_sigmoid(x):
    """The sigmoid as two masked halves, each in its stable form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assert_sigmoid_bits(x):
    got, want = ACTIVATIONS["sigmoid"](x), split_sigmoid(x)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestSerialization:
    def test_io_sizes(self):
        assert io_sizes(4) == (9 * 11 + 1, 6)
        assert io_sizes(1) == (73, 3)

    def test_round_trip_preserves_exact_doubles(self):
        rng = np.random.default_rng(13)
        g = random_genome(rng, k_hidden=2)
        # adversarial weights: tiny, huge, and full-precision doubles
        for i, conn in enumerate(g.connections.values()):
            conn.weight = float(rng.normal() * 10.0 ** int(rng.integers(-12, 12)))
        text = json.dumps(genome_to_dict(g), indent=2)
        g2 = genome_from_dict(json.loads(text))
        assert json.dumps(genome_to_dict(g2), indent=2) == text
        for innov, conn in g.connections.items():
            assert g2.connections[innov].weight == conn.weight  # bit-exact
        for node_id, node in g.nodes.items():
            assert g2.nodes[node_id].bias == node.bias

    def test_json_schema_keys(self):
        g = tiny_genome()
        g.connections[0] = ConnectionGene(0, 0, g.n_inputs, 0.5, True)
        data = json.loads(json.dumps(genome_to_dict(g), indent=2))
        assert set(data) == {"n_inputs", "n_outputs", "k_hidden", "nodes", "connections"}
        assert set(data["connections"][0]) == {"innovation", "from", "to", "weight", "enabled"}
        assert set(data["nodes"][0]) == {"id", "kind", "activation", "bias"}

    def test_malformed_json_rejected(self):
        with pytest.raises(GenomeError):
            genome_from_dict({"n_inputs": 3})
        # a value of the wrong JSON type is rejected, never coerced
        for section, key, value in [("connections", "enabled", "false"), ("connections", "enabled", 0),
                                    ("connections", "from", 47.9), ("connections", "weight", "0.06"),
                                    ("nodes", "id", True), ("nodes", "bias", None),
                                    ("connections", "weight", float("inf"))]:
            data = genome_to_dict(chemotaxis_baseline())
            data[section][0][key] = value
            with pytest.raises(GenomeError, match=key):
                genome_from_dict(data)
        data = genome_to_dict(chemotaxis_baseline())
        data["k_hidden"] = 4.0
        with pytest.raises(GenomeError, match="k_hidden"):
            genome_from_dict(data)
        data = genome_to_dict(chemotaxis_baseline())
        data["nodes"][0] = 5  # a node entry that is no object
        with pytest.raises(GenomeError, match="node must be an object, got 5"):
            genome_from_dict(data)

    def test_repeated_gene_rejected(self):
        """A repeated innovation number or node id is named; the last copy
        never silently replaces the first."""
        data = genome_to_dict(chemotaxis_baseline())
        first = next(c for c in data["connections"] if c["innovation"] == 1)
        data["connections"].append({**first, "weight": 99.0})
        with pytest.raises(GenomeError, match="innovation number 1 appears twice"):
            genome_from_dict(data)
        data = genome_to_dict(chemotaxis_baseline())
        output = next(n for n in data["nodes"] if n["kind"] == "output")
        data["nodes"].append({**output, "activation": "sine"})
        with pytest.raises(GenomeError, match=f"node id {output['id']} appears twice"):
            genome_from_dict(data)

    def test_pickle_keeps_every_gene_and_its_order(self):
        """A genome crosses to a pool worker by pickle: hidden nodes added out
        of id order, a disabled connection and a nonzero bias all come back,
        and both gene dicts keep their insertion order. No fixed input
        crosses, yet the file form is the same."""
        g = tiny_genome(k_hidden=2)
        out = g.n_inputs
        g.nodes[out].bias = -0.3125
        for node_id in (out + 9, out + 5):
            g.nodes[node_id] = NodeGene(node_id, "sine", 0.1 * node_id)
        g.connections[7] = ConnectionGene(7, 0, out + 9, 0.75, True)
        g.connections[2] = ConnectionGene(2, out + 9, out, -1.5, False)
        g.connections[4] = ConnectionGene(4, out + 5, out + 1, 1e-300, True)
        validate_genome(g)
        back = pickle.loads(pickle.dumps(g))
        assert back == g
        assert list(back.nodes) == list(g.nodes)
        assert list(back.connections) == list(g.connections) == [7, 2, 4]
        assert back.nodes[out].bias == -0.3125 and not back.connections[2].enabled
        assert not {i for i in back.nodes if i < g.n_inputs}
        assert genome_to_dict(back) == genome_to_dict(g)
        founder = init_population(EvolutionConfig(population_size=2, seed=3), 4).members[0]
        _, (_, _, _, nodes, _) = founder.__reduce__()
        assert len(nodes) == founder.n_outputs


class TestInvariantValidation:
    def test_connection_into_input_rejected(self):
        g = tiny_genome()
        g.connections[0] = ConnectionGene(0, 0, 1, 1.0, True)
        with pytest.raises(GenomeError):
            validate_genome(g)

    @pytest.mark.parametrize("fault, message", [
        pytest.param(lambda g: g.nodes.update({0: NodeGene(0, "identity", 0.0)}),
                     "node 0 is not an output or hidden id", id="stored-input-0"),
        pytest.param(lambda g: g.nodes.update({3: NodeGene(3, "identity", 0.0)}),
                     "node 3 is not an output or hidden id", id="stored-input-3"),
        pytest.param(lambda g: g.nodes.update({-1: NodeGene(-1, "identity", 0.0)}),
                     "node -1 is not an output or hidden id", id="negative-id"),
        pytest.param(lambda g: g.nodes.pop(g.n_inputs + 1), "node 74 must be an output node", id="missing-output"),
        pytest.param(lambda g: setattr(g.nodes[g.n_inputs], "activation", "swish"),
                     "unknown activation 'swish'", id="unknown-activation"),
        pytest.param(lambda g: g.connections.update({1: ConnectionGene(2, 0, g.n_inputs, 1.0, True)}),
                     "connection key does not match its innovation number", id="key-not-innovation"),
        pytest.param(lambda g: g.connections.update({0: ConnectionGene(0, 0, 990, 1.0, True)}),
                     "connection 0 references a missing node", id="edge-to-missing-node"),
    ])
    def test_a_faulty_gene_is_named(self, fault, message):
        """A genome stores no input node, a negative id is no node, and every
        output node, activation, innovation key and edge end must exist:
        each single fault is refused with its own message."""
        g = tiny_genome()
        validate_genome(g)
        fault(g)
        with pytest.raises(GenomeError) as raised:
            validate_genome(g)
        assert str(raised.value) == message

    def test_connection_out_of_output_rejected(self):
        g = tiny_genome()
        out = g.n_inputs
        g.nodes[990] = NodeGene(990, "tanh", 0.0)
        g.connections[0] = ConnectionGene(0, out, 990, 1.0, True)
        with pytest.raises(GenomeError):
            validate_genome(g)

    def test_self_loop_rejected(self):
        g = tiny_genome()
        g.nodes[990] = NodeGene(990, "tanh", 0.0)
        g.connections[0] = ConnectionGene(0, 990, 990, 1.0, True)
        with pytest.raises(GenomeError):
            validate_genome(g)
