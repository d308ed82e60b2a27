"""Genome compilation and evaluation against a definitional oracle, and
stacked plans against each member's own per-edge evaluation."""

import json
import math

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
    empty_genome,
    evaluate,
    genome_from_json,
    genome_to_json,
    io_sizes,
    stack,
    validate_genome,
)
from eincasm.harness import chemotaxis_baseline
from eincasm.neat import EvolutionConfig, init_population


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
        if node_id < genome.n_inputs:
            memo[node_id] = float(inputs[node_id])
            return memo[node_id]
        node = genome.nodes[node_id]
        acc = node.bias
        for conn in sorted(incoming.get(node_id, ()), key=lambda c: c.innovation):
            acc += conn.weight * value(conn.src)
        memo[node_id] = float(ACTIVATIONS[node.activation](np.float64(acc)))
        return memo[node_id]

    return np.array([value(i) for i in genome.output_ids()])


def reference_evaluate(phenotype, inputs):
    """One member's plan run node by node, edge by edge, in innovation
    order: the evaluation a stacked plan must reproduce bit for bit."""
    (steps,) = phenotype.plans
    inputs = np.asarray(inputs, dtype=np.float64)
    values = np.empty((phenotype.n_slots, inputs.shape[0]))
    values[: phenotype.n_inputs] = inputs.T
    for step in steps:
        acc = np.full(inputs.shape[0], step.bias)
        for src_slot, weight in zip(step.src_slots, step.weights):
            acc += weight * values[src_slot]
        values[step.slot] = ACTIVATIONS[step.activation](acc)
    return values[phenotype.output_slots[0]].T


def random_genome(rng, k_hidden=1, max_hidden=6, n_conns=12, p_enabled=0.9):
    g = empty_genome(k_hidden)
    n_hidden = int(rng.integers(0, max_hidden + 1))
    hidden_ids = []
    next_id = g.n_inputs + g.n_outputs
    for _ in range(n_hidden):
        g.nodes[next_id] = NodeGene(next_id, "hidden", str(rng.choice(ACTIVATION_NAMES)), float(rng.normal()))
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
        g.nodes[next_id] = NodeGene(next_id, "hidden", str(rng.choice(ACTIVATION_NAMES)), float(rng.normal()))
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
        assert evaluate(phen, x)[0] == 0.7

    def test_disabled_edge_contributes_nothing(self):
        g = tiny_genome()
        g.nodes[g.n_inputs].bias = 0.25
        g.connections[0] = ConnectionGene(0, 0, g.n_inputs, 1.0, False)
        phen = compile_genome(g)
        x = np.full(g.n_inputs, 0.9)
        assert evaluate(phen, x)[0] == 0.25  # identity(bias)

    def test_cycle_detected(self):
        g = tiny_genome()
        a, b = 900, 901
        g.nodes[a] = NodeGene(a, "hidden", "identity", 0.0)
        g.nodes[b] = NodeGene(b, "hidden", "identity", 0.0)
        g.connections[0] = ConnectionGene(0, a, b, 1.0, True)
        g.connections[1] = ConnectionGene(1, b, a, 1.0, True)
        with pytest.raises(GenomeError):
            compile_genome(g)

    def test_cycle_of_disabled_edges_is_fine(self):
        g = tiny_genome()
        a, b = 900, 901
        g.nodes[a] = NodeGene(a, "hidden", "identity", 0.0)
        g.nodes[b] = NodeGene(b, "hidden", "identity", 0.0)
        g.connections[0] = ConnectionGene(0, a, b, 1.0, True)
        g.connections[1] = ConnectionGene(1, b, a, 1.0, False)
        compile_genome(g)


class TestEvaluate:
    def test_hand_computed_tanh_edge(self):
        g = tiny_genome()
        out = g.n_inputs
        g.nodes[out].activation = "tanh"
        g.connections[0] = ConnectionGene(0, 3, out, 2.0, True)
        phen = compile_genome(g)
        x = np.zeros(g.n_inputs)
        x[3] = 0.5
        assert evaluate(phen, x)[0] == pytest.approx(math.tanh(1.0), abs=1e-15)

    def test_wrong_input_length(self):
        g = tiny_genome()
        phen = compile_genome(g)
        with pytest.raises(GenomeError):
            evaluate(phen, np.zeros(phen.n_inputs - 1))

    def test_oracle_equivalence_100_random_genomes(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            g = random_genome(rng)
            phen = compile_genome(g)
            for _ in range(3):
                x = rng.normal(size=g.n_inputs)
                np.testing.assert_allclose(
                    evaluate(phen, x), recursive_oracle(g, x), rtol=0, atol=1e-12
                )

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        g = random_genome(rng)
        phen = compile_genome(g)
        batch = rng.normal(size=(17, g.n_inputs))
        out = phen.evaluate_batch(batch)
        for i in range(17):
            np.testing.assert_array_equal(out[i], evaluate(phen, batch[i]))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(9)
        g = random_genome(rng)
        phen = compile_genome(g)
        x = rng.normal(size=g.n_inputs)
        a, b = evaluate(phen, x), evaluate(phen, x)
        assert (a == b).all()


@st.composite
def stacked_population(draw):
    """Random or mostly bias-fed genomes (0-6 hidden nodes, disabled edges,
    every activation, signed-zero biases and weights), rows of inputs whose
    bias input is 1.0 in about half the draws, and a random member per row:
    some members get no rows, and there may be no rows at all."""
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
        for node in g.nodes.values():
            if node.kind != "input" and rng.random() < 0.1:
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
    if draw(st.booleans()):
        inputs[:, -1] = 1.0  # the bias input as a simulation sets it: constant positions fold
    return genomes, inputs, members


class TestStackedPlan:
    @settings(max_examples=150, deadline=None)
    @given(stacked_population())
    def test_each_row_gets_its_members_bits(self, population):
        genomes, inputs, members = population
        phenotypes = [compile_genome(g) for g in genomes]
        out = stack(phenotypes).evaluate_batch(inputs, members)
        assert out.shape == (len(inputs), genomes[0].n_outputs)
        for m, phenotype in enumerate(phenotypes):
            mine = members == m
            expected = reference_evaluate(phenotype, inputs[mine])
            np.testing.assert_array_equal(out[mine].view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(stacked_population())
    def test_only_the_input_slots_are_read(self, population):
        genomes, inputs, members = population
        plan = stack([compile_genome(g) for g in genomes])
        sources = {c.src for g in genomes for c in g.connections.values() if c.enabled and c.src < g.n_inputs}
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
        plan = stack([compile_genome(g) for g in genomes])
        assert plan.tables.positions[0].activations == tuple(enumerate(ACTIVATION_NAMES))
        x = np.random.default_rng(1).normal(size=(30, plan.n_inputs))
        members = np.arange(30) % 7
        out = plan.evaluate_batch(x, members)
        for m, g in enumerate(genomes):
            expected = reference_evaluate(compile_genome(g), x[members == m])
            np.testing.assert_array_equal(out[members == m].view(np.uint64), expected.view(np.uint64))

    def test_baseline_folds_its_input_free_positions(self):
        plan = compile_genome(chemotaxis_baseline())
        # H0 and dM read perception; H1-H3 have no edges and dR reads the bias
        assert (plan.folded.slots - plan.n_inputs).tolist() == [1, 2, 3, 4]
        assert [p.slot - plan.n_inputs for p in plan.folded.varying.positions] == [0, 5]

    def test_founders_fold_every_position(self):
        founders = init_population(EvolutionConfig(population_size=5, seed=11), 4).members
        plan = stack([compile_genome(g) for g in founders])
        assert (plan.folded.slots - plan.n_inputs).tolist() == list(range(6))
        assert plan.folded.varying.positions == ()
        x = np.random.default_rng(12).normal(size=(20, plan.n_inputs))
        x[:, -1] = 1.0
        members = np.arange(20) % 5
        out = plan.evaluate_batch(x, members)
        for m, g in enumerate(founders):
            expected = reference_evaluate(compile_genome(g), x[members == m])
            np.testing.assert_array_equal(out[members == m].view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("bias", [0.5, -1.0, 0.0, -0.0, np.nan])
    def test_rows_with_another_bias_match_the_reference(self, bias):
        rng = np.random.default_rng(13)
        founders = init_population(EvolutionConfig(population_size=3, seed=14), 4).members
        phenotypes = [compile_genome(g) for g in [chemotaxis_baseline(), *founders]]
        plan = stack(phenotypes)
        x = rng.normal(size=(24, plan.n_inputs))
        x[:, -1] = 1.0
        x[::3, -1] = bias  # one row in three: any value but 1.0 leaves the folded path
        members = np.arange(24) % len(phenotypes)
        out = plan.evaluate_batch(x, members)
        for m, phenotype in enumerate(phenotypes):
            expected = reference_evaluate(phenotype, x[members == m])
            np.testing.assert_array_equal(out[members == m].view(np.uint64), expected.view(np.uint64))

    def test_stack_of_one_is_that_plan(self):
        phenotype = compile_genome(random_genome(np.random.default_rng(2)))
        assert stack([phenotype]) is phenotype
        assert phenotype.n_members == 1

    def test_several_members_need_member_ids(self):
        rng = np.random.default_rng(3)
        plan = stack([compile_genome(random_genome(rng)) for _ in range(2)])
        x = np.zeros((4, plan.n_inputs))
        with pytest.raises(GenomeError):
            plan.evaluate_batch(x)
        with pytest.raises(GenomeError):
            plan.evaluate_batch(x, [0, 1])

    def test_stacked_sizes_must_agree(self):
        with pytest.raises(GenomeError):
            stack([compile_genome(tiny_genome(1)), compile_genome(tiny_genome(2))])


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
        text = genome_to_json(g)
        g2 = genome_from_json(text)
        assert genome_to_json(g2) == text
        for innov, conn in g.connections.items():
            assert g2.connections[innov].weight == conn.weight  # bit-exact
        for node_id, node in g.nodes.items():
            assert g2.nodes[node_id].bias == node.bias

    def test_json_schema_keys(self):
        g = tiny_genome()
        g.connections[0] = ConnectionGene(0, 0, g.n_inputs, 0.5, True)
        data = json.loads(genome_to_json(g))
        assert set(data) == {"n_inputs", "n_outputs", "k_hidden", "nodes", "connections"}
        assert set(data["connections"][0]) == {"innovation", "from", "to", "weight", "enabled"}
        assert set(data["nodes"][0]) == {"id", "kind", "activation", "bias"}

    def test_malformed_json_rejected(self):
        with pytest.raises(GenomeError):
            genome_from_json("{nope")
        with pytest.raises(GenomeError):
            genome_from_json(json.dumps({"n_inputs": 3}))


class TestInvariantValidation:
    def test_connection_into_input_rejected(self):
        g = tiny_genome()
        g.connections[0] = ConnectionGene(0, 0, 1, 1.0, True)
        with pytest.raises(GenomeError):
            validate_genome(g)

    def test_connection_out_of_output_rejected(self):
        g = tiny_genome()
        out = g.n_inputs
        g.nodes[990] = NodeGene(990, "hidden", "tanh", 0.0)
        g.connections[0] = ConnectionGene(0, out, 990, 1.0, True)
        with pytest.raises(GenomeError):
            validate_genome(g)

    def test_self_loop_rejected(self):
        g = tiny_genome()
        g.nodes[990] = NodeGene(990, "hidden", "tanh", 0.0)
        g.connections[0] = ConnectionGene(0, 990, 990, 1.0, True)
        with pytest.raises(GenomeError):
            validate_genome(g)
