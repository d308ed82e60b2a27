"""Evolution machinery: innovation tracking, speciation, reproduction."""

import json

import numpy as np
import pytest

from eincasm.cppn import (
    ACTIVATION_NAMES,
    ConnectionGene,
    NodeGene,
    compile_genome,
    empty_genome,
    genome_to_dict,
    validate_genome,
)
from eincasm.neat import (
    EvolutionConfig,
    InnovationRegistry,
    SpeciesState,
    compatibility_distance,
    crossover,
    evaluation_seed,
    init_population,
    member_rng,
    mutate,
    next_generation,
    speciate,
)

K = 1  # small io keeps these tests quick


def cfg(**kw):
    base = dict(population_size=10, seed=1)
    base.update(kw)
    return EvolutionConfig(**base)


class TestInitPopulation:
    def test_minimal_topology(self):
        pop = init_population(cfg(population_size=10), K)
        assert len(pop.members) == 10
        for g in pop.members:
            assert len(g.connections) == g.n_outputs
            assert all(c.enabled and c.src == g.bias_input_id for c in g.connections.values())
            validate_genome(g)

    def test_same_seed_identical(self):
        a = init_population(cfg(seed=5), K)
        b = init_population(cfg(seed=5), K)
        for ga, gb in zip(a.members, b.members):
            assert json.dumps(genome_to_dict(ga), indent=2) == json.dumps(genome_to_dict(gb), indent=2)

    def test_different_seeds_differ(self):
        hits = 0
        for s in range(32):
            a = init_population(cfg(seed=s, population_size=4), K)
            b = init_population(cfg(seed=s + 1000, population_size=4), K)
            wa = sorted(c.weight for g in a.members for c in g.connections.values())
            wb = sorted(c.weight for g in b.members for c in g.connections.values())
            hits += wa != wb
        assert hits >= 31  # identical multisets would be astronomically unlikely

    def test_shared_innovation_numbers_across_members(self):
        pop = init_population(cfg(), K)
        keys = {tuple(sorted(g.connections)) for g in pop.members}
        assert len(keys) == 1

    def test_population_is_speciated(self):
        pop = init_population(cfg(), K)
        covered = sorted(i for sp in pop.species for i in sp.members)
        assert covered == list(range(10))


class TestCompatibilityDistance:
    def test_identical_genomes_distance_zero(self):
        pop = init_population(cfg(), K)
        g = pop.members[0]
        assert compatibility_distance(g, g, cfg()) == 0.0

    def test_hand_computed_value(self):
        # a has innovations {1,2}, b has {1,3}; weights on 1 differ by 0.5
        pop = init_population(cfg(population_size=2), K)
        a, b = pop.members[0].copy(), pop.members[1].copy()
        a.connections.clear()
        b.connections.clear()
        from eincasm.cppn import ConnectionGene

        h = a.n_inputs  # an output node id; endpoints irrelevant to the metric
        a.connections[1] = ConnectionGene(1, 0, h, 1.0, True)
        a.connections[2] = ConnectionGene(2, 1, h, 1.0, True)
        b.connections[1] = ConnectionGene(1, 0, h, 0.5, True)
        b.connections[3] = ConnectionGene(3, 2, h, 1.0, True)
        c = cfg(c1=1.0, c2=1.0, c3=1.0)
        assert compatibility_distance(a, b, c) == pytest.approx(1.5, abs=1e-12)

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(3)
        pop = init_population(cfg(population_size=12, seed=4), K)
        reg = pop.registry
        c = cfg()
        genomes = [
            mutate(g, cfg(add_connection_rate=0.8, add_node_rate=0.5), reg, member_rng(9, 1, 0, i))
            for i, g in enumerate(pop.members)
        ]
        for _ in range(100):
            i, j = rng.integers(len(genomes), size=2)
            d1 = compatibility_distance(genomes[i], genomes[j], c)
            d2 = compatibility_distance(genomes[j], genomes[i], c)
            assert d1 == d2 >= 0.0


class TestSpeciate:
    def test_identical_population_one_species(self):
        pop = init_population(cfg(seed=2), K)
        for g in pop.members[1:]:
            g.connections = {i: type(c)(c.innovation, c.src, c.dst, pop.members[0].connections[i].weight, c.enabled) for i, c in g.connections.items()}
        pop = speciate(pop, cfg())
        assert len(pop.species) == 1

    def test_zero_threshold_all_distinct_genomes_split(self):
        c = cfg(compatibility_threshold=1e-12)
        pop = init_population(c, K)
        pop = speciate(pop, c)
        sizes = sorted(len(sp.members) for sp in pop.species)
        assert len(pop.species) == 10
        assert sizes == [1] * 10

    def test_partition_property_random_populations(self):
        for seed in range(5):
            c = cfg(seed=seed, compatibility_threshold=0.8)
            pop = init_population(c, K)
            pop = speciate(pop, c)
            members = sorted(i for sp in pop.species for i in sp.members)
            assert members == list(range(len(pop.members)))


class TestCrossover:
    def test_self_crossover_preserves_structure(self):
        pop = init_population(cfg(), K)
        g = pop.members[0]
        child = crossover(g, g, member_rng(1, 1, 0, 0))
        assert sorted(child.connections) == sorted(g.connections)
        for innov, conn in child.connections.items():
            assert conn.weight == g.connections[innov].weight

    def test_child_structure_equals_fitter_parent(self):
        c = cfg(add_connection_rate=1.0, add_node_rate=1.0, population_size=6, seed=3)
        pop = init_population(c, K)
        reg = pop.registry
        a = mutate(pop.members[0], c, reg, member_rng(1, 1, 0, 0))
        b = mutate(pop.members[1], c, reg, member_rng(1, 1, 0, 1))
        child = crossover(a, b, member_rng(1, 1, 0, 2))
        assert sorted(child.connections) == sorted(a.connections)
        validate_genome(child)

    def test_matching_weights_come_from_either_parent_evenly(self):
        pop = init_population(cfg(population_size=2, seed=7), K)
        a, b = pop.members
        innovs = sorted(a.connections)
        from_b = 0
        trials = 1000
        for t in range(trials):
            child = crossover(a, b, member_rng(42, 1, t, 0))
            from_b += child.connections[innovs[0]].weight == b.connections[innovs[0]].weight
        # binomial(1000, 0.5): 6 sigma ~ 95
        assert abs(from_b - 500) < 95

    def test_reenabling_never_closes_a_cycle(self):
        """A gene disabled in a parent comes back enabled a quarter of the
        time, unless enabling it would close a cycle."""
        g = empty_genome(K)
        a, b = g.n_inputs + g.n_outputs, g.n_inputs + g.n_outputs + 1
        for node in (a, b):
            g.nodes[node] = NodeGene(node, "identity", 0.0)
        g.connections[0] = ConnectionGene(0, a, b, 1.0, True)
        g.connections[1] = ConnectionGene(1, b, a, 1.0, False)  # would close a -> b -> a
        g.connections[2] = ConnectionGene(2, 0, a, 1.0, False)
        reenabled = 0
        for t in range(400):
            child = crossover(g, g, member_rng(5, 1, t, 0))
            assert child.connections[0].enabled and not child.connections[1].enabled
            validate_genome(child)
            reenabled += child.connections[2].enabled
        # binomial(400, 0.25): mean 100, 6 sigma ~ 52
        assert abs(reenabled - 100) < 52


class TestMutate:
    def test_zero_rates_is_identity(self):
        c = cfg(weight_mutation_rate=0.0, add_node_rate=0.0, add_connection_rate=0.0, disable_rate=0.0)
        pop = init_population(c, K)
        g = pop.members[0]
        m = mutate(g, c, pop.registry, member_rng(1, 1, 0, 0))
        assert json.dumps(genome_to_dict(m), indent=2) == json.dumps(genome_to_dict(g), indent=2)

    def test_add_node_preserves_function_with_identity_activations(self):
        c = cfg(weight_mutation_rate=0.0, add_node_rate=1.0, add_connection_rate=0.0, disable_rate=0.0, seed=11)
        pop = init_population(c, K)
        g = pop.members[0]
        for node in g.nodes.values():
            node.activation = "identity"
        x = np.random.default_rng(0).normal(size=(1, g.n_inputs))
        before = compile_genome(g).evaluate_batch(x)
        found = False
        for t in range(50):  # find an rng draw whose new node got identity activation
            m = mutate(g, c, pop.registry, member_rng(100 + t, 1, 0, 0))
            new_nodes = [n for n in m.nodes.values() if n.id not in g.nodes]
            if new_nodes and all(n.activation == "identity" for n in new_nodes):
                found = True
                after = compile_genome(m).evaluate_batch(x)
                np.testing.assert_allclose(after, before, atol=1e-12)
                split = [c2 for c2 in m.connections.values() if not c2.enabled]
                assert len(split) == 1  # the split edge is disabled
                break
        assert found

    def test_same_structural_event_same_innovation(self):
        c = cfg(weight_mutation_rate=0.0, add_node_rate=1.0, add_connection_rate=0.0, seed=13)
        pop = init_population(c, K)
        reg = pop.registry
        reg.begin_generation()
        a = mutate(pop.members[0], c, reg, member_rng(1, 1, 1, 0))
        b = mutate(pop.members[1], c, reg, member_rng(1, 1, 1, 1))
        new_a = sorted(set(a.connections) - set(pop.members[0].connections))
        new_b = sorted(set(b.connections) - set(pop.members[1].connections))
        # both genomes split an edge; identical split targets share ids
        split_a = next(c2 for c2 in a.connections.values() if not c2.enabled)
        split_b = next(c2 for c2 in b.connections.values() if not c2.enabled)
        if split_a.innovation == split_b.innovation:
            assert new_a == new_b
        else:
            assert not set(new_a) & set(new_b)

    def test_mutations_preserve_invariants(self):
        c = cfg(weight_mutation_rate=0.9, add_node_rate=0.5, add_connection_rate=0.9, disable_rate=0.2, seed=17)
        pop = init_population(c, K)
        reg = pop.registry
        genomes = list(pop.members)
        for gen in range(10):
            reg.begin_generation()
            genomes = [mutate(g, c, reg, member_rng(5, 1, gen, i)) for i, g in enumerate(genomes)]
            for g in genomes:
                validate_genome(g)


class TestInnovationRegistry:
    def test_within_generation_dedupe(self):
        reg = InnovationRegistry(4, 2)
        a = reg.connection_innovation(0, 5)
        b = reg.connection_innovation(0, 5)
        assert a == b
        reg.begin_generation()
        c = reg.connection_innovation(0, 5)
        assert c != a  # cache cleared, counter monotonic

    def test_split_ids_consistent(self):
        reg = InnovationRegistry(4, 2)
        n1, i1, o1 = reg.split_ids(7)
        n2, i2, o2 = reg.split_ids(7)
        assert (n1, i1, o1) == (n2, i2, o2)
        n3, i3, o3 = reg.split_ids(8)
        assert n3 == n1 + 1 and i3 > o1


class TestNextGeneration:
    def test_elitism_preserves_best(self):
        c = cfg(population_size=10, elitism=1, seed=19)
        pop = init_population(c, K)
        fitnesses = np.arange(10, dtype=float)
        best_json = json.dumps(genome_to_dict(pop.members[9]), indent=2)
        new = next_generation(pop, fitnesses, c)
        assert any(json.dumps(genome_to_dict(g), indent=2) == best_json for g in new.members)

    def test_population_size_exactly_preserved(self):
        c = cfg(population_size=13, seed=23, compatibility_threshold=0.5)
        pop = init_population(c, K)
        rng = np.random.default_rng(0)
        for gen in range(50):
            fitnesses = rng.random(13)
            pop = next_generation(pop, fitnesses, c)
            assert len(pop.members) == 13
            members = sorted(i for sp in pop.species for i in sp.members)
            assert members == list(range(13))
            for g in pop.members:
                validate_genome(g)

    def test_equal_fitness_quotas_follow_shared_fitness(self):
        # explicit sharing values each species at its mean fitness, so equal
        # fitness everywhere means equal quotas per species (+-1), however
        # lopsided the species sizes are
        c = cfg(population_size=10, compatibility_threshold=1e-12, elitism=0, seed=29)
        pop = init_population(c, K)
        pop = speciate(pop, c)
        n_species = len(pop.species)
        assert n_species == 10
        new = next_generation(pop, np.ones(10), c)
        assert len(new.members) == 10

    def test_nan_fitness_rejected(self):
        c = cfg()
        pop = init_population(c, K)
        bad = np.ones(10)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            next_generation(pop, bad, c)

    @staticmethod
    def two_species(c, best_a, best_b):
        """Members 0-3 form species A and 4-7 species B, each one generation
        short of stagnating at its best so far. B's members carry a marker
        connection that no other genome has, so its offspring can be told
        apart by their genes."""
        pop = init_population(c, K)
        src, dst = 0, pop.members[0].n_inputs  # first non-bias input -> first output
        marker = pop.registry.connection_innovation(src, dst)
        for g in pop.members[4:]:
            g.connections[marker] = ConnectionGene(marker, src, dst, 1.0, True)
        pop.species = [
            SpeciesState(pop.members[i].copy(), members=list(range(i, i + 4)), best_fitness=best,
                         gens_since_improvement=c.stagnation_limit - 1)
            for i, best in ((0, best_a), (4, best_b))
        ]
        return pop, marker

    def test_stagnant_species_removed(self):
        c = cfg(population_size=8, stagnation_limit=2, compatibility_threshold=10000.0, seed=31)
        fitness = np.array([1.0] * 4 + [2.0] * 4)

        # A improves on its best; B, though fitter now, stays below its own
        # best and passes the limit: it is dropped and has no offspring
        pop, marker = self.two_species(c, best_a=-np.inf, best_b=5.0)
        stagnant = pop.species[1]
        new = next_generation(pop, fitness, c)
        assert len(new.members) == 8
        assert all(sp is not stagnant for sp in new.species)
        assert not any(marker in g.connections for g in new.members)

        # both stagnant: the species holding the globally best member, B,
        # is the one kept, and all offspring descend from it
        pop, marker = self.two_species(c, best_a=10.0, best_b=5.0)
        best = pop.species[1]
        new = next_generation(pop, fitness, c)
        assert new.species == [best] and best.members == list(range(8))
        assert all(marker in g.connections for g in new.members)

        # a sole species was globally best, so survives even while stagnant
        pop = init_population(c, K)
        fixed = np.zeros(8)
        pop = next_generation(pop, fixed, c)
        pop = next_generation(pop, fixed, c)
        pop = next_generation(pop, fixed, c)
        assert len(pop.members) == 8
        assert len(pop.species) >= 1

    def test_determinism_same_seed_same_fitness_sequence(self):
        for trial in range(2):
            c = cfg(population_size=8, seed=37)
            pop = init_population(c, K)
            rng = np.random.default_rng(1)
            for gen in range(5):
                pop = next_generation(pop, rng.random(8), c)
            if trial == 0:
                reference = [json.dumps(genome_to_dict(g), indent=2) for g in pop.members]
            else:
                assert [json.dumps(genome_to_dict(g), indent=2) for g in pop.members] == reference


def test_evaluation_seed_is_stable():
    assert evaluation_seed(5, 3) == evaluation_seed(5, 3)
    assert evaluation_seed(5, 3) != evaluation_seed(5, 4)


def test_activation_drawn_by_index_equals_choice():
    """NEAT draws an activation as an index into the palette. Without
    ``p``, ``Generator.choice`` draws ``integers(0, n)``, so both forms name
    the same activations and leave the generator in the same state."""
    for seed in range(200):
        by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            drawn = ACTIVATION_NAMES[int(by_index.integers(len(ACTIVATION_NAMES)))]
            assert str(by_choice.choice(ACTIVATION_NAMES)) == drawn
        assert by_choice.random() == by_index.random()
