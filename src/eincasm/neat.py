"""Topology-and-weight evolution of CPPN genomes.

Standard machinery: innovation numbers align connection genes between
parents, compatibility distance partitions the population into species,
explicit fitness sharing (member fitness / species size) sets per-species
offspring quotas, and elites survive unchanged.

Random streams are derived from named SeedSequence tuples so that
parallel fitness evaluation can never perturb the evolutionary outcome:
population init uses (seed, 0, 0, member), reproduction of child c in
generation g uses (seed, 1, g, c), and the evaluation seed for
generation g is shared by every member — (seed, 2, g) — so all genomes of
one generation face identical environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cppn import (
    ACTIVATION_NAMES,
    ConnectionGene,
    Genome,
    HIDDEN,
    NodeGene,
    creates_cycle,
    empty_genome,
    io_sizes,
    validate_genome,
)

STREAM_INIT, STREAM_REPRO, STREAM_EVAL = 0, 1, 2


def member_rng(seed: int, stream: int, generation: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, generation, index]))


def evaluation_seed(seed: int, generation: int) -> int:
    """One shared lifecycle seed per generation: fair arenas for all members."""
    return int(np.random.SeedSequence([seed, STREAM_EVAL, generation]).generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class EvolutionConfig:
    population_size: int = 64
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 0.4
    compatibility_threshold: float = 3.0
    weight_mutation_rate: float = 0.8
    weight_perturb_std: float = 0.5
    add_node_rate: float = 0.03
    add_connection_rate: float = 0.1
    disable_rate: float = 0.01
    elitism: int = 1
    survival_fraction: float = 0.3
    stagnation_limit: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        for name in ("weight_mutation_rate", "add_node_rate", "add_connection_rate", "disable_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rate}")
        if not 0.0 < self.survival_fraction <= 1.0:
            raise ValueError("survival_fraction must lie in (0, 1]")
        if self.elitism < 0 or self.stagnation_limit < 1:
            raise ValueError("elitism must be >= 0 and stagnation_limit >= 1")


class InnovationRegistry:
    """Hands out innovation numbers and node ids, deduplicating structural
    events within a generation: the same new edge (or the same split) seen
    twice in one generation receives the same ids. Counters are monotonic
    for the whole run; the per-event caches reset each generation."""

    def __init__(self, n_inputs: int, n_outputs: int):
        self.next_innovation = 0
        self.next_node_id = n_inputs + n_outputs
        self._edge_cache: dict[tuple[int, int], int] = {}
        self._split_cache: dict[int, tuple[int, int, int]] = {}

    def begin_generation(self) -> None:
        self._edge_cache.clear()
        self._split_cache.clear()

    def connection_innovation(self, src: int, dst: int) -> int:
        key = (src, dst)
        if key not in self._edge_cache:
            self._edge_cache[key] = self.next_innovation
            self.next_innovation += 1
        return self._edge_cache[key]

    def split_ids(self, innovation: int) -> tuple[int, int, int]:
        """(new node id, innovation src->new, innovation new->dst) for
        splitting the connection with the given innovation number."""
        if innovation not in self._split_cache:
            node_id = self.next_node_id
            self.next_node_id += 1
            self._split_cache[innovation] = (
                node_id,
                self.next_innovation,
                self.next_innovation + 1,
            )
            self.next_innovation += 2
        return self._split_cache[innovation]

    def counters(self) -> dict:
        return {"next_innovation": self.next_innovation, "next_node_id": self.next_node_id}


@dataclass
class SpeciesState:
    id: int
    representative: Genome
    members: list[int] = field(default_factory=list)  # indices into Population.members
    best_fitness: float = -np.inf
    gens_since_improvement: int = 0


@dataclass
class Population:
    members: list[Genome]
    species: list[SpeciesState]
    generation: int
    registry: InnovationRegistry
    next_species_id: int = 1

    def species_of(self, member_index: int) -> SpeciesState:
        for sp in self.species:
            if member_index in sp.members:
                return sp
        raise LookupError(f"member {member_index} not in any species")


def init_population(cfg: EvolutionConfig, k_hidden: int) -> Population:
    """Minimal-topology founders: every input and output node present, one
    enabled bias->output connection per output with Normal(0,1) weight,
    output activations drawn uniformly from the palette."""
    n_in, n_out = io_sizes(k_hidden)
    registry = InnovationRegistry(n_in, n_out)
    members = []
    for index in range(cfg.population_size):
        rng = member_rng(cfg.seed, STREAM_INIT, 0, index)
        g = empty_genome(k_hidden)
        for j, out_id in enumerate(g.output_ids()):
            g.nodes[out_id].activation = str(rng.choice(ACTIVATION_NAMES))
            innov = registry.connection_innovation(g.bias_input_id, out_id)
            g.connections[innov] = ConnectionGene(
                innov, g.bias_input_id, out_id, float(rng.normal()), True
            )
        members.append(g)
    pop = Population(members=members, species=[], generation=0, registry=registry)
    return speciate(pop, cfg)


def compatibility_distance(a: Genome, b: Genome, cfg: EvolutionConfig) -> float:
    """delta = c1*E/Ng + c2*D/Ng + c3*Wbar over connection genes.

    E counts genes beyond the other parent's highest innovation, D the
    non-matching genes inside that range, Wbar the mean absolute weight
    difference over matching genes, and Ng = max(gene counts, 1).
    """
    innovs_a = set(a.connections)
    innovs_b = set(b.connections)
    if not innovs_a and not innovs_b:
        return 0.0
    max_a = max(innovs_a, default=-1)
    max_b = max(innovs_b, default=-1)
    matching = innovs_a & innovs_b
    excess = disjoint = 0
    for innov in innovs_a ^ innovs_b:
        if innov > min(max_a, max_b):
            excess += 1
        else:
            disjoint += 1
    if matching:
        wbar = float(np.mean([abs(a.connections[i].weight - b.connections[i].weight) for i in matching]))
    else:
        wbar = 0.0
    ng = max(len(innovs_a), len(innovs_b), 1)
    return cfg.c1 * excess / ng + cfg.c2 * disjoint / ng + cfg.c3 * wbar


def speciate(pop: Population, cfg: EvolutionConfig) -> Population:
    """Assign every member to the first compatible species (representatives
    carried over from the previous generation), founding new species as
    needed. Afterwards each surviving species' representative becomes its
    first member, ready for the next round."""
    for sp in pop.species:
        sp.members = []
    species = list(pop.species)
    for index, genome in enumerate(pop.members):
        for sp in species:
            if compatibility_distance(genome, sp.representative, cfg) < cfg.compatibility_threshold:
                sp.members.append(index)
                break
        else:
            sp = SpeciesState(id=pop.next_species_id, representative=genome.copy())
            pop.next_species_id += 1
            sp.members.append(index)
            species.append(sp)
    species = [sp for sp in species if sp.members]
    for sp in species:
        sp.representative = pop.members[sp.members[0]].copy()
    pop.species = species
    return pop


def crossover(fitter: Genome, other: Genome, rng: np.random.Generator) -> Genome:
    """Child structure equals the fitter parent's; matching genes take their
    weight from either parent uniformly. A gene disabled in either parent
    stays disabled with probability 0.75 — re-enabling is skipped when it
    would close a cycle among the child's enabled connections."""
    child = fitter.copy()
    for innov in sorted(child.connections):
        gene = child.connections[innov]
        match = other.connections.get(innov)
        if match is not None:
            if rng.random() < 0.5:
                gene.weight = match.weight
            if not gene.enabled or not match.enabled:
                if rng.random() < 0.25:
                    gene.enabled = True
                    if creates_cycle_with_self(child, gene):
                        gene.enabled = False
                else:
                    gene.enabled = False
    return child


def creates_cycle_with_self(genome: Genome, gene: ConnectionGene) -> bool:
    """Check whether an already-enabled gene participates in a cycle."""
    gene.enabled = False
    try:
        return creates_cycle(genome, gene.src, gene.dst)
    finally:
        gene.enabled = True


def mutate(genome: Genome, cfg: EvolutionConfig, registry: InnovationRegistry,
           rng: np.random.Generator) -> Genome:
    """Weight perturbation, add-connection, add-node, and disable-toggle,
    each gated by its configured rate. Mutations that cannot apply (no
    legal new edge, no enabled connection to split) are skipped."""
    g = genome.copy()

    for innov in sorted(g.connections):
        if rng.random() < cfg.weight_mutation_rate:
            g.connections[innov].weight += float(rng.normal(0.0, cfg.weight_perturb_std))

    if rng.random() < cfg.add_connection_rate:
        sources = [n.id for n in g.nodes.values() if n.kind != "output"]
        targets = [n.id for n in g.nodes.values() if n.kind != "input"]
        existing = {(c.src, c.dst) for c in g.connections.values()}
        for _ in range(20):
            src = sources[int(rng.integers(len(sources)))]
            dst = targets[int(rng.integers(len(targets)))]
            if src == dst or (src, dst) in existing or creates_cycle(g, src, dst):
                continue
            innov = registry.connection_innovation(src, dst)
            if innov in g.connections:
                continue
            g.connections[innov] = ConnectionGene(innov, src, dst, float(rng.normal()), True)
            break

    if rng.random() < cfg.add_node_rate:
        enabled = [c for c in g.sorted_connections() if c.enabled]
        if enabled:
            conn = enabled[int(rng.integers(len(enabled)))]
            node_id, innov_in, innov_out = registry.split_ids(conn.innovation)
            if node_id not in g.nodes and innov_in not in g.connections and innov_out not in g.connections:
                conn.enabled = False
                activation = str(rng.choice(ACTIVATION_NAMES))
                g.nodes[node_id] = NodeGene(node_id, HIDDEN, activation, 0.0)
                g.connections[innov_in] = ConnectionGene(innov_in, conn.src, node_id, 1.0, True)
                g.connections[innov_out] = ConnectionGene(innov_out, node_id, conn.dst, conn.weight, True)

    if rng.random() < cfg.disable_rate:
        enabled = [c for c in g.sorted_connections() if c.enabled]
        if enabled:
            enabled[int(rng.integers(len(enabled)))].enabled = False

    return g


def next_generation(pop: Population, fitnesses, cfg: EvolutionConfig) -> Population:
    """Produce generation g+1 from fitness values for generation g.

    Quotas: explicit fitness sharing — each species is worth the sum of
    its members' fitness / species size — distributed over exactly
    population_size offspring by largest remainder. Per-species elites are
    copied unchanged; other offspring come from crossover of two parents
    sampled uniformly from the species' top survival_fraction, followed by
    mutation. Species that have not improved for stagnation_limit
    generations are dropped (unless that would empty the population).
    """
    fitnesses = np.asarray(fitnesses, dtype=np.float64)
    if fitnesses.shape != (len(pop.members),):
        raise ValueError(f"need {len(pop.members)} fitness values, got shape {fitnesses.shape}")
    if not np.isfinite(fitnesses).all():
        raise ValueError("fitness values must be finite")

    for sp in pop.species:
        best = max(fitnesses[i] for i in sp.members)
        if best > sp.best_fitness:
            sp.best_fitness = best
            sp.gens_since_improvement = 0
        else:
            sp.gens_since_improvement += 1

    alive = [sp for sp in pop.species if sp.gens_since_improvement < cfg.stagnation_limit]
    if not alive:
        global_best = int(np.argmax(fitnesses))
        alive = [pop.species_of(global_best)]

    shares = np.array([sum(fitnesses[i] for i in sp.members) / len(sp.members) for sp in alive])
    if shares.sum() <= 0:
        shares = np.array([float(len(sp.members)) for sp in alive])
    quotas = _largest_remainder(shares / shares.sum() * cfg.population_size, cfg.population_size)

    registry = pop.registry
    registry.begin_generation()
    new_members: list[Genome] = []
    child_counter = 0
    for sp, quota in zip(alive, quotas):
        if quota == 0:
            continue
        ranked = sorted(sp.members, key=lambda i: (-fitnesses[i], i))
        n_elite = min(cfg.elitism, quota, len(ranked))
        for i in ranked[:n_elite]:
            new_members.append(pop.members[i].copy())
        survivors = ranked[: max(1, int(np.ceil(cfg.survival_fraction * len(ranked))))]
        for _ in range(quota - n_elite):
            rng = member_rng(cfg.seed, STREAM_REPRO, pop.generation, child_counter)
            child_counter += 1
            pa = survivors[int(rng.integers(len(survivors)))]
            pb = survivors[int(rng.integers(len(survivors)))]
            if (fitnesses[pb], -pb) > (fitnesses[pa], -pa):
                pa, pb = pb, pa
            child = crossover(pop.members[pa], pop.members[pb], rng)
            child = mutate(child, cfg, registry, rng)
            new_members.append(child)

    new_pop = Population(
        members=new_members,
        species=alive,  # stagnant species are gone for good
        generation=pop.generation + 1,
        registry=registry,
        next_species_id=pop.next_species_id,
    )
    return speciate(new_pop, cfg)


def _largest_remainder(ideal: np.ndarray, total: int) -> list[int]:
    floors = np.floor(ideal).astype(int)
    remainder = total - int(floors.sum())
    order = np.argsort(-(ideal - floors), kind="stable")
    for i in order[:remainder]:
        floors[i] += 1
    return [int(v) for v in floors]
