"""Intelligence tests and IQ scoring: coordination and pathfinding.

Each test is a pure function of its arguments, in this order: genome,
physics, arena spec, seed and lifecycle config. The coordination test
removes one of two food clusters mid-run and measures how much mass
shifts toward the surviving cluster's half of the arena; the pathfinding
test seeds the organism at a start cell and checks whether enough mass
ever reaches the food-rich goal region. Each test runs evaluation 1 of
its seed as evolution does (``start_evaluation``): its final mass is the
fitness evolution gives the genome on that arena and schedule. A run the
fluid cuts short is scored as it stands, its failure in ``fluid_failure``.

The handcrafted chemotaxis baseline genome is the harness's standing
regression reference: a fixed four-connection CPPN whose cells grow
toward chemoattractant (growth drive rises with local C, saturating via a
self-limiting mass term) while steadily inflating their reservoirs, which
pumps nutrient outward to the growth frontier. It must complete the
straight corridor and the single-obstacle detour fixtures.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from .cppn import ConnectionGene, Genome, empty_genome
from .environments import EnvBundle, EnvSpec, Rect, generate
from .lifecycle import LifecycleConfig, RemoveFood, Simulation, start_evaluation
from .physics import PhysicsParams
from .substrate import BASE_CHANNELS, NEIGHBORHOOD, N_BASE_CHANNELS, GridShape, total_mass

DEFAULT_K_HIDDEN = 4
THETA_COORDINATION = 0.2  # redistribution index needed to count as completed
REMOVAL_FRACTION = 1 / 3  # share of the lifespan after which cluster A vanishes
M_GOAL = 0.1  # goal-cell mass needed to complete pathfinding


class HarnessError(ValueError):
    pass


@dataclass
class TestScore:
    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    completed: bool
    steps_to_completion: int | None
    growth_rate: float
    metrics: dict
    iq_component: float

    def __post_init__(self):
        if self.completed != (self.steps_to_completion is not None):
            raise HarnessError("steps_to_completion must be present iff completed")


# -- builtin arenas -----------------------------------------------------------


def corridor_spec() -> EnvSpec:
    """A straight corridor 16 cells long: the grid boundary is the wall, the
    organism starts at one end, rich food fills the far end."""
    goal = Rect(16, 1, 2, 3)
    return EnvSpec(
        kind="open_arena",
        shape=GridShape(18, 5),
        food=((goal, 8.0),),
        seed_cell=(1, 2),
        chemo_decay=0.99,
        chemo_iters=160,
        params=(("goal", astuple(goal)),),
    )


def detour_spec() -> EnvSpec:
    """Arena with a vertical bar between start and goal; the
    chemoattractant ridge — and the organism — must bend around it."""
    goal = Rect(8, 3, 3, 3)
    return EnvSpec(
        kind="open_arena",
        shape=GridShape(12, 9),
        food=((goal, 12.0),),
        obstacles=(Rect(4, 2, 1, 5),),
        seed_cell=(1, 4),
        chemo_decay=0.99,
        chemo_iters=200,
        params=(("goal", astuple(goal)),),
    )


def coordination_spec() -> EnvSpec:
    return EnvSpec(
        kind="coordination",
        shape=GridShape(24, 16),
        seed_cell=(12, 8),
        chemo_decay=0.99,
        chemo_iters=200,
        params=(("cluster_amount", 6.0), ("cluster_offset", 8), ("cluster_radius", 1)),
    )


def harness_physics() -> PhysicsParams:
    """Economy used by the builtin fixtures: very cheap reservoir work,
    generous uptake, and enough reservoir capacity that pumping can move
    nutrient meaningfully within a test's lifespan."""
    return PhysicsParams(alpha=0.0005, beta=1.0, gamma=0.5, kappa=8.0, rho_cap=0.25)


def harness_lifecycle(t: int = 600) -> LifecycleConfig:
    """Fixture lifecycle: fixed lifespan, synchronous updates (p_update=1
    keeps every cell's breathing oscillator on a shared clock, which the
    baseline's peristaltic pumping depends on), and a nutrient endowment
    large enough to cross a fixture arena without food along the way."""
    return LifecycleConfig(
        t_min=t, t_max=t, p_update=1.0, seed_mass=1.0, seed_nutrient=24.0, tau=1.2
    )


def build_arena(spec: EnvSpec) -> EnvBundle:
    """The harness's arena generator: ``generate`` itself. Kept as a name
    of its own because the benchmark traces it as a span."""
    return generate(spec)


# -- baseline genomes ---------------------------------------------------------

# Perception slot arithmetic, in the perception order ``substrate`` fixes:
# neighborhood cell by cell, each cell's base channels, then its hidden ones.
def _center_input(channel: int, k_hidden: int) -> int:
    return NEIGHBORHOOD.index((0, 0)) * (N_BASE_CHANNELS + k_hidden) + channel


CHEMO_CHANNEL = BASE_CHANNELS.index("chemo")
MASS_CHANNEL = BASE_CHANNELS.index("mass")
NUTRIENT_CHANNEL = BASE_CHANNELS.index("nutrient")
H0_CHANNEL = N_BASE_CHANNELS  # the first hidden channel

#: Hand-scaled baseline weights. The mass rule balances chemoattractant
#: greed against a strong self-limiting brake plus an appetite for free
#:  nutrient; the brake keeps the body lean so most of the energy budget
#: circulates as nutrient instead of freezing into tissue.
BASELINE_CHEMO_GAIN = 0.06
BASELINE_MASS_BRAKE = -3.0
BASELINE_NUTRIENT_APPETITE = 0.3
BASELINE_BREATH_COUPLING = 0.3
BASELINE_PUMP_BIAS = 0.8
BASELINE_OSC_FEEDBACK = -4.0
BASELINE_OSC_BIAS = 0.5


def chemotaxis_baseline(k_hidden: int = DEFAULT_K_HIDDEN) -> Genome:
    """The handcrafted foraging rule: chemotaxis plus peristaltic pumping.

    H0_new = clamp(0.5 - 4 * H0)                        a period-two square
                                                        wave once every cell
                                                        updates each step
    dM_raw = 0.06*C - 3*M + 0.3*N + 0.3*H0              grow toward the
                                                        gradient, stay lean,
                                                        store loose nutrient,
                                                        breathe with H0
    dR_raw = 0.8                                        always want a fuller
                                                        reservoir

    The breathing term makes every cell's mass flap around its equilibrium.
    Each down-beat sheds reservoir for free (the capacity bound tracks mass
    down); each up-beat re-inflates it, injecting fluid density. That
    asymmetry turns the whole body into a one-way pump that pushes
    nutrient-laden fluid outward, where the chemotaxis term captures it
    preferentially on the food side. Requires synchronous updates
    (p_update = 1) so the oscillators share a clock.
    """
    g = empty_genome(k_hidden)
    c_in = _center_input(CHEMO_CHANNEL, k_hidden)
    m_in = _center_input(MASS_CHANNEL, k_hidden)
    n_in = _center_input(NUTRIENT_CHANNEL, k_hidden)
    h0_in = _center_input(H0_CHANNEL, k_hidden)
    out_h0 = g.n_inputs
    out_dr = g.n_inputs + k_hidden
    out_dm = out_dr + 1
    genes = [
        (1, c_in, out_dm, BASELINE_CHEMO_GAIN),
        (2, m_in, out_dm, BASELINE_MASS_BRAKE),
        (3, n_in, out_dm, BASELINE_NUTRIENT_APPETITE),
        (4, h0_in, out_dm, BASELINE_BREATH_COUPLING),
        (5, g.bias_input_id, out_dr, BASELINE_PUMP_BIAS),
        (6, h0_in, out_h0, BASELINE_OSC_FEEDBACK),
        (7, g.bias_input_id, out_h0, BASELINE_OSC_BIAS),
    ]
    for innov, src, dst, weight in genes:
        g.connections[innov] = ConnectionGene(innov, src, dst, weight, True)
    return g


# -- tests --------------------------------------------------------------------


def _score(name: str, sim: Simulation, curve: list[float], completed_at: int | None, metrics: dict,
           iq: float) -> TestScore:
    """A test's score from its run's mass curve: it completed at step
    ``completed_at``, or not if None. A run the fluid cut short adds
    ``fluid_failure`` to ``metrics``, after the test's own keys."""
    if sim.failures[0] is not None:
        metrics["fluid_failure"] = str(sim.failures[0])
    growth_rate = (curve[-1] - curve[0]) / max(len(curve) - 1, 1)
    return TestScore(name, completed_at is not None, completed_at, growth_rate, metrics, iq)


def start_test(name: str, genome: Genome, params: PhysicsParams, spec: EnvSpec | None, seed: int,
               cfg: LifecycleConfig) -> tuple[Simulation, int, EnvBundle, int]:
    """Battery test ``name`` as it starts: its simulation, lifespan, arena
    (spec None: ``coordination_spec()``) and t_r. ``coordination`` removes
    cluster A at step t_r; any other test, pathfinding, needs a goal."""
    bundle = build_arena(spec or coordination_spec())
    lifespan = cfg.lifespan(seed)  # drawn first: the removal joins the schedule the simulation is built with
    t_r = max(1, int(lifespan * REMOVAL_FRACTION))
    if name == "coordination" and t_r < lifespan:  # a one-step life never reaches the removal
        cfg = replace(cfg, schedule=tuple(cfg.schedule) + ((t_r, RemoveFood(bundle.cluster_a)),))
    elif name != "coordination" and bundle.goal is None:
        raise HarnessError("arena spec carries no goal region")
    return start_evaluation(genome, bundle, params, cfg, seed, 1)[0], lifespan, bundle, t_r


def pathfinding_test(genome: Genome, params: PhysicsParams, spec: EnvSpec, seed: int,
                     cfg: LifecycleConfig) -> TestScore:
    """Seed at the arena's start; complete by placing >= M_GOAL mass on any
    goal cell before the lifespan ends. iq = 1 - steps_to_completion / T."""
    sim, lifespan, bundle, _ = start_test("pathfinding", genome, params, spec, seed, cfg)
    goal_sl = bundle.goal.slices()
    completion_step = None

    def watch(s: Simulation):
        nonlocal completion_step
        if completion_step is None and float(s.world.mass[goal_sl].max()) >= M_GOAL:
            completion_step = s.step_index

    curve = sim.run(lifespan, observer=watch)[0]
    metrics = {"final_mass": curve[-1], "goal_mass": float(sim.world.mass[goal_sl].sum()), "lifespan": lifespan}
    iq = 0.0 if completion_step is None else float(np.clip(1.0 - completion_step / lifespan, 0.0, 1.0))
    return _score("pathfinding", sim, curve, completion_step, metrics, iq)


def coordination_test(genome: Genome, params: PhysicsParams, spec: EnvSpec, seed: int,
                      cfg: LifecycleConfig) -> TestScore:
    """Two food clusters; cluster A vanishes at t_r = T * REMOVAL_FRACTION.

    redistribution index = (mass in B's half at end - at t_r) / total at t_r;
    completed iff the index exceeds THETA_COORDINATION; iq = clamp(index, 0, 1).
    """
    sim, lifespan, _, t_r = start_test("coordination", genome, params, spec, seed, cfg)

    def measure(world) -> tuple[float, float]:  # the mass in B's half, and the total
        return float(world.mass[:, spec.shape.width // 2:].sum()), total_mass(world)

    at_removal = []

    def watch(s: Simulation):
        if s.step_index == t_r + 1:
            at_removal.append(measure(s.world))

    curve = sim.run(lifespan, observer=watch)[0]
    mass_b_r, total_r = at_removal[0] if at_removal else measure(sim.world)  # else the run failed before the removal
    mass_b_end, total_end = measure(sim.world)
    index = (mass_b_end - mass_b_r) / total_r if total_r > 0 else 0.0
    recovery = total_end / total_r if total_r > 0 else 0.0
    metrics = {"redistribution_index": index, "recovery_ratio": recovery, "removal_step": t_r, "final_mass": curve[-1]}
    completed_at = t_r if index > THETA_COORDINATION else None
    return _score("coordination", sim, curve, completed_at, metrics, float(np.clip(index, 0.0, 1.0)))


@dataclass
class IqReport:
    iq: float
    tests: list[TestScore] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def iq_report(scores: list[TestScore]) -> IqReport:
    """Unweighted mean of the per-test iq components."""
    if not scores:
        raise HarnessError("iq_report needs at least one test score")
    return IqReport(iq=float(np.mean([s.iq_component for s in scores])), tests=list(scores))


#: The standard battery in report order: (test name, arena spec factory).
STANDARD_BATTERY = (
    ("coordination", coordination_spec),
    ("pathfinding", corridor_spec),
    ("pathfinding_detour", detour_spec),
)


def run_battery(genome: Genome, params: PhysicsParams, seed: int,
                cfg: LifecycleConfig | None = None, tests=None) -> IqReport:
    """Run a battery of (name, spec) tests and return the aggregate report.

    A test named ``coordination`` runs ``coordination_test``, and any other
    name ``pathfinding_test``, on its spec; spec None means
    ``coordination_spec()``. Each score takes its test's name. ``cfg``
    defaults to ``harness_lifecycle()`` and ``tests`` to
    ``STANDARD_BATTERY``.
    """
    cfg = cfg or harness_lifecycle()
    if tests is None:
        tests = [(name, make_spec()) for name, make_spec in STANDARD_BATTERY]
    scores = []
    for name, spec in tests:
        test = coordination_test if name == "coordination" else pathfinding_test
        score = test(genome, params, spec or coordination_spec(), seed, cfg)
        score.name = name
        scores.append(score)
    return iq_report(scores)
