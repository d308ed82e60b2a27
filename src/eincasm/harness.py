"""Intelligence tests and IQ scoring: coordination and pathfinding.

Each test is a pure function of its arguments, in this order: genome,
physics, arena spec, seed and lifecycle config. The coordination test
removes one of two food clusters mid-run and measures how much mass
shifts toward the surviving cluster's half of the arena; the pathfinding
test seeds the organism at a start cell and checks whether enough mass
ever reaches the food-rich goal region. A run the
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
from .lifecycle import LifecycleConfig, RemoveFood, Simulation, build_simulation, selection_seed
from .physics import PhysicsParams
from .substrate import GridShape, N_BASE_CHANNELS, total_mass

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

# Perception slot arithmetic: center cell is neighborhood index 4; channel
# order per cell is [O, P, F, C, M, R, N, H...].
def _center_input(channel: int, k_hidden: int) -> int:
    return 4 * (N_BASE_CHANNELS + k_hidden) + channel


CHEMO_CHANNEL = 3
MASS_CHANNEL = 4
NUTRIENT_CHANNEL = 6
H0_CHANNEL = 7

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


def _note_failure(sim: Simulation, metrics: dict) -> dict:
    """Add ``fluid_failure`` to metrics if the fluid cut the run short."""
    if sim.failures[0] is not None:
        metrics["fluid_failure"] = str(sim.failures[0])
    return metrics


def pathfinding_test(
    genome: Genome, params: PhysicsParams, spec: EnvSpec, seed: int, cfg: LifecycleConfig
) -> TestScore:
    """Seed at the arena's start; complete by placing >= M_GOAL mass on any
    goal cell before the lifespan ends. iq = 1 - steps_to_completion / T."""
    bundle = build_arena(spec)
    if bundle.goal is None:
        raise HarnessError("arena spec carries no goal region")
    sim = build_simulation(genome, bundle, params, cfg, selection_seed(seed, 1))
    lifespan = cfg.lifespan(seed)

    goal_sl = bundle.goal.slices()
    completion_step = None

    def watch(s: Simulation):
        nonlocal completion_step
        if completion_step is None and float(s.world.mass[goal_sl].max()) >= M_GOAL:
            completion_step = s.step_index

    curve = sim.run(lifespan, observer=watch)[0]
    growth_rate = (curve[-1] - curve[0]) / max(len(curve) - 1, 1)
    completed = completion_step is not None
    return TestScore(
        name="pathfinding",
        completed=completed,
        steps_to_completion=completion_step,
        growth_rate=growth_rate,
        metrics=_note_failure(sim, {
            "final_mass": curve[-1],
            "goal_mass": float(sim.world.mass[goal_sl].sum()),
            "lifespan": lifespan,
        }),
        iq_component=float(np.clip(1.0 - completion_step / lifespan, 0.0, 1.0)) if completed else 0.0,
    )


def coordination_test(
    genome: Genome, params: PhysicsParams, spec: EnvSpec, seed: int, cfg: LifecycleConfig
) -> TestScore:
    """Two food clusters; cluster A vanishes at t_r = T * REMOVAL_FRACTION.

    redistribution index = (mass in B's half at end - at t_r) / total at t_r;
    completed iff the index exceeds THETA_COORDINATION; iq = clamp(index, 0, 1).
    """
    spec = replace(spec, seed=seed)
    bundle = generate(spec)
    lifespan = cfg.lifespan(seed)
    t_r = max(1, int(lifespan * REMOVAL_FRACTION))
    removal = ((t_r, RemoveFood(bundle.cluster_a)),) if t_r < lifespan else ()  # a one-step life never reaches it
    cfg = replace(cfg, schedule=tuple(cfg.schedule) + removal)
    sim = build_simulation(genome, bundle, params, cfg, selection_seed(seed, 1))

    half_x = spec.shape.width // 2
    snapshot = {}

    def watch(s: Simulation):
        if s.step_index == t_r + 1:
            snapshot["mass_b"] = float(s.world.mass[:, half_x:].sum())
            snapshot["total"] = total_mass(s.world)

    curve = sim.run(lifespan, observer=watch)[0]
    if "total" not in snapshot:  # run failed before the removal
        snapshot["mass_b"] = float(sim.world.mass[:, half_x:].sum())
        snapshot["total"] = total_mass(sim.world)
    mass_b_end = float(sim.world.mass[:, half_x:].sum())
    total_r = snapshot["total"]
    index = (mass_b_end - snapshot["mass_b"]) / total_r if total_r > 0 else 0.0
    recovery = total_mass(sim.world) / total_r if total_r > 0 else 0.0
    growth_rate = (curve[-1] - curve[0]) / max(len(curve) - 1, 1)
    completed = index > THETA_COORDINATION
    return TestScore(
        name="coordination",
        completed=completed,
        steps_to_completion=t_r if completed else None,
        growth_rate=growth_rate,
        metrics=_note_failure(sim, {
            "redistribution_index": index,
            "recovery_ratio": recovery,
            "removal_step": t_r,
            "final_mass": curve[-1],
        }),
        iq_component=float(np.clip(index, 0.0, 1.0)),
    )


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
