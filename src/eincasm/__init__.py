"""EINCASM: evolving neural cellular automata under a nutrient economy,
with lattice-Boltzmann fluid transport and an intelligence-test harness."""

__version__ = "0.1.0"

from .cppn import Genome, Phenotype, compile_genome
from .environments import EnvSpec, Rect, generate
from .fluid import Lattice, advect_scalar, macroscopic
from .lifecycle import FitnessRecord, LifecycleConfig, Simulation, run_lifecycle, run_population
from .neat import EvolutionConfig, Population, init_population, next_generation
from .physics import PhysicsParams, constrain
from .substrate import GridShape, Statics, WorldState, create_world, total_mass

__all__ = [
    "Genome",
    "Phenotype",
    "compile_genome",
    "EnvSpec",
    "Rect",
    "generate",
    "Lattice",
    "advect_scalar",
    "macroscopic",
    "FitnessRecord",
    "LifecycleConfig",
    "Simulation",
    "run_lifecycle",
    "run_population",
    "EvolutionConfig",
    "Population",
    "init_population",
    "next_generation",
    "PhysicsParams",
    "constrain",
    "GridShape",
    "Statics",
    "WorldState",
    "create_world",
    "total_mass",
    "__version__",
]
