"""Game economy graphs: simulation, evolutionary generation, and balancing.

The root package re-exports what the README shows; everything else is
imported from its submodule (``flowtune.model``, ``flowtune.sim``, ...).
"""

from .model import EconomyError, EconomyGraph, Edge, Node, NodeKind, is_valid, load_economy
from .sim import monitored_node_ids, simulate, simulate_ensemble
from .generator import GeneratorConfig, generate, random_node_counts
from .balancer import BalanceObjective, BalanceParams, ObjectiveKind, TerminationReason, balance
from .bench import BenchmarkSpec, run_benchmark
from .fixtures import FIXTURE_NAMES, fixture_text, load_fixture

__version__ = "0.1.0"
