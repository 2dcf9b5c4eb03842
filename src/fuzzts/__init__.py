"""Exact max-min fuzzy transition systems.

Finite transition systems whose steps carry membership degrees, evaluated
with max-min (Goedel) semantics over exact scaled-decimal degrees: fuzzy
word languages, bisimulation checking and bisimilarity, strong bisimulation,
parallel composition, subsystems, homomorphisms, quotients, and
minimization, plus a text model format and a command-line front end.
"""

from .algebra import (
    NotHomomorphismError,
    QuotientFts,
    check_homomorphism,
    graph_of,
    hom_image,
    is_subsystem,
    kernel,
    minimize,
    parallel_compose,
    product_id,
    pull_relation,
    push_relation,
    quotient,
)
from .bisim import (
    Verdict,
    Witness,
    are_bisimilar,
    bisimilarity,
    check_automaton_bisimulation,
    check_bisimulation,
    check_strong_bisimulation,
    refine,
    self_bisimilarity,
    z_closure,
)
from .core import (
    Fts,
    FuzzyAutomaton,
    FuzzySet,
    Relation,
    StateMap,
    Word,
    decompose,
)
from .degrees import ONE, SCALE, ZERO, Degree, as_degree
from .errors import (
    AlphabetError,
    CapError,
    DegreeError,
    FtsError,
    ModelError,
    ParseError,
    UniverseError,
)
from .language import (
    accept_degree,
    delta_word,
    lang_degree,
    lang_equal_up_to,
    lang_table,
    step,
    unit,
)
from .modelfile import (
    parse_map,
    parse_model,
    parse_relation,
    serialize_map,
    serialize_model,
    serialize_relation,
)
from .oracles import (
    check_bisimulation_naive,
    enumerate_bisimulations_bruteforce,
    is_correlational,
    iter_bisimulations_bruteforce,
    iterate_refinement,
)

__all__ = [
    "AlphabetError",
    "CapError",
    "Degree",
    "DegreeError",
    "Fts",
    "FtsError",
    "FuzzyAutomaton",
    "FuzzySet",
    "ModelError",
    "NotHomomorphismError",
    "ONE",
    "ParseError",
    "QuotientFts",
    "Relation",
    "SCALE",
    "StateMap",
    "UniverseError",
    "Verdict",
    "Witness",
    "Word",
    "ZERO",
    "accept_degree",
    "are_bisimilar",
    "as_degree",
    "bisimilarity",
    "check_automaton_bisimulation",
    "check_bisimulation",
    "check_bisimulation_naive",
    "check_homomorphism",
    "check_strong_bisimulation",
    "decompose",
    "delta_word",
    "enumerate_bisimulations_bruteforce",
    "graph_of",
    "hom_image",
    "is_correlational",
    "is_subsystem",
    "iter_bisimulations_bruteforce",
    "iterate_refinement",
    "kernel",
    "lang_degree",
    "lang_equal_up_to",
    "lang_table",
    "minimize",
    "parallel_compose",
    "parse_map",
    "parse_model",
    "parse_relation",
    "product_id",
    "pull_relation",
    "push_relation",
    "quotient",
    "refine",
    "self_bisimilarity",
    "serialize_map",
    "serialize_model",
    "serialize_relation",
    "step",
    "unit",
    "z_closure",
]

__version__ = "0.1.0"
