"""State complexity of boolean combinations of permutation automata.

The package builds deterministic automata whose letters act as permutations,
combines them with binary boolean operations on their languages, and checks
when the product construction is already minimal.  Structural predictions
(connectivity, pair graph components, conjugate bases) are kept separate
from the minimization oracle so campaigns can compare the two on every
instance.
"""

from .automaton import (
    DFA,
    Semiautomaton,
    accepts,
    distinguishability_complexity,
    equivalence_classes,
    from_basis,
    is_connected,
    minimize,
    parse_automaton_text,
    reachable_states,
    run,
    transition_semigroup,
)
from .boolops import (
    CANONICAL_TABLES,
    NAMED_TABLES,
    BoolFn,
    is_proper,
    proper_functions,
)
from .errors import (
    AutomatonFormatError,
    CapExceededError,
    CycleFormatError,
    DegreeMismatchError,
    NotAPermutationError,
    TwoPathDisagreement,
)
from .harness import (
    CampaignConfig,
    CampaignResult,
    ConnectivityCheck,
    VerificationRecord,
    enumerate_bases,
    evaluate_instance,
    reproduce,
    sample_instances,
    verify_theorem1,
    verify_theorem2,
)
from .perm import (
    Basis,
    Perm,
    bases_conjugate,
    compose,
    conjugate,
    format_cycles,
    generates_symmetric,
    parse_cycles,
)
from .product import (
    ComponentLabel,
    PairGraph,
    ProductAutomaton,
    classify_component,
    direct_product,
    flat_final_set,
    format_pair_graph,
    has_distinguishing_pair,
    pair_graph,
    predict_connected,
    predict_minimal,
    product_dfa,
)

__version__ = "0.1.0"

__all__ = [
    "AutomatonFormatError",
    "Basis",
    "BoolFn",
    "CANONICAL_TABLES",
    "CampaignConfig",
    "CampaignResult",
    "CapExceededError",
    "ComponentLabel",
    "ConnectivityCheck",
    "CycleFormatError",
    "DFA",
    "DegreeMismatchError",
    "NAMED_TABLES",
    "NotAPermutationError",
    "PairGraph",
    "Perm",
    "ProductAutomaton",
    "Semiautomaton",
    "TwoPathDisagreement",
    "VerificationRecord",
    "accepts",
    "bases_conjugate",
    "classify_component",
    "compose",
    "conjugate",
    "direct_product",
    "distinguishability_complexity",
    "enumerate_bases",
    "equivalence_classes",
    "evaluate_instance",
    "flat_final_set",
    "format_cycles",
    "format_pair_graph",
    "from_basis",
    "generates_symmetric",
    "has_distinguishing_pair",
    "is_connected",
    "is_proper",
    "minimize",
    "pair_graph",
    "parse_automaton_text",
    "parse_cycles",
    "predict_connected",
    "predict_minimal",
    "product_dfa",
    "proper_functions",
    "reachable_states",
    "reproduce",
    "run",
    "sample_instances",
    "transition_semigroup",
    "verify_theorem1",
    "verify_theorem2",
]
