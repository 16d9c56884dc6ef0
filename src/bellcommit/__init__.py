"""Exact simulation of a Bell-pair commitment scheme and its binding attack.

The library demonstrates, by dense state-vector simulation and seeded Monte
Carlo experiment, that the committer of this scheme can postpone her choice
and steer the commitment to any value at reveal time using only local Pauli
operations, passing verification with probability 1, while the receiving
side's view stays independent of the committed value.

The top level is the protocol API; the state kernel and its reference
oracle are imported from :mod:`bellcommit.qcore`.
"""

__version__ = "0.36.0"

from .attack import (
    CHEAT_START_LABEL,
    alice_commit_cheating,
    alice_reveal_cheat,
    pauli_for_flip,
)
from .harness import (
    HIDING_THRESHOLD,
    OUTCOME_TOLERANCE,
    Cell,
    CheckResult,
    ExperimentConfig,
    HidingReport,
    Strategy,
    acceptance_matrix,
    hiding_report,
    run_experiment,
    selftest,
)
from .protocol import (
    COMMIT_VALUES,
    MAX_ANCILLAS,
    BCPolicy,
    CommitmentSession,
    CommitValue,
    ConfigError,
    ProtocolError,
    VerificationReport,
    alice_commit,
    alice_reveal_honest,
    bc_apply_operations,
    commit_label,
    verify,
)

__all__ = [
    "BCPolicy",
    "CHEAT_START_LABEL",
    "COMMIT_VALUES",
    "Cell",
    "CheckResult",
    "CommitValue",
    "CommitmentSession",
    "ConfigError",
    "ExperimentConfig",
    "HIDING_THRESHOLD",
    "OUTCOME_TOLERANCE",
    "HidingReport",
    "MAX_ANCILLAS",
    "ProtocolError",
    "Strategy",
    "VerificationReport",
    "acceptance_matrix",
    "alice_commit",
    "alice_commit_cheating",
    "alice_reveal_cheat",
    "alice_reveal_honest",
    "bc_apply_operations",
    "commit_label",
    "hiding_report",
    "pauli_for_flip",
    "run_experiment",
    "selftest",
    "verify",
    "__version__",
]
