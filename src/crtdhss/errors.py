"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Operands live in different prime fields."""


class NotCoprimeError(ValueError):
    """Modular inverse requested for a non-coprime pair."""


class NotPairwiseCoprimeError(ValueError):
    """CRT moduli are not pairwise coprime."""


class NoCrtSolutionError(ValueError):
    """Exhaustive search found no polynomial satisfying all congruences."""


class InvalidParametersError(ValueError):
    """Public parameters violate the scheme's validity conditions."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid parameters: " + "; ".join(self.violations))


class InsufficientIrreduciblesError(ValueError):
    """A requested degree class has fewer usable irreducibles than needed."""


class UnauthorizedSubsetError(ValueError):
    """The participants at hand do not form an authorized coalition."""


class InconsistentSharesError(ValueError):
    """Pooled shares are mutually inconsistent (tampered or mismatched)."""


class AttackNotApplicableError(ValueError):
    """The published transcript does not satisfy the attack preconditions."""


class MissingBulletinEntryError(KeyError):
    """No published mask exists for the requested (level, participant)."""

    def __init__(self, key):
        self.level, self.participant = key
        super().__init__(key)

    def __str__(self):
        return (
            f"bulletin has no published mask for level {self.level}, "
            f"participant {self.participant}"
        )


class BudgetExceededError(RuntimeError):
    """The enumeration state space exceeds the configured budget."""

    def __init__(self, state_count, max_states):
        self.state_count = state_count
        self.max_states = max_states
        super().__init__(
            f"enumeration needs {state_count} states, budget allows {max_states}"
        )
