"""Shared error types."""


class BudgetExceededError(RuntimeError):
    """A bounded search or enumeration ran past its configured budget.

    Carries whatever partial results were computed in ``partial`` so batch
    front ends can flag and emit them instead of discarding work, the work
    units consumed when it stopped in ``work``, and the index of the window
    it stopped on in ``index`` (None where the search has no windows).
    """

    def __init__(self, message: str, partial=None, work=None, index=None):
        super().__init__(message)
        self.partial = partial
        self.work = work
        self.index = index
