import pytest
from hypothesis import settings
from mpmath import mp, mpf, workprec

from eoplab.numcore import PrecisionError

# Library code manages its own working precision via workprec; raise the
# ambient precision so that test-side arithmetic on returned values does not
# round below the tolerances being asserted.
mp.prec = 400

# Property tests draw the same examples on every run, with no example database
# and no per-example deadline (run times vary on shared hosts).
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture
def double_run():
    """Reproducibility check for a numeric routine: ``check(fn, prec)`` evaluates
    fn(prec) and fn(2*prec), raises PrecisionError unless
    |fn(prec) - fn(2p)| <= 2^-(prec-guard) * max(1, |fn(2p)|), and returns fn(prec)."""
    def check(fn, prec, guard=16):
        lo, hi = fn(prec), fn(2 * prec)
        with workprec(2 * prec):
            if abs(lo - hi) > mpf(2) ** (guard - prec) * max(mpf(1), abs(hi)):
                raise PrecisionError(f"double-run mismatch at prec={prec}: "
                                     f"|lo-hi|={abs(lo - hi)}")
        return lo
    return check
