from hypothesis import settings
from mpmath import mp

# Library code manages its own working precision via workprec; raise the
# ambient precision so that test-side arithmetic on returned values does not
# round below the tolerances being asserted.
mp.prec = 400

# Property tests draw the same examples on every run, with no example database
# and no per-example deadline (run times vary on shared hosts).
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")
