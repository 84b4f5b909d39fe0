import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without Hypothesis
    pass
else:
    # The same examples on every run, no example database written to disk,
    # and no per-example deadline (shared CI machines stall).
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
    settings.load_profile("tier1")
