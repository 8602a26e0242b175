import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# CI runs tier-1 with --hypothesis-profile=ci: a property that does not pin its
# own max_examples (the %.17g bit-pattern sweep) then checks 20 000 inputs
settings.register_profile("ci", max_examples=20_000, derandomize=True, deadline=None)
