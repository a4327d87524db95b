"""One hypothesis profile for every property test: fixed examples (no random
seed, no example database) and no deadline, so a run is reproducible and a
slow machine cannot fail it.  A test sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")
