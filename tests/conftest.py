from hypothesis import settings

# Derandomized so the suite is deterministic; no deadline because example
# timings on a loaded machine say nothing about correctness.
settings.register_profile("fiszkit", derandomize=True, deadline=None)
settings.load_profile("fiszkit")
