"""Settings shared by the test modules.

Every `hypothesis` property runs deterministic examples, so that a failure
reproduces on every run: no deadline, derandomized draws and no example
database.  A module that needs a different example count overrides only
`max_examples`.
"""

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    pass
else:
    settings.register_profile(
        "deterministic", deadline=None, derandomize=True, database=None
    )
    settings.load_profile("deterministic")
