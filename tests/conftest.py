import warnings

from hypothesis import HealthCheck, settings

# Hypothesis reports a failing example through hypothesis.extra._patching,
# whose import of libcst raises a DeprecationWarning that filterwarnings =
# error would turn into an INTERNALERROR, ending the run without naming the
# test. Importing it here, once, with that warning ignored, keeps warnings
# errors everywhere else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")
