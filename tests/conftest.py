"""Hypothesis profiles for the test suite.

``ci`` raises the example count to 3000. CI selects it with
``--hypothesis-profile=ci`` for the properties marked ``deep``
(``pytest -m deep``), each of which says at its test why it gets more
examples. A property that sets its own count takes the larger of that
and the profile's.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000)
