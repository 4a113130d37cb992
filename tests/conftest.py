"""Hypothesis profiles for the test suite.

``ci`` raises the example count; CI selects it with
``--hypothesis-profile=ci`` for the CLI table reader's equivalence with
argparse, whose handling of ``--`` and of dash-prefixed values differs
between Python versions; for the whole-window kernel against the point
rule, the correctness gate for the kernel's integer arithmetic; and for
convolutions, which read an inverse right factor by column, against the
defining sum.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000)
