"""Hypothesis profiles for the test suite.

``ci`` raises the example count; CI selects it with
``--hypothesis-profile=ci`` for the CLI table reader's equivalence with
argparse, whose handling of ``--`` and of dash-prefixed values differs
between Python versions; for the whole-window kernel against the point
rule, the correctness gate for the kernel's integer arithmetic, and for
the passes of windows drawn in every shape; for
convolutions, which read an inverse right factor by column, against the
defining sum; and for the rows and columns of inverses against the
recursion, and the conjecture inverse-pair check, which decides zeta
powers from the powers, against the defining pairwise loop, and for the
Mobius column line the witness check reads whole, which must hold
exactly ideal(y) and every interval a walk reached; for the
multisets window and grid against their direct constructions, and the
interval of every grid family against a window filtered by the order
test; and for the pair search's sparse rows against the dense build, the
primitivity of eliminated rows over the Gaussian integers, the
forward pass and back substitution against eager Gauss-Jordan, and the
full-rank certificate and the one-solve kernel candidate against the
kernel basis; and for
element parsing against the seed package, reading a function document
against the constructor, and wrong-shaped or deeply nested documents
through the CLI, which must end in an error line.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=3000)
