"""The traced benchmark in perfbench/ wraps package names from outside; this
checks that every operation it wraps still resolves and that every by-name
import it must also wrap is still there."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import spans  # noqa: E402


def test_tracer_resolves_every_op_and_required_site():
    tracer = spans.Tracer(spans.import_package())
    try:
        missing = [site for site in spans.REQUIRED_SITES if site not in tracer.sites]
        assert not missing
    finally:
        tracer.close()
