"""Hypothesis settings profiles for every test directory.

`mutants` has no shrink phase. A mutation gate needs a listed test to fail,
not the smallest example that fails it, and shrinking takes most of a failing
property's time. Only `--hypothesis-profile=mutants` loads it, as
`tools/mutants.py` passes, so tier-1 and `generative` keep their settings.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
