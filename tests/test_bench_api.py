"""Every package name the benchmark scripts call exists.

``perfbench/*.py`` call ``tt.<name>`` on the imported ``traintracks``
package and ``corpus.<name>`` on ``traintracks.corpus``; a deleted or
renamed public name would only show up as a failed benchmark run, which
the tier-1 suite does not execute.  The scripts are read as text, never
imported or run.
"""

import re
from pathlib import Path

import pytest

import traintracks
from traintracks import corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _names(prefix, skip=()):
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for name in re.findall(rf"\b{prefix}\.([A-Za-z_]\w*)", path.read_text()):
            if (path.name, name) not in skip:
                found.add(name)
    return sorted(found)


# In tracing.py ``corpus`` is a LeafCorpus argument, not the module.
TT_NAMES = _names("tt")
CORPUS_NAMES = _names("corpus", skip={("tracing.py", "k")})


def test_benchmark_names_found():
    assert {"analyze", "rose_map", "analyze_train_track"} <= set(TT_NAMES)
    assert {"get", "input_text", "REGISTRY"} <= set(CORPUS_NAMES)


@pytest.mark.parametrize("name", TT_NAMES)
def test_package_name_resolves(name):
    assert hasattr(traintracks, name)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_name_resolves(name):
    assert hasattr(corpus, name)
