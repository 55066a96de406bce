"""The benchmark's four workloads run on this tree.

The first ITEMS inputs of each workload's stream go through its `run`,
with the untraced public calls, and its `check`, which must report no
problem.  So a change that renames or breaks a name, a signature or a
result that perfbench/ uses fails here, in Tier-1, and not first in a
benchmark run.
"""

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import common  # noqa: E402
import workloads  # noqa: E402

ITEMS = 50


@pytest.mark.parametrize("name", common.WORKLOAD_NAMES)
def test_first_items_of_each_workload_pass_their_checks(name, tmp_path):
    work = workloads.make(name, tmp_path)
    for index, item in enumerate(itertools.islice(work.stream(common.DEFAULT_SEED), ITEMS)):
        problems, _, _ = work.check(item, work.run(work.functions, item).output)
        assert problems == [], (name, index, problems)
