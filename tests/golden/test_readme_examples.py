"""Every command line of README.md is one of make_digests.README_EXAMPLES,
so no README edit leaves an example that the golden digests do not pin.

make_digests.readme_commands reads the lines; test_golden.py runs each
pinned example.
"""

import shlex

import make_digests as golden


def test_every_readme_command_is_a_pinned_example():
    pinned = [shlex.split(example) for example in golden.README_EXAMPLES.values()]
    for argv in golden.readme_commands():
        assert argv[1:] in pinned, shlex.join(argv)
