"""Every command of ``tests/golden/digests.txt`` still prints what it printed.

The list and its regeneration script are in ``tests/golden_bytes.py``.
"""

import golden_bytes


def test_every_command_keeps_its_digest(tmp_path):
    pinned = golden_bytes.read_digests()
    assert len(pinned) > 4000
    golden_bytes.write_tablets(tmp_path)
    for command, want in pinned.items():
        got = golden_bytes.digest(command, tmp_path, want.startswith("exit="))
        assert got == want, f"first command whose output moved: {command}"


def test_the_list_is_the_generated_one():
    # a command added to or dropped from the generator is regenerated too
    assert list(golden_bytes.read_digests()) == list(golden_bytes.commands())


def test_replay_masks_the_paths(tmp_path):
    golden_bytes.write_tablets(tmp_path)
    code, out, err = golden_bytes.replay("run {tmp}/missing.tab", tmp_path)
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: '{tmp}/missing.tab'\n"
    code, out, err = golden_bytes.replay("repl < session", tmp_path)
    assert code == 0 and out.startswith("1:3\n13:30\n1\n") and "6" not in out.split()
