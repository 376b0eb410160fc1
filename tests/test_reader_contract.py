"""Every file reader in ``formats`` raises each fault of its file as one
ParseError that begins with the file's path: a file that cannot be opened,
JSON text that does not parse, and nesting past the recursion limit. The
readers are found by name, so a reader added later without the wrapper that
names the file fails here."""

import pytest

from textdetkit import formats
from textdetkit.errors import ParseError

READERS = ["read_json"] + sorted(name for name in dir(formats) if name.startswith("load_"))


@pytest.mark.parametrize("content", [None, "[", "[" * 100_000 + "]" * 100_000],
                         ids=["missing", "unclosed", "deep"])
@pytest.mark.parametrize("reader", READERS)
def test_faults_name_the_file(tmp_path, reader, content):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ParseError) as info:
        getattr(formats, reader)(path)
    assert str(info.value).startswith(f"{path}: ")
