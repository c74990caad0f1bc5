"""The README's Library example runs, and prints the values it documents."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path


from cli_runner import invoke

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first fenced python block under the "## Library" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def command_lines() -> list[list[str]]:
    """The arguments of every `nilcone ...` command in the fenced block
    under "## Command line", comments dropped; a line that shows two
    commands as `nilcone a / nilcone b` gives both."""
    text = README.read_text()
    section = text[text.index("\n## Command line\n"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.splitlines():
        for command in line.split("#")[0].split(" / "):
            words = shlex.split(command)
            if words:
                assert words[0] == "nilcone", line
                commands.append(words[1:])
    return commands


def leading_literal(comment: str):
    """(True, value) for the longest prefix of a comment's text that is a
    Python literal, such as the `{1: 1, 5: 1}` of `# {1: 1, 5: 1}: the
    adjoint ...`; (False, None) when the text starts with prose."""
    text = comment.lstrip("#").strip()
    for end in range(len(text), 0, -1):
        try:
            return True, ast.literal_eval(text[:end])
        except (SyntaxError, ValueError):
            continue
    return False, None


def statements(source: str):
    """(statement, comment) for each top-level statement: the comment on
    its last line, or on the next line when that line is only a comment;
    None when there is neither."""
    comments = {tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    lines = source.splitlines()
    for stmt in ast.parse(source).body:
        line = stmt.end_lineno
        comment = comments.get(line)
        if comment is None and line < len(lines) and lines[line].lstrip().startswith("#"):
            comment = comments[line + 1]
        yield stmt, comment


def test_library_example_matches_its_comments():
    namespace: dict = {}
    checked = []
    for stmt, comment in statements(library_block()):
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        found, documented = leading_literal(comment or "")
        if found:
            assert value == documented, ast.unparse(stmt)
            checked.append(documented)
    assert [{1: 1, 5: 1}] in checked
    assert [1, 14, 104, 539] in checked
    assert [{0: 1}, {3: 1}, {1: 1, 5: 1}] in checked
    assert [{"d": {1: 1, 5: 1}, "t": {1: 1}}, {"d": {3: 1}, "t": {}}] in checked


def test_leading_literal_stops_at_prose():
    assert leading_literal("# {1: 1, 5: 1}: the adjoint") == (True, {1: 1, 5: 1})
    assert leading_literal("# [1, 14]") == (True, [1, 14])
    assert leading_literal("# 3") == (True, 3)
    assert leading_literal("# the whole sweep") == (False, None)


def test_command_line_examples_run(monkeypatch):
    # Every documented command exits as documented: 0, and 2 (usage) for
    # the cache commands, which have no directory to work on here.
    monkeypatch.delenv("NILCONE_CACHE_DIR", raising=False)
    commands = command_lines()
    assert len(commands) >= 10
    for args in commands:
        result = invoke(args)
        expected = 2 if args[0] == "cache" else 0
        assert result.exit_code == expected, (args, result.output)
