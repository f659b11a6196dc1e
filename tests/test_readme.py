import re
from pathlib import Path

from lafte import save_spec, save_table

from conftest import fix8_table, s2_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs(tmp_path, monkeypatch, capsys):
    # The python block after "In Python, the same machinery is importable
    # directly", run where its data.csv and population.yaml are.
    text = README.read_text(encoding="utf-8")
    after = text[text.index("In Python, the same machinery is importable directly"):]
    block = re.search(r"```python\n(.*?)```", after, re.S).group(1)
    save_table(fix8_table(), tmp_path / "data.csv")
    save_spec(s2_spec(), tmp_path / "population.yaml")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].clean
    assert capsys.readouterr().out.count("\n") == 3
