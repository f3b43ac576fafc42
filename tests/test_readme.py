"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

from rho_radii.radii import DEFAULT_WIDTH

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments():
    # w_rho(a, 2).mid is the numerical radius 1/2 of the nilpotent jump to
    # within the default width; the two verdict fields print as written
    match = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), str(README), "exec"), {})
    mid, decision, exactness = out.getvalue().splitlines()
    assert abs(float(mid) - 0.5) <= DEFAULT_WIDTH, mid
    assert (decision, exactness) == ("In", "Certified")
