"""The lean INI reader gives what configparser gives, or gives up.

``config._lean_sections`` reads a scenario file without configparser
when the file stays inside a strict subset. Two things hold it to the
fallback: over generated texts it returns exactly configparser's raw
sections or None, and every bundled config and both benchmark fleets
load to the same ``Scenario`` on either path.
"""

import configparser
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quell import config
from quell.config import load_scenario

BENCH = Path(__file__).parent.parent / "bench"
CONFIGS = Path(__file__).parent.parent / "configs"

# Characters that str.splitlines breaks a line at and io.StringIO(newline=None) does not.
SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def configparser_sections(text: str) -> list[tuple[str, list[tuple[str, str]]]] | None:
    """What the loader's configparser reads from ``text``, in order, or None if it raises."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_file(io.StringIO(text, newline=None).readlines())
    except configparser.Error:
        return None
    return [(name, parser.items(name, raw=True)) for name in parser.sections()]


def lean_sections(text: str) -> list[tuple[str, list[tuple[str, str]]]] | None:
    sections = config._lean_sections(text)
    if sections is None:
        return None
    return [(name, list(items.items())) for name, items in sections.items()]


# -- generated texts ---------------------------------------------------------

words = st.text(
    alphabet=st.sampled_from("aAbBzZ09_.-[]= :éİẞ\t" + SPLITLINES_ONLY), max_size=6
)
names = st.sampled_from(["scenario", "process.a", "Process.A", "detector.d"]) | (
    words.filter(str.strip)
)
keys = st.sampled_from(["epochs", "Epochs", "EPOCHS", "base_rate", "Base_Rate", "seed"]) | (
    words.filter(str.strip)
)
values = st.sampled_from(["", "5", "2.0", "a b", "x=y", "host:port", "[v]"]) | words
blanks = st.sampled_from(["", " ", "\t", " \t "])
marks = st.sampled_from("#;")
# What may end a header or a key line: nothing, or an inline comment, its
# prefix after whitespace and a % in it harmless. A key line may instead
# end with one prefix that is not after whitespace and so stays in the value.
comment_tails = st.sampled_from(["", " # note", "\t; 1% of cpu", " ;", "\x85#x"])
tails = comment_tails | st.sampled_from([";x", "#y", "5#"])

subset_lines = st.one_of(
    blanks,
    st.builds(lambda mark, body: mark + body, marks, words | st.just(" 100% sure; #2")),
    st.builds(lambda name, pad, tail: f"[{name}]{pad}{tail}", names, blanks, comment_tails),
    st.builds(
        lambda key, left, right, value, pad, tail: f"{key}{left}={right}{value}{pad}{tail}",
        keys, blanks, blanks, values, blanks, tails,
    ),
)
# Each is a feature the lean reader must give up on, or a line configparser rejects.
excluded_lines = st.one_of(
    st.just("[DEFAULT]"),
    st.builds(lambda name: f"[{name}", names),
    st.just("[]"),
    st.builds(lambda pad, key: f"{pad}{key} = 1", st.sampled_from(" \t\f"), keys),
    st.builds(lambda pad, mark: f"{pad}{mark} note", st.sampled_from(" \t"), st.sampled_from("#;")),
    keys,
    st.builds(lambda value: f" = {value}", values),
    st.builds(lambda value: f"= {value}", values),
    st.builds(lambda key, value: f"{key}:{value}", keys, values),
    st.builds(lambda key, value: f"a:{key} = {value}", keys, values),
    st.builds(lambda key, first, second: f"{key} = x{first}y {second}z", keys, marks, marks),
    st.builds(lambda key, first, second: f"{key} = v {first} a {second} b", keys, marks, marks),
    st.just("a = x;y ;z #w"),
    st.sampled_from(["k = %(epochs)s", "k = 50%%", "k = 5%", "k = 5% ; note", "[odd%]", "[odd%] # x"]),
    st.builds(lambda key: f"\ufeff{key} = 1", keys),
)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def spelled(draw, lines: list[str]) -> str:
    """``lines`` joined by any mix of line ends, the last one perhaps left off."""
    text = "".join(line + draw(line_ends) for line in lines)
    return text.rstrip("\r\n") if lines and draw(st.booleans()) else text


@st.composite
def ini_texts(draw) -> str:
    """Random lines, mostly inside the subset: a few, then sections of a header and a few."""
    lines = st.one_of(subset_lines, subset_lines, excluded_lines)
    body = draw(st.lists(lines, max_size=1))
    for name in draw(st.lists(names, max_size=4, unique=draw(st.booleans()))):
        body.append(f"[{name}]")
        body.extend(draw(st.lists(lines, max_size=5)))
    return draw(st.sampled_from(["", "", "", "\ufeff"])) + draw(spelled(body))


def _subset_key(key: str) -> str:
    key = key.replace(":", "").replace("=", "")
    return key if key[:1].strip() and key[0] != "[" else "k" + key


@st.composite
def subset_lists(draw) -> list[str]:
    """Lines inside the subset: each section once, each key once per section after lowercasing."""
    comments = blanks | st.sampled_from(["# note", "; note", "# 100% sure; #2"])
    lines = draw(st.lists(comments, max_size=1))
    for name in draw(st.lists(names.filter(lambda n: n != "DEFAULT"), unique=True, max_size=4)):
        lines.append(f"[{name}]{draw(comment_tails)}")
        section_keys = st.lists(
            keys.map(_subset_key), unique_by=lambda k: k.rstrip().lower(), max_size=4
        )
        for key in draw(section_keys):
            lines.append(
                f"{key}{draw(blanks)}={draw(blanks)}{draw(values)}{draw(blanks)}{draw(tails)}"
            )
            lines.extend(draw(st.lists(comments, max_size=2)))
    return lines


@st.composite
def one_fault_texts(draw) -> str:
    """A text inside the subset but for one line: an excluded one, or a repeated key or header."""
    lines = draw(subset_lists())
    keyed = [i for i, line in enumerate(lines) if "=" in line and line[0] not in "[#;"]
    headers = [i for i, line in enumerate(lines) if line.startswith("[")]
    fault = draw(st.sampled_from(["excluded"] + ["key"] * bool(keyed) + ["header"] * bool(headers)))
    if fault == "key":  # the same key, its case swapped, in the same section
        at = draw(st.sampled_from(keyed))
        lines.insert(at + 1, lines[at].swapcase())
    elif fault == "header":
        at = draw(st.sampled_from(headers))
        lines.insert(draw(st.integers(at + 1, len(lines))), lines[at])
    else:
        lines.insert(draw(st.integers(0, len(lines))), draw(excluded_lines))
    return draw(spelled(lines))


@settings(max_examples=1000)
@given(text=ini_texts() | one_fault_texts())
def test_lean_reader_agrees_with_configparser_or_gives_up(text):
    lean = lean_sections(text)
    if lean is not None:
        assert lean == configparser_sections(text)


@settings(max_examples=200)
@given(lines=subset_lists())
def test_a_text_inside_the_subset_is_read_lean(lines):
    for text in ("".join(line + end for line in lines) for end in ("\n", "\r\n", "\r")):
        lean = lean_sections(text)
        assert lean is not None
        assert lean == configparser_sections(text)


@pytest.mark.parametrize(
    "text",
    [
        "[s]\na = x;y ;z #w\n",
        "[s]\nk = 1 ; a # b\n",
        "[s]\nk = 1;x ;y\n",
        "[s] ; a ; b\nk = 1\n",
        "[s]\nk = 50%%\n",
        "[s]\nk = 5% ; note\n",
        "[s%] # note\nk = 1\n",
        "[DEFAULT]\nk = 1\n[s]\n",
        "[s]\n[s]\n",
        "[s]trailing\n",
        "[s]\n  k = 1\n",
        "[s]\nk = 1\n  more\n",
        "[s]\nk\n",
        "[s]\n= 1\n",
        "[s]\nk: 1\n",
        "[s]\na:b = 1\n",
        "[s]\nK = 1\nk = 2\n",
        "k = 1\n[s]\n",
        "\ufeff[s]\nk = 1\n",
    ],
)
def test_each_excluded_feature_gives_up(text):
    assert config._lean_sections(text) is None


@pytest.mark.parametrize(
    "text, expected",
    [
        ("[s]\nk = 1 # note\n", {"s": {"k": "1"}}),
        ("[s]\nk = 1;x\n", {"s": {"k": "1;x"}}),
        ("[s]\nk = 1\t;x\n", {"s": {"k": "1"}}),
        ("[s]\nk =;x\n", {"s": {"k": ";x"}}),
        ("[s]\nk = ;x\n", {"s": {"k": ""}}),
        ("[s]\nk#1 = 2\n", {"s": {"k#1": "2"}}),
        ("[s] ; the header's note\nk = 1\n", {"s": {"k": "1"}}),
        ("# 100% sure; #2\n[s]\nk = 1\n", {"s": {"k": "1"}}),
        ("[s]\nfloor_cpu = 0.01 ; never starve below 1% CPU\n", {"s": {"floor_cpu": "0.01"}}),
    ],
)
def test_each_admitted_comment_is_read_as_configparser_reads_it(text, expected):
    assert config._lean_sections(text) == expected
    assert lean_sections(text) == configparser_sections(text)


def test_line_ends_split_as_universal_newlines():
    text = "[s]\r\na = 1\rb = 2\nc = x\v\fy\x1c\x85\u2028z\u2029w"
    expected = {"s": {"a": "1", "b": "2", "c": "x\v\fy\x1c\x85\u2028z\u2029w"}}
    assert config._lean_sections(text) == expected
    assert lean_sections(text) == configparser_sections(text)


# -- whole scenarios on both paths -----------------------------------------


@pytest.fixture(scope="module")
def fleets(tmp_path_factory) -> dict[str, Path]:
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        import fleet

        inis = {}
        for seed in (1, 2):
            root = tmp_path_factory.mktemp(f"fleets{seed}")
            inis[f"sim_fleet seed {seed}"] = fleet.write_sim_fleet(root / "sim", seed)
            inis[f"supervise_fleet seed {seed}"] = fleet.write_supervise_fleet(root / "sup", seed)
    return inis


def full_trace(scenario, path: Path) -> Path:
    """A trace covering every process of ``scenario`` over its whole run."""
    rows = [
        f"{epoch},{spec.process_id},{'malicious' if epoch % 3 == 0 else 'benign'}\n"
        for spec in scenario.processes
        for epoch in range(scenario.epochs + 1)
    ]
    path.write_text("epoch,process,verdict\n" + "".join(rows), encoding="utf-8")
    return path


def both_paths(monkeypatch, ini: Path, **overrides) -> tuple[str, str]:
    """``repr`` of the scenario ``ini`` loads to as it is read, and with the lean reader off."""
    as_read = repr(load_scenario(ini, **overrides))
    with monkeypatch.context() as patch:
        patch.setattr(config, "_lean_sections", lambda text: None)
        fallback = repr(load_scenario(ini, **overrides))
    return as_read, fallback


BUNDLED = sorted(path.name for path in CONFIGS.glob("*.ini"))
FLEETS = [f"{name} seed {seed}" for seed in (1, 2) for name in ("sim_fleet", "supervise_fleet")]


@pytest.mark.parametrize("name", BUNDLED + FLEETS)
def test_scenario_is_the_same_on_both_paths(name, fleets, monkeypatch, tmp_path):
    ini = fleets[name] if name in fleets else CONFIGS / name
    # Else both sides would be the fallback.
    assert config._lean_sections(ini.read_text(encoding="utf-8")) is not None
    trace = full_trace(load_scenario(ini), tmp_path / "trace.csv")
    for overrides in ({}, {"seed_override": 7}, {"trace_override": trace}):
        as_read, fallback = both_paths(monkeypatch, ini, **overrides)
        assert as_read == fallback, overrides
