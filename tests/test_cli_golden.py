"""The command line's output bytes, pinned by SHA-256.

Each case runs ``main`` in-process and hashes what it writes to stdout, with
the wall-clock column of ``simulate`` cut. A refactor that should not change
behaviour must leave every digest as it is. The digests hold for the float
formatting and libm of CPython 3.11 with numpy 2.4 on x86-64; a platform with
different rounding in ``log`` may need them regenerated from the digests a
failing case reports.
"""

import hashlib
import json

import pytest

from poolsim.cli import main

TWO_CLASS = {
    "schema": 1,
    "classes": [
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 20.0}},
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 30.0}},
    ],
    "mu": 1.0,
    "rho": 9.75,
}

#: Three classes, a service rate other than 1, and SLTA's beta.
THREE_CLASS = {
    "schema": 1,
    "classes": [
        {"fraction": 0.5, "utility": {"kind": "log_quality", "r": 20.0}},
        {"fraction": 0.25, "utility": {"kind": "capped_linear", "slope": 2.0, "cap": 6}},
        {"fraction": 0.25, "utility": {"kind": "table", "values": [0.0, 3.0, 5.0, 6.0, 6.5]}},
    ],
    "mu": 0.3,
    "rho": 9.75,
    "beta": 0.4,
}

#: name -> (config or None, arguments); the command is the name up to "_".
CASES = {
    "bound": (TWO_CLASS, []),
    "bound_rho": (TWO_CLASS, ["--rho", "10"]),
    "assign": (THREE_CLASS, []),
    "rank": (TWO_CLASS, ["--count", "60"]),
    "fluid_reflection": (TWO_CLASS, ["--T", "1", "--verify-reflection"]),
    "fluid_qstar": (TWO_CLASS, ["--init", "qstar", "--T", "0.5"]),
    "simulate": (
        THREE_CLASS,
        ["--policy", "jlmu", "--policy", "slta", "--policy", "random", "--policy", "fixed:2",
         "--n", "40", "--rho", "9.75", "--rho", "6", "--T", "5", "--seed", "3",
         "--init", "optimal"],
    ),
    # A sweep over all four axes pins the row order: n, then rho, seed and rep.
    "simulate_sweep": (
        THREE_CLASS,
        ["--policy", "slta", "--policy", "random", "--n", "4", "--n", "8", "--rho", "3",
         "--rho", "5", "--seed", "1", "--seed", "9", "--reps", "2", "--T", "4",
         "--warmup", "0.5"],
    ),
    "table1": (None, ["--scale", "8", "16", "--reps", "3", "--T", "5", "--seed", "2"]),
    "suboptimal": (None, ["--T", "200", "--reps", "5", "--seed", "4"]),
}

#: SHA-256 of each case's output.
DIGESTS = {
    "bound": "a0f14268d40de3a2bd70379b4cf4449bf0da601bbe00c9d435e367a9bdc859ae",
    "bound_rho": "6a672c5f0431e2e7088bc265a8a11a4f864617fcc014157f32814afa08f9b2c0",
    "assign": "1caec1fbca7075c96c5304e74077fe092a879bf557166d8305e28b013a593576",
    "rank": "fa9110b2241c6e228ddf43ed0ae79f89ebd3df526523bfbe1d61fd7efe495110",
    "fluid_reflection": "588ba9f7243c54b6f59c175e502ffe38e3f54d1c18cde97fa23b924a13c399d1",
    "fluid_qstar": "c078ece0e706ac83f088009b8a599fd09fd4471a9db96c00b819b9dd2ff4abc9",
    "simulate": "ddbb48257274828f2e9e55078151c1e15609b330331195b027088a88f614359c",
    "simulate_sweep": "9bfe31dc43b7ddba4d632963bbd9c5e4290700c9d8506eaa34e0481b81b6b1ae",
    "table1": "4a9a0871d1674fa4e66b9abd7c97f94a07f7b4797d3d05b710a0b365dd1cdbda",
    "suboptimal": "1272612404bc89eee76065ed705fc3cc3a512de501602b124ccf0432982358f2",
}


def _output(name: str, tmp_path, capsys) -> str:
    doc, args = CASES[name]
    command = name.split("_")[0]
    if doc is not None:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
        args = ["--config", str(config), *args]
    capsys.readouterr()
    assert main([command, *args]) == 0
    text = capsys.readouterr().out
    if command == "simulate":
        lines = text.splitlines(keepends=True)
        assert lines[0].rstrip("\n").endswith(",wall_ms")
        text = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_are_pinned(name, tmp_path, capsys):
    digest = hashlib.sha256(_output(name, tmp_path, capsys).encode()).hexdigest()
    assert digest == DIGESTS[name]

