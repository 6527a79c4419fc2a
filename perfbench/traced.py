"""Run one ``lacuna.cli`` command with a span around each public layer call.

Usage: python3 perfbench/traced.py SPANS.jsonl [cli arguments ...]

The program itself carries no tracing. This script wraps the public
functions listed in ``TRACED`` from outside: each wrapper is bound in
every ``lacuna.*`` module whose attribute is the original object, so a
call made through a ``from .integrals import i_direct`` binding is traced
like one made through ``lacuna.integrals``. Spans (name, start, end,
parent, key) stay in memory and are written as JSON lines when the
command returns. The exit code and stdout are those of the command.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

TRACED = {
    "bessel": ("besselj", "besselj_batch", "j1_zeros"),
    "integrals": ("build_table", "i_tilde", "i_direct", "f_ratio", "sweep_diagonal"),
    "spectrum": ("classify_brute_force", "exceptions_from_equations", "has_unique_pair_sums"),
    "certificate": (
        "check_systems",
        "derive_params",
        "compute_S_exact",
        "compute_S_upper_bound",
        "verify_theorem",
        "random_vector",
    ),
    "cli": ("main",),
}


def _sextet_key(index, **_kw):
    return sorted(abs(int(n)) for n in index)


def _spectrum_key(spectrum, *_a, **_kw):
    return list(spectrum.elements)


# Calls whose arguments are recorded, for the distinct-input ratios.
KEYS = {
    "integrals.i_direct": _sextet_key,
    "spectrum.classify_brute_force": _spectrum_key,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        key_of = KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            key = key_of(*args, **kwargs) if key_of else None
            span = [name, time.perf_counter(), None, parent, key]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"lacuna.{module_name}")
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "lacuna" or mod_name.startswith("lacuna."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, key in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent}
                if key is not None:
                    row["key"] = key
                out.write(json.dumps(row) + "\n")


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import lacuna.cli

    tracer = Tracer()
    tracer.install()
    try:
        return lacuna.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
