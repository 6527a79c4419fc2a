"""The exception systems decide on the standard library alone."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lacuna
from lacuna import certificate as ct
from lacuna import systems as sy
from lacuna.spectrum import make_spectrum


def test_systems_load_no_numeric_stack():
    # the rows and the bound's terms are built, not only imported
    probe = (
        "import sys\n"
        "from lacuna import systems as sy\n"
        "from lacuna.spectrum import make_spectrum\n"
        "a = make_spectrum(base=4, depth=5)\n"
        "p = sy.CertificateParams.from_mapping(6.66, dict.fromkeys(sy._exceptions(a), 1.0))\n"
        "print(len(list(sy._rows(a, p.b))), len(list(sy._bound_terms(a, p, a.elements))))\n"
        "print(sorted({'numpy', 'lacuna.integrals'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lacuna.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "92 1057\n[]\n"   # 92 row templates, 1057 terms


SPECTRA = [
    make_spectrum(base=base, depth=depth) for base in (4, 5, 6) for depth in (2, 3, 4)
] + [make_spectrum(lambdas=[0, 1, 4, 13, 40, 121, 364])]


def _exact(row):
    system, d, text, mult, moduli, rhs, coeff, power = row
    rhs = tuple(map(Fraction, rhs))
    return system, d, text, Fraction(mult), moduli, rhs, Fraction(coeff), power


@pytest.mark.parametrize("b", [6.66, 5.0, 7.0])
@pytest.mark.parametrize("spectrum", SPECTRA, ids=lambda s: ",".join(map(str, s.lambdas)))
def test_decide_is_plain_arithmetic(monkeypatch, spectrum, b):
    # the rows and the F table that check_systems hands to decide, every
    # number made an exact rational, reach the same decision row by row
    seen = []

    def recorded(rows, f_table):
        seen.append((rows, f_table))
        return sy.decide(rows, f_table)

    monkeypatch.setattr(ct, "decide", recorded)
    reports = ct.check_systems(spectrum, b)
    [(rows, f_table)] = seen
    exact = sy.decide(
        [_exact(row) for row in rows], {key: Fraction(f) for key, f in f_table.items()}
    )
    assert [r.system_id for r in exact] == list(sy.SYSTEMS)
    assert all(type(inst.margin) is Fraction for inst in exact[0].instances)
    for report, exact_report in zip(reports, exact, strict=True):
        assert len(report.instances) == len(exact_report.instances)
        for inst, exact_inst in zip(report.instances, exact_report.instances):
            assert exact_inst.description == inst.description
            assert exact_inst.feasible == inst.feasible, inst.description
