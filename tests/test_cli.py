import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from valdiv import laurent, pipeline
from valdiv.cli import _text_lines, main
from valdiv.errors import DegenerateDecompositionError
from valdiv.grammar import parse_algebra, print_algebra
from valdiv.pipeline import run_example, selftest, sk1_witness_batch
from valdiv.profiles import profile_from_tower
from valdiv.sk1 import CommutatorWitness, compute_zeta, verdict
from valdiv.symbol import AlgebraElement

from conftest import make_quaternion_f5


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cd_command(capsys):
    code, out = _run(capsys, "cd", "--profile", "decl(cd2=1)((x))((y))", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["cd_q"] == "3"
    assert payload["r_q"] == 2


def test_cd_undefined_is_input_error(capsys):
    code, out = _run(capsys, "cd", "--profile", "F5((t))", "--q", "5")
    assert code == 2
    assert "error" in json.loads(out)


def test_parse_error_exit_code(capsys):
    code, out = _run(capsys, "classify", "--algebra", "symbol(n=2 omega=-1) over F5((t))")
    assert code == 2
    payload = json.loads(out)
    assert "error" in payload


def test_construction_failure_exit_code(capsys):
    # omega = 3 has order 6 mod 7, not 3: a well-formed but invalid algebra
    code, out = _run(
        capsys,
        "classify",
        "--algebra",
        "symbol(n=3, omega=3, a=x, b=y) over F7((x))((y))",
    )
    assert code == 1
    assert "error" in json.loads(out)


def test_omega_auto_over_q_past_order_two_is_a_construction_failure():
    """Q holds no root of unity of order 3 or more, so omega=auto is refused
    as over an F_p without one (exit 1, a JSON error naming the order),
    even where every warning is an error: no extension of Q is built."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    algebra = "symbol(n=3, omega=auto, a=x, b=y) over Q((x))((y))"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "valdiv.cli", "classify", "--algebra", algebra],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert "Traceback" not in done.stderr
    assert done.returncode == 1
    assert json.loads(done.stdout)["error"] == "Q has no element of order 3; rebuild over an extension"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--algebra",
         "symbol(n=2, omega=auto, a=t, b=3) over F3317044064679887385962123((t))"],
        ["cd", "--profile", "F5((t))", "--q", "3317044064679887385962123"],
    ],
)
def test_a_probable_prime_above_the_miller_rabin_bound_is_an_input_error(argv):
    """Strong probable-prime tests decide primality only below
    3317044064679887385961981; above it the command refuses the number
    (exit 2, a JSON error) instead of trial-dividing up to its square root."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "valdiv.cli", *argv], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 2
    assert "error" in json.loads(done.stdout)


_UNDECIDED = "3317044064679887385962123"  # a probable prime above the Miller-Rabin bound


@pytest.mark.parametrize(
    "argv, where",
    [
        (["cd", "--profile", "F5((t))", "--q", _UNDECIDED], "argument --q: "),
        (["classify", "--algebra",
          f"symbol(n=2, omega=auto, a=t, b=3) over F{_UNDECIDED}((t))"], "(line 1, col 39)"),
        (["cd", "--profile", f"Qp(p={_UNDECIDED})((t))", "--q", "3"], "(line 1, col 5)"),
        (["cd", "--profile", f"decl(cd{_UNDECIDED}=1)", "--q", "3"], "(line 1, col 5)"),
    ],
)
def test_an_undecided_primality_keeps_its_reason_and_its_position(capsys, argv, where):
    """The refusal names the number and why it is refused: as the --q
    argument it says so, and in a description it points at the number."""
    error = _assert_input_error(capsys, *argv)
    assert f"cannot decide whether {_UNDECIDED} is prime" in error
    assert where in error
    assert "_prime" not in error


def test_classify_command(capsys):
    code, out = _run(
        capsys,
        "classify",
        "--algebra",
        "symbol(n=3, omega=2, a=x, b=y) over F7((x))((y))",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 9
    assert payload["flags"]["totally_ramified"] is True
    assert payload["flags"]["tame"] is True
    assert payload["invariant_factors"] == [3, 3]


def test_classify_omega_auto_over_a_field_above_ten_thousand_elements(capsys):
    code, out = _run(
        capsys,
        "classify",
        "--algebra",
        "symbol(n=2, omega=auto, a=t, b=3) over F10007((t))",
    )
    assert code == 0
    assert json.loads(out)["algebra"] == "symbol(n=2, omega=10006, a=t, b=3) over F10007((t))"


def test_witness_command(capsys):
    code, out = _run(
        capsys,
        "sk1-witness",
        "--algebra",
        "symbol(n=2, omega=-1, a=2, b=t) over F5((t))",
        "--count",
        "4",
        "--seed",
        "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["witnesses"]) == 4
    assert all(w["verified"] for w in payload["witnesses"])


def test_witness_command_cubic_algebra(capsys):
    code, out = _run(
        capsys,
        "sk1-witness",
        "--algebra",
        "symbol(n=3, omega=2, a=x, b=y) over F7((x))((y))",
        "--count",
        "3",
        "--seed",
        "2",
        "--precision",
        "8",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(w["verified"] for w in payload["witnesses"])


def test_verdict_command(capsys):
    code, out = _run(
        capsys,
        "verdict",
        "--algebra",
        "symbol(n=3, omega=2, a=x, b=y) over F7((x))((y))",
        "--q",
        "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["conclusion"] == "trivial"
    assert payload["verdict"]["case"] == "rank_one_to_three"
    assert payload["zeta"] == 1


def test_verdict_with_profile_override(capsys):
    code, out = _run(
        capsys,
        "verdict",
        "--algebra",
        "symbol(n=2, omega=-1, a=2, b=t) over F5((t))",
        "--profile",
        "decl(cd2=2)((t))",
        "--q",
        "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["conclusion"] == "trivial"
    assert payload["verdict"]["case"] == "rank_one_to_three"


def test_example_command_text_format(capsys):
    code, out = _run(capsys, "example", "1", "--format", "text")
    assert code == 0
    assert "r_q: 1" in out
    assert "<= 3" in out


def test_example_outputs_are_seed_stable(capsys):
    a = run_example(2, precision=16, seed=5)
    b = run_example(2, precision=16, seed=5)
    assert a == b
    c = run_example(3, precision=16, seed=5)
    d = run_example(3, precision=16, seed=5)
    assert c == d


def test_selftest_command(capsys):
    code, out = _run(
        capsys,
        "selftest",
        "--sizes",
        "lattice=20,fields=20,series=30,hensel=8,twisted=20,norms=6,valuation=10,graded=6,witnesses=3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(s["failures"] == 0 for s in payload["suites"])


def test_selftest_empty_sizes_vacuous_pass():
    summary = selftest(
        seed=1,
        sizes={k: 0 for k in (
            "lattice", "fields", "series", "hensel", "twisted",
            "norms", "valuation", "graded", "witnesses", "verdicts",
        )},
    )
    # verdicts suite runs fixed checks regardless; everything else vacuous
    assert all(
        s["failures"] == 0 for s in summary["suites"] if s["suite"] != "verdict_rules"
    )


def test_selftest_skips_every_suite_sized_zero(monkeypatch):
    def refuse(*args):
        raise AssertionError("a suite sized 0 ran")

    monkeypatch.setattr(AlgebraElement, "__mul__", refuse)
    monkeypatch.setattr(laurent, "hensel_sqrt", refuse)
    monkeypatch.setattr(pipeline, "verdict", refuse)
    keys = ("lattice", "fields", "series", "hensel", "twisted",
            "norms", "valuation", "graded", "witnesses", "verdicts")
    summary = selftest(seed=1, sizes={k: 0 for k in keys})
    assert summary["ok"] is True
    assert [(s["cases"], s["failures"]) for s in summary["suites"]] == [(0, 0)] * len(keys)


def test_selftest_detects_injected_mutant(monkeypatch):
    # the norm suite runs with a product that adds i to every result
    product, norm_suite = AlgebraElement.__mul__, pipeline._suite_norms

    def broken_norm_suite(rng, cases):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                AlgebraElement, "__mul__", lambda x, y: product(x, y) + x.algebra.i()
            )
            return norm_suite(rng, cases)

    monkeypatch.setattr(pipeline, "_suite_norms", broken_norm_suite)
    summary = selftest(seed=3, sizes={"norms": 10})
    by_name = {s["suite"]: s for s in summary["suites"]}
    assert by_name["norm_multiplicativity"]["failures"] > 0
    assert summary["ok"] is False


def test_witness_batch_determinism():
    alg = make_quaternion_f5()
    a = sk1_witness_batch(alg, count=5, seed=11)
    b = sk1_witness_batch(alg, count=5, seed=11)
    assert a == b
    assert all(w["verified"] for w in a)


def test_witness_batch_verifies_each_witness_once(monkeypatch):
    calls = []
    verify = CommutatorWitness.verify

    def spy(witness):
        calls.append(witness)
        return verify(witness)

    monkeypatch.setattr(CommutatorWitness, "verify", spy)
    batch = sk1_witness_batch(make_quaternion_f5(), count=4, seed=11)
    # the identity needs no check; every other witness is verified once
    witnesses = [entry["witness"] for entry in batch if entry["witness"]]
    assert witnesses and all(entry["verified"] for entry in batch)
    assert len(calls) == len(witnesses)


def test_selftest_verifies_each_witness_once(monkeypatch):
    """The witness suite counts the unverified entries of one batch, whose
    verification of each witness, the identity's included, is the only one."""
    calls, batches = [], []
    verify, batch = CommutatorWitness.verify, pipeline.sk1_witness_batch

    def spy(witness):
        calls.append(witness)
        return verify(witness)

    def kept(*args, **kwargs):
        batches.append(batch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(CommutatorWitness, "verify", spy)
    monkeypatch.setattr(pipeline, "sk1_witness_batch", kept)
    assert pipeline._suite_witnesses(random.Random(0), 4) == 0
    assert len(batches) == 1 and len(calls) == len(batches[0]) == 4


def test_a_refused_decomposition_is_an_unverified_entry(monkeypatch, capsys):
    """A refusal is recorded in its entry; sk1-witness then exits 1 with its
    JSON report, and the selftest suite counts each refusal as a failure."""

    def refuse(cert, rng):
        raise DegenerateDecompositionError("refused")

    monkeypatch.setattr(pipeline, "decompose_norm_one", refuse)
    batch = sk1_witness_batch(make_quaternion_f5(), count=2, seed=11)
    assert [(e["witness"], e["verified"], e["error"]) for e in batch] == [
        (None, False, "refused")
    ] * 2
    code, out = _run(capsys, "sk1-witness", "--algebra", _QUATERNION, "--count", "2", "--seed", "11")
    assert code == 1
    assert json.loads(out)["witnesses"] == batch
    assert pipeline._suite_witnesses(random.Random(0), 3) == 3


def _assert_input_error(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert "error" in payload
    return payload["error"]


def test_verdict_non_prime_q_is_input_error(capsys):
    _assert_input_error(
        capsys, "verdict", "--algebra",
        "symbol(n=3, omega=auto, a=x, b=y) over F7((x))((y))", "--q", "4",
    )


def test_verdict_profile_of_another_height_is_input_error(capsys):
    error = _assert_input_error(
        capsys, "verdict", "--algebra",
        "symbol(n=4, omega=auto, a=x, b=y) over F5((x))((y))",
        "--profile", "decl(cd2=3)", "--q", "2",
    )
    assert "0 Laurent layers" in error and "tower has 2" in error


def test_cd_non_prime_q_is_input_error(capsys):
    _assert_input_error(capsys, "cd", "--profile", "decl(cd2=1)((x))", "--q", "4")


@pytest.mark.parametrize(
    "command",
    [
        ["cd", "--profile", "Qp(p=4)((t))", "--q", "3"],
        ["verdict", "--profile", "decl(cd3=-1)((x))((y))((z))((w))", "--q", "3", "--algebra",
         "symbol(n=9, omega=auto, a=x, b=y) over F19((x))((y))((z))((w))"],
    ],
)
def test_invalid_profile_parameter_is_input_error(capsys, command):
    assert "(line 1, col" in _assert_input_error(capsys, *command)


def test_zero_precision_is_input_error(capsys):
    _assert_input_error(
        capsys, "classify", "--precision", "0", "--algebra",
        "symbol(n=2, omega=auto, a=t, b=3) over F7((t))",
    )


def test_selftest_bad_size_count_is_input_error(capsys):
    _assert_input_error(capsys, "selftest", "--sizes", "lattice=abc")


def test_selftest_unknown_suite_is_input_error(capsys):
    error = _assert_input_error(capsys, "selftest", "--sizes", "lattices=5")
    assert "lattices" in error and "lattice, fields" in error


def test_witness_count_below_one_is_input_error(capsys):
    for count in ("0", "-3"):
        _assert_input_error(
            capsys, "sk1-witness", "--count", count, "--algebra",
            "symbol(n=2, omega=-1, a=2, b=t) over F5((t))",
        )


def test_non_integer_q_is_json_input_error(capsys):
    _assert_input_error(
        capsys, "verdict", "--algebra",
        "symbol(n=2, omega=auto, a=t, b=3) over F7((t))", "--q", "two",
    )


def test_non_prime_field_is_input_error(capsys):
    _assert_input_error(
        capsys, "classify", "--algebra", "symbol(n=2, omega=auto, a=t, b=3) over F8((t))"
    )


def test_reducible_modulus_is_input_error(capsys):
    _assert_input_error(
        capsys,
        "classify",
        "--algebra",
        "symbol(n=2, omega=auto, a=t, b=3) over F5[w]/(w^2+4)((t))",
    )


def test_non_monic_modulus_is_input_error(capsys):
    _assert_input_error(
        capsys,
        "classify",
        "--algebra",
        "symbol(n=2, omega=auto, a=t, b=3) over F5[w]/(2*w^2+4)((t))",
    )


def test_non_integer_degree_is_input_error(capsys):
    _assert_input_error(
        capsys, "classify", "--algebra", "symbol(n=x, omega=auto, a=t, b=3) over F7((t))"
    )


def test_zero_degree_is_input_error(capsys):
    _assert_input_error(
        capsys, "classify", "--algebra", "symbol(n=0, omega=auto, a=t, b=3) over F7((t))"
    )


def test_zero_denominator_is_input_error(capsys):
    _assert_input_error(
        capsys, "classify", "--algebra", "symbol(n=2, omega=auto, a=1/0, b=3) over F7((t))"
    )


def test_slot_error_column_counts_from_the_description(capsys):
    code, out = _run(
        capsys, "classify", "--algebra", "symbol(n=2, omega=auto, a=t+, b=3) over F7((t))"
    )
    assert code == 2
    assert "col 28" in json.loads(out)["error"]


def test_negative_power_in_modulus_is_input_error(capsys):
    _assert_input_error(
        capsys,
        "classify",
        "--algebra",
        "symbol(n=2, omega=auto, a=t, b=3) over F7[w]/(w^2+1+w^-1)((t))",
    )


def _input_error_message(capsys, algebra):
    code, out = _run(capsys, "classify", "--algebra", algebra)
    assert code == 2
    return json.loads(out)["error"]


def test_denominator_divisible_by_the_characteristic_is_positioned_input_error(capsys):
    slot = _input_error_message(capsys, "symbol(n=2, omega=auto, a=1/7, b=3) over F7((t))")
    assert slot == "denominator divisible by 7 (line 1, col 28)"
    modulus = _input_error_message(
        capsys, "symbol(n=2, omega=auto, a=t, b=3) over F7[w]/(w^2+1/7)((t))"
    )
    assert modulus == "denominator divisible by 7 (line 1, col 52)"


def test_tower_variable_naming_the_field_generator_is_positioned_input_error(capsys):
    clash = _input_error_message(
        capsys, "symbol(n=2, omega=auto, a=t, b=3) over F7[t]/(t^2+1)((t))"
    )
    assert clash.startswith("tower variable 't' already names")
    assert clash.endswith("(line 1, col 54)")
    repeat = _input_error_message(
        capsys, "symbol(n=2, omega=auto, a=x, b=3) over F7((x))((x))"
    )
    assert repeat.startswith("tower variable 'x' already names")
    assert repeat.endswith("(line 1, col 48)")


def test_reducible_modulus_of_degree_five_is_input_error(capsys):
    # (w^2 + 1)(w^3 + 2): no root in F7, so only a test for every degree sees it
    message = _input_error_message(
        capsys, "symbol(n=2, omega=auto, a=t, b=3) over F7[w]/(w^5+w^3+2*w^2+2)((t))"
    )
    assert message.startswith("2 + 2*w^2 + w^3 + w^5 is reducible over F7")


_QUATERNION = "symbol(n=2, omega=auto, a=2, b=t) over F5((t))"
_CUBIC = "symbol(n=3, omega=2, a=x, b=y) over F7((x))((y))"


def _cubic_verdict_payload():
    algebra = parse_algebra(_CUBIC)
    report = algebra.classify()
    profile = profile_from_tower(algebra.tower)
    return {
        "algebra": print_algebra(algebra),
        "profile": profile.describe(),
        "q": 3,
        "zeta": compute_zeta(report).zeta,
        "verdict": verdict(profile, report, 3).to_json(),
    }


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["classify", "--algebra", _CUBIC], lambda: parse_algebra(_CUBIC).classify().to_json()),
        (["verdict", "--algebra", _CUBIC, "--q", "3"], _cubic_verdict_payload),
        (
            ["sk1-witness", "--algebra", _QUATERNION, "--count", "2", "--seed", "4"],
            lambda: {
                "algebra": print_algebra(parse_algebra(_QUATERNION)),
                "witnesses": sk1_witness_batch(parse_algebra(_QUATERNION), count=2, seed=4),
            },
        ),
        (
            ["classify", "--algebra", "symbol(n=2, omega=auto, a=t, b=3) over F8((t))"],
            None,
        ),
    ],
    ids=["classify", "verdict", "sk1-witness", "input-error"],
)
def test_text_format_prints_the_schema_then_the_payload(capsys, argv, payload):
    json_code, out = _run(capsys, *argv, "--format", "json")
    text_code, text = _run(capsys, *argv, "--format", "text")
    assert json_code == text_code == (2 if payload is None else 0)
    expected = {"error": json.loads(out)["error"]} if payload is None else payload()
    assert json.loads(out) == json.loads(json.dumps({"schema": 1, **expected}, default=str))
    assert text.splitlines() == ["schema: 1", *_text_lines(expected, "")]
