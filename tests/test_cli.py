import json


from valdiv.cli import main
from valdiv.pipeline import run_example, selftest, sk1_witness_batch

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


def test_selftest_detects_injected_mutant():
    summary = selftest(seed=3, sizes={"norms": 10}, mutant="break_product")
    by_name = {s["suite"]: s for s in summary["suites"]}
    assert by_name["norm_multiplicativity"]["failures"] > 0
    assert summary["ok"] is False


def test_witness_batch_determinism():
    alg = make_quaternion_f5()
    a = sk1_witness_batch(alg, count=5, seed=11)
    b = sk1_witness_batch(alg, count=5, seed=11)
    assert a == b
    assert all(w["verified"] for w in a)


def _assert_input_error(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 2
    assert "error" in json.loads(out)


def test_verdict_non_prime_q_is_input_error(capsys):
    _assert_input_error(
        capsys, "verdict", "--algebra",
        "symbol(n=3, omega=auto, a=x, b=y) over F7((x))((y))", "--q", "4",
    )


def test_cd_non_prime_q_is_input_error(capsys):
    _assert_input_error(capsys, "cd", "--profile", "decl(cd2=1)((x))", "--q", "4")


def test_zero_precision_is_input_error(capsys):
    _assert_input_error(
        capsys, "classify", "--precision", "0", "--algebra",
        "symbol(n=2, omega=auto, a=t, b=3) over F7((t))",
    )


def test_selftest_bad_size_count_is_input_error(capsys):
    _assert_input_error(capsys, "selftest", "--sizes", "lattice=abc")


def test_non_integer_q_is_json_input_error(capsys):
    _assert_input_error(
        capsys, "verdict", "--algebra",
        "symbol(n=2, omega=auto, a=t, b=3) over F7((t))", "--q", "two",
    )


def test_non_prime_field_is_input_error(capsys):
    _assert_input_error(
        capsys, "classify", "--algebra", "symbol(n=2, omega=auto, a=t, b=3) over F8((t))"
    )
