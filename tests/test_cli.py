import json

import pytest

from weylkit.cli import main
from weylkit.ddaha import MAX_LITERAL_POWER


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv)
    return code, json.loads(out)


def test_root_command(capsys):
    code, payload = run_json(capsys, ["root", "--type", "B", "--rank", "2"])
    assert code == 0
    assert payload["command"] == "root"
    assert payload["config"]["type"] == "B"
    # [PAPER] B2 Cartan matrix in the <alpha_i, alpha_j-coroot> convention
    assert payload["result"]["cartan"] == [[2, -2], [-1, 2]]
    assert payload["result"]["roots_count"] == 8
    # rationals are p/q strings, never floats
    assert all(
        isinstance(e, str) for row in payload["result"]["gram"] for e in row
    )


def test_weyl_command(capsys):
    code, payload = run_json(
        capsys, ["weyl", "--type", "A", "--rank", "1", "--word", "0,1,0"]
    )
    assert code == 0
    r = payload["result"]
    assert r["length"] == 3
    assert r["reduced_word"] == [0, 1, 0]
    assert r["reflection_set_size"] == 3


@pytest.mark.parametrize(
    "tl,rk,finite",
    [
        ("A", 2, False),
        ("C", 2, False),
        ("G", 2, False),
        ("B", 3, False),
        ("D", 4, False),
        ("F", 4, False),
        ("E", 6, False),
        ("BC", 2, False),
        ("B", 3, True),
    ],
)
def test_weyl_right_descents_agree_with_every_descent_test(capsys, tl, rk, finite):
    # the command reads the right descents of g as the left descents of g^-1;
    # over a radius-3 ball that must agree with the root image of g and with
    # the length of g s
    from weylkit.root_system import affinize, build_finite, finite_coxeter
    from weylkit.weyl import (
        enumerate_ball,
        has_left_descent,
        has_right_descent,
        length,
        mul_simple,
        reduced_word,
    )

    fin = build_finite(tl, rk)
    ambient = finite_coxeter(fin) if finite else affinize(fin)
    base = ["weyl", "--type", tl, "--rank", str(rk)] + ["--finite"] * finite
    for g in enumerate_ball(ambient, 3):
        word = ",".join(map(str, reduced_word(g).letters))
        code, payload = run_json(capsys, base + ["--word", word] * bool(word))
        assert code == 0
        lg, h = length(g), g.inverse()
        for l in ambient.labels:
            want = length(mul_simple(g, l)) < lg
            assert has_left_descent(h, l) == has_right_descent(g, l) == want
            assert (l in payload["result"]["right_descents"]) == want


def test_weyl_command_work_counts(capsys, monkeypatch):
    # one E6 `weyl` command: no root image (the right descents are read off
    # g^-1), the walls, the length and T(g) read without a `_system_data`
    # call each, and the str and int scalars written by the loops of `_json`
    from weylkit import cli, weyl

    argv = ["weyl", "--type", "E", "--rank", "6", "--word", "1,2,3,4,5,6,0,2,4,3,1"]
    assert main(argv) == 0  # the ambient and its group data are built once
    expected = capsys.readouterr().out
    counts = {}
    for module, name in ((weyl, "_image"), (weyl, "_system_data"), (cli, "_json")):
        def counted(*args, _f=getattr(module, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _f(*args)

        monkeypatch.setattr(module, name, counted)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert counts.get("_image", 0) == 0
    assert counts.get("_system_data", 0) == 0
    assert counts["_json"] <= 22


def test_relative_schema(capsys):
    code, payload = run_json(
        capsys, ["relative", "--type", "C", "--rank", "2", "--sigma", "1"]
    )
    assert code == 0
    r = payload["result"]
    assert r["admissible"] is True
    assert r["sigma_complement"] == [0, 2]
    assert {s["s"]: s["rel_length"] for s in r["simples"]} == {0: 1, 2: 1}
    assert {s["s"]: s["length"] for s in r["simples"]} == {0: 3, 2: 3}
    # [DERIVED] affine C2 relative to {1} is infinite dihedral
    assert r["coxeter_matrix"]["0,2"] == "infinity"


def test_relative_sigma_complement_keeps_labels_without_a_generator(capsys):
    code, payload = run_json(
        capsys, ["relative", "--type", "A", "--rank", "2", "--sigma", "0,1"]
    )
    assert code == 0
    r = payload["result"]
    assert r["sigma_complement"] == [2]
    assert r["simples"] == []
    assert r["degenerate_single_complement"] is True


def test_relative_not_admissible_exit_1(capsys):
    code, payload = run_json(
        capsys,
        ["relative", "--type", "A", "--rank", "2", "--finite", "--sigma", "1"],
    )
    assert code == 1
    assert payload["result"]["admissible"] is False
    assert payload["result"]["violating_supersets"] == [[1, 2]]


def test_config_error_exit_2(capsys):
    code, _, err = run(capsys, ["root", "--type", "Z", "--rank", "2"])
    assert code == 2
    assert "configuration error" in err


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type": "C", "rank": 2, "sigma": [1]}))
    code, payload = run_json(capsys, ["relative", "--config", str(cfg)])
    assert code == 0
    assert payload["config"]["type"] == "C"
    # flag overrides file
    code2, payload2 = run_json(
        capsys, ["root", "--config", str(cfg), "--type", "A", "--rank", "1"]
    )
    assert code2 == 0
    assert payload2["config"]["type"] == "A"


def test_config_file_keys_without_flags_and_every_flag_override(tmp_path, capsys):
    from weylkit.cli import DEFAULTS, _parser, resolve_config

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type": "C", "rank": 2, "affine": False, "depth": 5}))
    config = resolve_config(_parser().parse_args(["root", "--config", str(cfg)]))
    assert (config["type"], config["rank"], config["affine"], config["depth"]) == (
        "C", 2, False, 5,
    )
    flags = {
        "type": "B", "rank": "3", "sigma": "1,2", "theta": "1,0,0", "m": "2", "d": "3",
        "c": "0=1", "radius": "1", "depth": "0", "window": "-1:2", "lam0": "1/2",
        "format": "tsv", "seed": "7",
    }
    assert set(flags) == set(DEFAULTS) - {"affine"}
    argv = ["root", "--config", str(cfg)]
    for key, value in flags.items():
        argv.append(f"--{key}={value}")
    config = resolve_config(_parser().parse_args(argv))
    assert config == {
        "type": "B", "rank": 3, "affine": False, "sigma": [1, 2], "theta": "1,0,0",
        "m": 2, "d": 3, "c": "0=1", "radius": 1, "depth": 0,
        "window": [-1, 2], "lam0": "1/2", "format": "tsv", "seed": 7,
    }


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    code, _, err = run(capsys, ["root", "--config", str(cfg)])
    assert code == 2
    assert "unknown config keys" in err


def test_facets_radius_zero_counts_proper_types(capsys):
    # [DERIVED] one facet per proper subset of the 3 affine A2 labels: 2^3 - 1
    code, payload = run_json(
        capsys, ["complex", "facets", "--type", "A", "--rank", "2", "--radius", "0"]
    )
    assert code == 0
    assert payload["result"]["count"] == 7


def test_complex_fixed(capsys):
    code, payload = run_json(
        capsys,
        ["complex", "fixed", "--type", "C", "--rank", "2", "--sigma", "1", "--radius", "5"],
    )
    assert code == 0
    r = payload["result"]
    assert all(c["type"] == [1] for c in r["chambers"])
    assert r["single_free_orbit"] is True


def test_spiral_tsv(capsys):
    code, out, _ = run(
        capsys,
        [
            "spiral", "--type", "A", "--rank", "2", "--finite",
            "--theta", "1,1", "--m", "3", "--d", "1",
            "--lam", "0,0", "--window=-2:2", "--format", "tsv",
        ],
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "n\tpart\tmembers"
    # 5 degrees x 3 parts
    assert len(lines) == 1 + 15
    row0 = next(l for l in lines if l.startswith("0\tL"))
    assert "h" in row0  # the Cartan sits in L_0


def test_ddaha_product_and_roundtrip(capsys):
    code, payload = run_json(
        capsys,
        [
            "ddaha", "--type", "A", "--rank", "1", "--m", "2", "--d", "1",
            "--expr", "s1*x1", "--times", "x1",
        ],
    )
    assert code == 0
    assert payload["result"]["normal_form"] == "s1*x1^2"


def test_ddaha_weights(capsys):
    code, payload = run_json(
        capsys,
        [
            "ddaha", "--type", "A", "--rank", "1", "--m", "2", "--d", "1",
            "--lam0", "1/3", "--depth", "2", "--weights",
        ],
    )
    assert code == 0
    r = payload["result"]
    assert r["dimension"] == 5
    assert all(row["multiplicity"] == 1 for row in r["weights"])


def test_certify_pass_and_fail(capsys):
    code, payload = run_json(
        capsys, ["certify", "--type", "C", "--rank", "2", "--sigma", "1"]
    )
    assert code == 0
    assert payload["result"]["ok"] is True
    code2, payload2 = run_json(
        capsys, ["certify", "--type", "A", "--rank", "2", "--finite", "--sigma", "1"]
    )
    assert code2 == 1
    admissible = next(
        c for c in payload2["result"]["checks"] if c["check"] == "admissible"
    )
    assert not admissible["ok"]
    assert "[1, 2]" in admissible["detail"]  # witness superset


def test_certify_enumerates_one_length_ball(capsys, monkeypatch):
    import weylkit
    from weylkit import weyl

    radii = []
    search = weyl.length_ball

    def counted(ambient, radius):
        radii.append(radius)
        return search(ambient, radius)

    # every binding, weyl's own included, so a ball built through
    # enumerate_ball is counted as well as a coxcomplex.Ball
    for module in vars(weylkit).values():
        if getattr(module, "length_ball", None) is search:
            monkeypatch.setattr(module, "length_ball", counted)
    argv = ["certify", "--type", "B", "--rank", "2", "--sigma", "1", "--radius", "3", "--depth", "2"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and payload["result"]["ok"] is True
    assert radii == [3]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "weyl-ball", "--type", "C", "--rank", "2", "--radius", "3"],
        ["table", "facets", "--type", "C", "--rank", "2", "--radius", "3"],
        ["complex", "fixed", "--type", "C", "--rank", "2", "--sigma", "1", "--radius", "3"],
        ["certify", "--type", "C", "--rank", "2", "--sigma", "1", "--radius", "3"],
    ],
)
def test_length_ball_past_the_cap_exits_3(capsys, monkeypatch, argv):
    from weylkit import weyl

    # affine C2 has 1, 3, 5 and 8 elements of length 0 to 3: the length
    # ball of radius 3 passes a cap of 12, the relative data stay below it
    monkeypatch.setattr(weyl, "BALL_CAP", 12)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "resource cap: ball exceeds cap of 12 elements\n"


def test_complex_fixed_not_admissible_reports_sorted_supersets(capsys):
    code, out, err = run(
        capsys, ["complex", "fixed", "--type", "A", "--rank", "2", "--sigma", "1"]
    )
    assert (code, out) == (2, "")
    assert err == (
        "configuration error: Sigma = [1] is not admissible; "
        "violating supersets: [[0, 1], [1, 2]]\n"
    )


def test_certify_reports_a_small_ball_as_a_failed_check(capsys):
    code, payload = run_json(
        capsys, ["certify", "--type", "C", "--rank", "2", "--sigma", "1", "--radius", "0"]
    )
    assert code == 1
    fixed = next(c for c in payload["result"]["checks"] if c["check"] == "fixed-chambers")
    assert not fixed["ok"]
    assert "strictly inside the ball" in fixed["detail"]


def test_certify_empty_sigma_degenerate_pass(capsys):
    code, payload = run_json(
        capsys, ["certify", "--type", "A", "--rank", "2", "--finite", "--sigma", ""]
    )
    assert code == 0
    assert payload["result"]["ok"] is True


def test_certify_relative_rank_zero_pass(capsys):
    # affine A1 with Sigma = {0}: the enlargement {0, 1} is infinite, so no s-tilde
    code, payload = run_json(capsys, ["certify", "--type", "A", "--rank", "1", "--sigma", "0"])
    assert code == 0
    sizes = next(c for c in payload["result"]["checks"] if c["check"] == "coxeter-ball-sizes")
    assert sizes == {
        "check": "coxeter-ball-sizes",
        "ok": True,
        "detail": "got [1, 0, 0, 0, 0] expected [1, 0, 0, 0, 0]",
    }


def test_determinism_byte_identical(capsys):
    argv = ["certify", "--type", "C", "--rank", "2", "--sigma", "1", "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_table_rows_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        ["table", "weyl-ball", "--type", "A", "--rank", "1", "--radius", "3",
         "--format", "tsv"],
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "length\tword"
    rows = [l.split("\t") for l in lines[1:]]
    # [DERIVED] affine A1 ball: 1 + 2 per positive length
    assert sorted(int(r[0]) for r in rows) == [0, 1, 1, 2, 2, 3, 3]
    for ln, word in rows:
        letters = [] if word == "-" else word.split(",")
        assert len(letters) == int(ln)


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # a Hecke parameter label that is not an integer
        ["ddaha", "--type", "A", "--rank", "1", "--c", "a=2"],
        # theta-tilde pairs to a non-integer with a root
        ["spiral", "--type", "A", "--rank", "2", "--theta", "1/3,1/3", "--lam", "0"],
        ["table", "spiral", "--type", "A", "--rank", "2", "--theta", "1/3,1/3"],
        ["spiral", "--type", "A", "--rank", "2", "--theta", "1,1", "--m", "0", "--lam", "0,0"],
        ["table", "weyl-ball", "--type", "A", "--rank", "2", "--radius", "-3"],
        ["ddaha", "--lam0", "1/3", "--depth", "-1", "--weights"],
        # malformed or zero-denominator element literals
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "(1/0)"],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "(2/)"],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "x1^-1"],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "x1^"],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "x1", "--times", "(1/0)"],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "(3/2"],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "x9"],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "s1)"],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "s1*/2"],
        # a point with the wrong number of coordinates
        ["spiral", "--type", "A", "--rank", "2", "--theta", "1", "--lam", "0,0"],
        ["table", "weights", "--type", "A", "--rank", "2", "--lam0", "1"],
        # a Sigma label that is not a simple label of the system
        ["certify", "--type", "A", "--rank", "2", "--sigma", "5"],
        ["complex", "fixed", "--type", "A", "--rank", "2", "--sigma", "9", "--radius", "2"],
        ["relative", "--type", "A", "--rank", "2", "--sigma", "5"],
        ["table", "relpos", "--type", "A", "--rank", "2", "--sigma", "5"],
        # no fixed chamber lies strictly inside the ball
        ["complex", "fixed", "--type", "C", "--rank", "2", "--sigma", "1", "--radius", "0"],
        ["complex", "fixed", "--type", "A", "--rank", "3", "--sigma", "1,3", "--radius", "0"],
        ["complex", "fixed", "--type", "B", "--rank", "2", "--finite", "--sigma", "1",
         "--radius", "0"],
        # an empty degree window
        ["spiral", "--type", "A", "--rank", "2", "--theta", "1,1", "--m", "3", "--lam", "0,0",
         "--window", "3:1"],
        ["table", "spiral", "--window", "3:1"],
        # a facet type made of every wall
        ["table", "relpos", "--type", "A", "--rank", "2", "--sigma", "0,1,2"],
        # bad values of keys the command does not read
        ["weyl", "--type", "A", "--rank", "2", "--word", "1", "--theta", "1/0,x", "--c", "0=-1",
         "--m", "-1", "--lam0", "q"],
        ["complex", "relpos", "--type", "A", "--rank", "2", "--itype", "1", "--nuprime", "0",
         "--d", "0", "--c", "x"],
        ["weyl", "--type", "A", "--rank", "2", "--word", "1", "--theta", "1/0,1"],
        ["root", "--type", "A", "--rank", "2", "--lam0", "q"],
        ["relative", "--type", "C", "--rank", "2", "--sigma", "1", "--c", "0=2,0=2"],
        ["certify", "--type", "A", "--rank", "2", "--finite", "--m", "0"],
        ["table", "weyl-ball", "--type", "A", "--rank", "1", "--radius", "1", "--d", "0"],
        # flags the chosen mode does not read
        ["ddaha", "--type", "A", "--rank", "1", "--times", "x1^"],
        ["ddaha", "--expr", "s1", "--weights", "--lam0", "1/3"],
        # an empty literal is read, and rejected, not taken for an absent flag
        ["ddaha", "--type", "A", "--rank", "1", "--expr", ""],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "s1", "--times", ""],
        ["spiral", "--lam", "0", "--facet-word", "x", "--facet-type", "y"],
        ["spiral", "--type", "A", "--rank", "2", "--lam", "0,0", "--facet-type", "1"],
        ["complex", "facets", "--nu", "x"],
        ["complex", "facets", "--type", "A", "--rank", "2", "--radius", "1", "--nuprime", "1"],
        ["complex", "fixed", "--type", "C", "--rank", "2", "--sigma", "1", "--itype", "q"],
        # flag values are parsed as config-file values are, with the same message
        ["root", "--type", "A", "--rank", "x"],
        ["ddaha", "--type", "C", "--rank", "2", "--m", "4", "--seed", "1.5"],
        ["root", "--type", "A", "--rank", "2", "--format", "xml"],
        # digit runs past Python's integer-string limit: a generator label
        # and a rational
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "s" + "1" * 5000],
        ["ddaha", "--type", "A", "--rank", "1", "--expr", "(" + "9" * 5000 + ")"],
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error:")


def test_fixed_chambers_refuse_a_sigma_of_every_wall(capsys):
    # Sigma = {1, 2} on finite A2 is admissible, but W_Sigma is the whole
    # group: no radius helps, so the message must not ask for a larger ball
    message = "Sigma = [1, 2] holds every wall: W_Sigma is the whole group, so no facet has type Sigma"
    base = ["--type", "A", "--rank", "2", "--finite", "--sigma", "1,2"]
    for radius in ("3", "8"):
        code, out, err = run(capsys, ["complex", "fixed", *base, "--radius", radius])
        assert (code, out, err) == (2, "", f"configuration error: {message}\n")
    # certify reports it as its failed fixed-chambers check
    code, payload = run_json(capsys, ["certify", *base])
    checks = {c["check"]: c for c in payload["result"]["checks"]}
    assert code == 1 and payload["result"]["ok"] is False
    assert checks["fixed-chambers"] == {"check": "fixed-chambers", "ok": False, "detail": message}


def test_non_adjoint_theta_names_the_first_root_and_its_pairing(capsys):
    argv = ["spiral", "--type", "A", "--rank", "2", "--theta", "1/2,1", "--m", "3",
            "--facet-word", "0", "--facet-type", "1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        "configuration error: theta-tilde is not an adjoint cocharacter: "
        "<(-1, -1), theta> = -3/2\n"
    )


def test_finite_facet_spiral_is_a_configuration_error(capsys):
    argv = ["spiral", "--type", "A", "--rank", "2", "--finite", "--theta", "1,1", "--m", "3",
            "--facet-word", "1", "--facet-type", "2"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "configuration error: facet spirals need the affine arrangement\n"


def test_hecke_parameter_below_2_exits_2_naming_no_flag(capsys):
    code, out, err = run(capsys, ["ddaha", "--c", "0=1/2,1=1/2"])
    assert (code, out) == (2, "")
    assert err == "configuration error: c_0 = 1/2 must be an integer >= 2\n"


@pytest.mark.parametrize(
    "expr",
    [
        "x1^100000000",
        f"x1^{MAX_LITERAL_POWER + 1}",
        f"s1*x1^{MAX_LITERAL_POWER + 1}",
        # the cap bounds the folded monomial, not each factor
        f"x1^{MAX_LITERAL_POWER}*x1^{MAX_LITERAL_POWER}",
        "x1^40*x1^40*s0",
        # a power past Python's integer-string limit
        pytest.param("x1^" + "9" * 5000, id="x1^(5000 nines)"),
    ],
)
def test_literal_power_above_the_cap_exits_3(capsys, expr):
    code, out, err = run(capsys, ["ddaha", "--type", "A", "--rank", "1", "--expr", expr])
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap:")


@pytest.mark.parametrize("factor", ["9" * 4000, "1/" + "9" * 4000])
def test_coefficient_past_the_digit_limit_exits_3(capsys, factor):
    # each literal converts, but their product has more digits than
    # Python converts back to a string
    expr = f"({factor})*({factor})"
    code, out, err = run(capsys, ["ddaha", "--type", "A", "--rank", "1", "--expr", expr])
    assert (code, out) == (3, "")
    assert err == (
        "resource cap: a coefficient has more than 4300 digits, the most Python converts to a "
        "string\n"
    )


def test_literal_power_at_the_cap_is_accepted(capsys):
    expr = f"x1^{MAX_LITERAL_POWER}"
    code, payload = run_json(capsys, ["ddaha", "--type", "A", "--rank", "1", "--expr", expr])
    assert code == 0
    assert payload["result"]["normal_form"] == expr


def test_folded_literal_power_at_the_cap_is_accepted(capsys):
    half = MAX_LITERAL_POWER // 2
    argv = ["ddaha", "--type", "A", "--rank", "1", "--expr", f"x1^{half}*x1^{half}"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["result"]["normal_form"] == f"x1^{MAX_LITERAL_POWER}"


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "--word", "1,2"],
        ["table", "weyl-ball"],
        ["complex", "facets"],
        ["relative", "--sigma", "1"],
        ["certify", "--sigma="],
    ],
)
def test_finite_bc_commands_exit_0(capsys, argv):
    code, _, err = run(capsys, argv + ["--type", "BC", "--rank", "2", "--finite"])
    assert code == 0, err


def test_bad_parameter_label_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": {"a": 2}}))
    code, out, err = run(capsys, ["ddaha", "--config", str(cfg)])
    assert code == 2
    assert out == "" and err.startswith("configuration error:")


COMMANDS = [
    ["root"],
    ["weyl", "--word", "1"],
    ["relative"],
    ["complex", "fixed"],
    ["spiral", "--lam", "0"],
    ["ddaha", "--expr", "s1"],
    ["certify"],
    ["table", "weyl-ball"],
]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize(
    "loaded",
    [
        {"sigma": ["x"]},
        {"sigma": [1.5]},
        {"sigma": [True]},
        {"rank": 2.7},
        {"rank": True},
        {"seed": 1.9},
        {"window": [1.5, 2]},
        {"affine": "no"},
        {"affine": 0},
        # not a config key
        {"order_cap": 0},
        {"order_cap": -3},
        {"sigma": [1, 1]},
    ],
    ids=json.dumps,
)
def test_bad_config_file_value_exits_2(tmp_path, capsys, command, loaded):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(loaded))
    code, out, err = run(capsys, command + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("configuration error:")


REPEATED_LABELS = [
    ["relative", "--type", "C", "--rank", "2", "--sigma", "1,1"],
    ["certify", "--type", "C", "--rank", "2", "--sigma", "1,1"],
    ["complex", "fixed", "--type", "C", "--rank", "2", "--sigma", "1,1"],
    ["ddaha", "--type", "A", "--rank", "1", "--c", "0=2,1=2,1=4", "--expr", "s1"],
]


@pytest.mark.parametrize("argv", REPEATED_LABELS, ids=["relative", "certify", "fixed", "ddaha"])
def test_repeated_labels_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error:")


@pytest.mark.parametrize(
    "command, text",
    [
        (["relative"], '{"type": "C", "rank": 2, "sigma": [1, 1]}'),
        (["certify"], '{"type": "C", "rank": 2, "sigma": [2, 1, 2]}'),
        (["complex", "fixed"], '{"type": "C", "rank": 2, "sigma": "1,1"}'),
        (["ddaha", "--expr", "s1"], '{"c": {"0": 2, "1": 2, "01": 4}}'),
        (["ddaha", "--expr", "s1"], '{"c": "0=2,1=2,1=4"}'),
        # json.load alone keeps the last of two equal keys
        (["ddaha", "--expr", "s1"], '{"c": {"0": 2, "1": 2, "1": 4}}'),
        (["relative"], '{"type": "C", "rank": 2, "rank": 3}'),
    ],
)
def test_repeated_labels_in_config_file_exit_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run(capsys, command + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("configuration error:")


def test_word_keeps_repeated_letters(capsys):
    code, payload = run_json(capsys, ["weyl", "--type", "A", "--rank", "1", "--word", "1,1,0"])
    assert code == 0
    assert payload["result"]["length"] == 1


def test_integer_strings_in_config_file_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type": "C", "rank": "2", "sigma": "1", "window": "-1:2"}))
    code, payload = run_json(capsys, ["relative", "--config", str(cfg)])
    assert code == 0
    assert (payload["config"]["rank"], payload["config"]["sigma"]) == (2, [1])
    assert payload["config"]["window"] == [-1, 2]


def test_order_cap_in_config_file_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type": "C", "rank": 2, "sigma": [1], "order_cap": 12}))
    code, out, err = run(capsys, ["relative", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "unknown config keys ['order_cap']" in err


@pytest.mark.parametrize(
    "raw",
    [
        # a top-level value that is not an object
        b"5",
        b"null",
        b"true",
        b"[]",
        b'[["type", "B"]]',
        # bytes that are not UTF-8
        b'\xff\xfe{"type": "B"}',
        # an integer past the integer-string limit
        b'{"rank": ' + b"1" * 4301 + b"}",
        # nesting past the recursion limit
        b"[" * 100000 + b"]" * 100000,
    ],
    ids=["int", "null", "bool", "empty-list", "pairs", "not-utf8", "long-int", "deep"],
)
def test_unreadable_config_file_exits_2(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    code, out, err = run(capsys, ["root", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("configuration error:")


@pytest.mark.parametrize("cartan_type", ["A", "B"])
def test_certify_finite_rank_2_coxeter_ball_sizes(capsys, cartan_type):
    # the whole finite group: the relative system is W itself, whose product
    # s1 s2 has order 3 (A2) or 4 (B2), so the balls reach the longest element
    code, payload = run_json(capsys, ["certify", "--type", cartan_type, "--rank", "2", "--finite"])
    assert code == 0
    sizes = next(c for c in payload["result"]["checks"] if c["check"] == "coxeter-ball-sizes")
    assert sizes["ok"], sizes["detail"]


def test_relative_finite_g2_prints_the_order_6(capsys):
    code, payload = run_json(capsys, ["relative", "--type", "G", "--rank", "2", "--finite"])
    assert code == 0
    assert payload["result"]["coxeter_matrix"]["1,2"] == 6


def test_runtime_imports_only_the_standard_library():
    import os
    import subprocess
    import sys

    import weylkit

    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import weylkit.cli, weylkit.spiral, weylkit.ddaha\n"
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
    )
    src = os.path.dirname(os.path.dirname(weylkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    new = set(done.stdout.split())
    assert "weylkit" in new
    assert new - {"weylkit"} <= sys.stdlib_module_names, new - sys.stdlib_module_names
