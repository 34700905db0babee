"""Byte pins for the command-line front ends.

Each case runs one `structmc` subcommand in-process and compares the sha256
of the bytes it writes with a value recorded from a reference build. The
cases cover `observe` under every noise kind, `bench` CSVs (timing `zero`)
for each estimator and every noise kind, `estimate` for bcd / svt /
adaptive / exact, `packing --kind tz|tb` on two seeds, `packing --kind
code|embed`, `rates` with the lower-bound values and a penalty, with a
family's closed-form rate and with the covering bounds and critical radius
of a bounded class, and `gen` (factorization and spec) for every family, the
generic one unbounded and bounded over finite and interval alphabets. A
refactor of the CLI, the JSON writers, the bench harness, the generators or
the hypothesis builders must leave every hash as is.
"""

import hashlib
import json
import warnings

import pytest

from structmc.cli import main

TZ_SPEC = {
    "n": 24, "m": 10, "k_n": 24, "k_m": 6, "s_n": 1, "s_m": 2,
    "alphabet_n": {"kind": "finite", "values": [0.0, 1.0]},
    "alphabet_m": {"kind": "finite", "values": [0.0, 1.0]},
    "b_max": 2.0, "theta_mx": 5.0, "bounded": True,
}
TB_SPEC = dict(TZ_SPEC, n=12, m=12, k_n=6, k_m=6, s_n=1, s_m=1)
TB_SMALL_SPEC = dict(TB_SPEC, n=4, m=4, k_n=2, k_m=2)     # r_n r_m < 16: the two-point set

def _generic(alph_n, alph_m, bounded):
    return {"n": 6, "m": 5, "k_n": 3, "k_m": 3, "s_n": 1, "s_m": 2,
            "alphabet_n": alph_n, "alphabet_m": alph_m,
            "b_max": 2.0, "theta_mx": 3.0, "bounded": bounded}


SIGNED = {"kind": "finite", "values": [-1.0, 0.5, 1.0]}
# entries outside [-1, 1] (a bounded class draws from the part inside)
WIDE_FINITE = {"kind": "finite", "values": [-3.0, -1.0, 0.0, 2.0]}
INTERVAL = {"kind": "interval", "lo": -0.5, "hi": 1.0}
WIDE_INTERVAL = {"kind": "interval", "lo": -2.0, "hi": 0.5}

GEN_SPECS = {
    "generic_unbounded": _generic(WIDE_FINITE, WIDE_INTERVAL, False),
    "generic_bounded_finite": _generic(SIGNED, SIGNED, True),
    "generic_bounded_interval": _generic(INTERVAL, SIGNED, True),
    "generic_bounded_wide_interval": _generic(WIDE_INTERVAL, INTERVAL, True),
}

GENS = {
    "mixture": ["--family", "mixture", "--args", "6,4,2"],
    "dictionary": ["--family", "dictionary", "--args", "4,6,3,2"],
    "sbm": ["--family", "sbm", "--args", "7,3"],
    "mixed_membership": ["--family", "mixed_membership", "--args", "6,3,2"],
    "biclustering": ["--family", "biclustering", "--args", "6,5,2,3"],
    **{name: ["--family", "generic", "--spec", f"{name}.json"] for name in GEN_SPECS},
}

NOISE_FLAGS = {
    "none": [],
    "gaussian": ["--sigma", "0.3"],
    "rademacher": ["--scale", "0.2"],
    "uniform": ["--b", "0.4"],
    "truncated_gaussian": ["--sigma", "0.3", "--b", "0.5"],
}

BENCH_CONFIGS = {
    "exact": {"family": "sbm", "grid": [[4, 2], [5, 2]], "p": [1.0, 0.8],
              "noise": {"kind": "none"}, "method": "exact", "replicas": 2, "seed": 3},
    "bcd_sbm": {"family": "sbm", "grid": [[12, 2], [16, 3]], "p": [1.0, 0.5],
                "noise": {"kind": "gaussian", "sigma": 0.5}, "method": "bcd",
                "solver": {"restarts": 2}, "replicas": 2, "seed": 11},
    "bcd_mixed": {"family": "mixed_membership", "grid": [[10, 3, 2]], "p": [1.0, 0.5],
                  "noise": {"kind": "rademacher", "scale": 0.2}, "method": "bcd",
                  "solver": {"restarts": 1, "max_iterations": 20}, "replicas": 2,
                  "seed": 5},
    "svt": {"family": "biclustering", "grid": [[12, 10, 2, 2]], "p": [1.0, 0.6],
            "noise": {"kind": "truncated_gaussian", "sigma": 0.5, "b": 1.0},
            "method": "svt", "constant": 0.5, "replicas": 3, "seed": 7},
    "adaptive": {"family": "sbm", "grid": [[4, 2]], "p": [1.0],
                 "noise": {"kind": "uniform", "b": 0.3}, "method": "adaptive",
                 "constant": 0.05, "solver": {"restarts": 1, "exhaustive_limit": 400_000},
                 "replicas": 2, "seed": 9},
}

ESTIMATES = {
    "bcd": ["--method", "bcd", "--seed", "5", "--restarts", "2"],
    "svt": ["--method", "svt", "--lambda", "1.5"],
    "adaptive": ["--method", "adaptive", "--lambda", "0.02", "--restarts", "1", "--seed", "2"],
}
# the exact search needs a class small enough to enumerate
EXACT = ["--method", "exact", "--obs", "obs_small.json", "--spec", "spec_small.json"]

PACKINGS = {
    f"{kind}_seed{seed}": ["--kind", kind, "--spec", spec, "--sigma", "1.0", "--p", "0.7",
                           "--c0", c0, "--cap", cap, "--seed", str(seed)]
    for kind, spec, c0, cap in (("tz", "tz.json", "0.5", "8"), ("tb", "tb.json", "0.8", "16"))
    for seed in (0, 4)
}
PACKINGS["tb_small_seed0"] = ["--kind", "tb", "--spec", "tb_small.json", "--sigma", "0.5",
                              "--p", "0.9", "--seed", "0"]
PACKINGS["code"] = ["--kind", "code", "--k", "12", "--s", "3", "--seed", "1"]
PACKINGS["embed"] = ["--kind", "embed", "--r", "120", "--vectors", "vectors.json", "--seed", "2"]

VECTORS = {"rows": 3, "cols": 4, "data": [1.0, 0.0, -2.0, 0.5, 0.0, 1.5, 1.0, -1.0,
                                          2.0, 2.0, 0.0, 0.25]}

RATES = {
    "lower_penalty": ["--spec", "spec.json", "--sigma", "0.7", "--p", "0.6", "--penalty", "1,2"],
    "family_sbm": ["--spec", "spec.json", "--family", "sbm", "--args", "40,3"],
    "epsilon0": ["--spec", "tz.json", "--epsilon0", "--u", "0.5"],
}

PINNED = {
    "observe_none": "6bd68e698053f168cf42d4fef686cf36517e3a3e8ab78233a82d4b898e329226",
    "observe_gaussian": "5275cd0cccebb44e16e610bd76ba96da4e85abc02ea1eaf1b677ba9cf69d752b",
    "observe_rademacher": "2019d3dcac9f4eb87b5c714e5f82562ec08eb1351ef47bb6b68b871c86d896be",
    "observe_uniform": "997ec77655ad1844bdb0cf78be5922053034e4928d53df080eeaf0ef9c26e50c",
    "observe_truncated_gaussian": "615545882b6b5d0149bb083ee0b92377236eec5af0ba6eedcf57e151b1bc646a",
    "bench_exact": "3b510b5a96314d6208fe7de2c54d04c4443c9d448d79a7a40be8edb83a7f239a",
    "bench_bcd_sbm": "50eea75f6ed060bcdb0ae5aa3566a80e3c5a1c6b1a0cd6b3f00404d204232ad8",
    "bench_bcd_mixed": "62cc81ed0beb34c00de97c5c3df70175fcb71e96f793dc76360ab2d5c54f9241",
    "bench_svt": "549a7c1edee7eef24d092b0836ccb1f426cda49d1f2bd2cd7e407cdbf125850e",
    "bench_adaptive": "9a8ff59e845e018416812ee20d597f350e9c81b25ac403bd8860d3429329c4e3",
    "estimate_bcd": "3ad6ada3da7b63ff18d8011696bf773129fb756f683d3acf1c3973f7b4cffbea",
    "estimate_svt": "09bd161ed1f6a630f3110317fb8252981fc2145550611949466f1fffdd999c8c",
    "estimate_adaptive": "8fe3f9d225e683e92ea65cc1dc0c306261032607856452c5c04f0932c653c7c5",
    "estimate_exact": "300d846079eca6176911028162c66d7e00cd53c036e6f6a633595d307583cab9",
    "packing_tz_seed0": "3efc2077ef5f0de568aed2d4da2ca66ac5acf4f50a554f1219ecd144598f212e",
    "packing_tz_seed4": "8bcece184220ff06794033a183feefcc8285aa44be6873c29ae825101f97b05f",
    "packing_tb_seed0": "7058a4f723bc5c44a6f0d4b0913806c86364e35a3fea2b5673e46c996d49b01e",
    "packing_tb_seed4": "4ac8d71a098cf19b084ecc912c57e1103fe09c64af185533ea6b8bcf735eb4c4",
    "packing_tb_small_seed0": "0bb944c330789495b8235c1a00b57d611895ae8f58414f732baa5a892bca4456",
    "packing_code": "98d07743702d2aaffd98cc9ff79fb1fcaaf57bed8700522b7d4ff707c4af95fb",
    "packing_embed": "cef4136cc4a53faa1c44fe05286aa8517822205897e8dd61ef6370979698b319",
    "rates_lower_penalty": "6974aa7ecd0e5bc21eaef5ac16b7c7d2986d63d6f29c154a97497597bc47e751",
    "rates_family_sbm": "192cdd6bff95e187e53d79f78e5726a15f1e7c8306fb7f22703a047a95e8a3cc",
    "rates_epsilon0": "cd913b911b4c20c6d3d4e9e375763251ebefc7ebe812da8eb761bc7efd56c44f",
    "gen_mixture": "8aa96b0f62d3f23f2804c54d627a7b5c13fc48b4dfe57ddbaeeb51d8219a526e",
    "gen_dictionary": "29afd56a8ad6c278b93eb58180cdf5738e2057c4538f72ba86acd084dfa3e492",
    "gen_sbm": "32f96c5039d8a0a0c7e2edc62294d066233b531a3733b2e8b03337a02fca2454",
    "gen_mixed_membership": "2dca2550911e8f53d6de31d983e86c4555147117991aa84037d666cda34f523d",
    "gen_biclustering": "8dc6577316c41b4f9803d1d8ad25f8849ecb1a77168246db2e56d555d4c81bcf",
    "gen_generic_unbounded": "5adcdcf905167d6d849a73826ab057c4b5cc9aa23bd4db6f1f345a23b1a63f70",
    "gen_generic_bounded_finite": "a0b0409ad89c4fa499fef3a203d45bef57aa4693b6f933f101139d750672351d",
    "gen_generic_bounded_interval": "928bceec2a542f1f5ad3f9980522becb3519951b10ef723bdbe7ea190c03674e",
    "gen_generic_bounded_wide_interval": "f4b0e07769ed8b698b17fd5dcd96a5329d64c0c92673ee1631cd497dd218bcc7",
}


def _run(argv, out):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("front_end")
    assert main(["gen", "--family", "sbm", "--args", "6,2", "--seed", "3",
                 "--out-theta", str(d / "theta.json"), "--out-spec", str(d / "spec.json")]) == 0
    (d / "tz.json").write_text(json.dumps(TZ_SPEC))
    (d / "tb.json").write_text(json.dumps(TB_SPEC))
    (d / "tb_small.json").write_text(json.dumps(TB_SMALL_SPEC))
    (d / "vectors.json").write_text(json.dumps(VECTORS))
    assert main(["gen", "--family", "sbm", "--args", "4,2", "--seed", "1",
                 "--out-theta", str(d / "theta_small.json"),
                 "--out-spec", str(d / "spec_small.json")]) == 0
    assert main(["observe", "--theta", str(d / "theta_small.json"), "--p", "0.8",
                 "--noise", "gaussian", "--sigma", "0.3", "--seed", "2",
                 "--out", str(d / "obs_small.json")]) == 0
    for name, spec in GEN_SPECS.items():
        (d / f"{name}.json").write_text(json.dumps(spec))
    return d


def outputs(d) -> dict:
    """Every pinned output, by case name, run in the directory d."""
    out = {}
    for kind, flags in NOISE_FLAGS.items():
        out[f"observe_{kind}"] = _run(["observe", "--theta", str(d / "theta.json"), "--p", "0.8",
                                       "--noise", kind, *flags, "--seed", "4"],
                                      d / f"obs_{kind}.json")
    for name, cfg in BENCH_CONFIGS.items():
        path = d / f"bench_{name}.json"
        path.write_text(json.dumps(cfg))
        out[f"bench_{name}"] = _run(["bench", "--config", str(path)], d / f"bench_{name}.csv")
    for name, flags in ESTIMATES.items():
        out[f"estimate_{name}"] = _run(["estimate", *flags, "--obs", str(d / "obs_gaussian.json"),
                                        "--spec", str(d / "spec.json")],
                                       d / f"est_{name}.json")
    out["estimate_exact"] = _run(["estimate", *(str(d / f) if f.endswith(".json") else f
                                                for f in EXACT)], d / "est_exact.json")
    for name, flags in PACKINGS.items():
        flags = [str(d / f) if f.endswith(".json") else f for f in flags]
        out[f"packing_{name}"] = _run(["packing", *flags], d / f"pack_{name}.json")
    for name, flags in RATES.items():
        flags = [str(d / f) if f.endswith(".json") else f for f in flags]
        out[f"rates_{name}"] = _run(["rates", *flags], d / f"rates_{name}.json")
    for name, flags in GENS.items():
        flags = [str(d / f) if f.endswith(".json") else f for f in flags]
        fact, spec = d / f"gen_{name}_fact.json", d / f"gen_{name}_spec.json"
        assert main(["gen", *flags, "--seed", "2", "--out-factorization", str(fact),
                     "--out-spec", str(spec)]) == 0
        out[f"gen_{name}"] = fact.read_bytes() + spec.read_bytes()
    return out


def test_front_end_bytes_match_recorded_hashes(workdir):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs(workdir).items()}
    assert set(got) == set(PINNED)
    assert {k: v for k, v in got.items() if v != PINNED[k]} == {}
