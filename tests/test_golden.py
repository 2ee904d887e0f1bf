"""Golden outputs, pinned to the last bit.

Mean-field values are pinned by the float.hex() of what the analyzer
returned.  Seeded engine outputs (``simulate``, ``compare`` and ``sweep``
through the CLI) and the ``meanfield`` and ``critical`` CLI reports are
pinned by sha256 digests of the bytes they write.  A
change that moves any of them changes what the tool computes and must say
so; a refactor that shifts a single random draw fails here.
"""

import hashlib
import json

import pytest

from oracles import eval_d2F

from kmajority.cli import main

from kmajority.meanfield import (
    BiasMode,
    MeanFieldParams,
    Regime,
    critical_bias_k,
    critical_bias_kq,
    eval_dF,
    eval_F,
    fixed_points,
    trajectory,
)

P_STAR_K = {
    257: "0x1.b3090d38c71c9p-2",
    1001: "0x1.d4e312d48e391p-2",
    # C(k-1, (k-1)/2) overflows a double from here on
    2001: "0x1.e01acf0538e38p-2",
    4001: "0x1.e87c43161c71bp-2",
    9999: "0x1.f05a94ed38e39p-2",
}


@pytest.mark.parametrize("k", sorted(P_STAR_K))
def test_critical_bias_k(k):
    assert critical_bias_k(k).p_star_k.hex() == P_STAR_K[k]


def test_critical_bias_kq():
    assert critical_bias_kq(65, 0.6).p_star_kq.hex() == "0x1.1fec1a6d54906p-3"


# k -> (p*_k, p*_{k,0.6}, p*_{k,0.75}): the q-ladder of the critical-large-k benchmark
Q_LADDER = {
    3: ("0x1.c71c71d071c72p-4", "0x1.c19e7505aa470p-5", "0x1.a0fb95aa54457p-4"),
    5: ("0x1.5228751a00000p-3", "0x1.3bc2e4eb45241p-4", "0x1.2ad56c8919716p-3"),
    9: ("0x1.c995dcd4aaaacp-3", "0x1.92c57792a94c4p-4", "0x1.83a7eb30ad5ddp-3"),
    17: ("0x1.1dca4a9e8e38fp-2", "0x1.dc2ea5d66922ep-4", "0x1.d00094c57a5c2p-3"),
    33: ("0x1.4fa1f78e8e38dp-2", "0x1.0aab6c2ce7baap-3", "0x1.060dc444797dap-2"),
    65: ("0x1.78c9e9b1e38e4p-2", "0x1.1fec1a6d54906p-3", "0x1.1c8a11a30bbdap-2"),
}


@pytest.mark.parametrize("k", sorted(Q_LADDER))
def test_critical_bias_q_ladder(k):
    p_star_k, *p_star_kq = Q_LADDER[k]
    assert critical_bias_k(k).p_star_k.hex() == p_star_k
    for q, want in zip((0.6, 0.75), p_star_kq):
        cv = critical_bias_kq(k, q)
        assert (cv.p_star_k.hex(), cv.p_star_kq.hex()) == (p_star_k, want)


# k|q|tol -> float.hex of p*_{k,q} solved at that tolerance: each phi_minus
# solve may stop on its bracket width, on its residual or on the side of q
Q_TOLERANCE = {
    "3|0.6|1e-4": "0x1.c1afcf1c71c72p-5",
    "3|0.6|1e-7": "0x1.c19e8870370e2p-5",
    "3|0.9|1e-4": "0x1.c7b1c71c71c72p-4",
    "3|0.9|1e-7": "0x1.c71c971c71c71p-4",
    "17|0.6|1e-4": "0x1.dc30c1ffffffep-4",
    "17|0.6|1e-7": "0x1.dc2eb010764acp-4",
    "17|0.9|1e-4": "0x1.1ce5c88000000p-2",
    "17|0.9|1e-7": "0x1.1ce4c5f849bf2p-2",
    "65|0.6|1e-4": "0x1.20097f0000000p-3",
    "65|0.6|1e-7": "0x1.1fec236e23538p-3",
    "65|0.9|1e-4": "0x1.6da2948000000p-2",
    "65|0.9|1e-7": "0x1.6d97828396d46p-2",
}


@pytest.mark.parametrize("case", sorted(Q_TOLERANCE))
def test_critical_bias_kq_tolerance(case):
    k, q, tol = case.split("|")
    cv = critical_bias_kq(int(k), float(q), float(tol))
    assert cv.p_star_kq.hex() == Q_TOLERANCE[case]


# k|p|mode -> float.hex of the tangency point mu (node mode reports it contracted)
TANGENCY = {
    "3|0.1|edge": "0x1.ad46c680aaaa9p-1",
    "5|0.15|node": "0x1.74b88868f3332p-1",
    "17|0.25|edge": "0x1.c5b5da5ed5555p-1",
    "65|0.3|node": "0x1.36ef61e65ffffp-1",
    "257|0.35|edge": "0x1.bc4f852449d8ap-1",
    "1001|0.39|node": "0x1.12e7faafb9eb8p-1",
}


@pytest.mark.parametrize("case", sorted(TANGENCY))
def test_fixed_points_mu(case):
    k, p, mode = case.split("|")
    fp = fixed_points(MeanFieldParams(int(k), float(p), BiasMode(mode)))
    assert fp.regime is Regime.SUBCRITICAL
    assert fp.mu.hex() == TANGENCY[case]


def test_fixed_points_k501():
    fp = fixed_points(MeanFieldParams(501, 0.4, BiasMode.EDGE))
    assert fp.regime is Regime.SUBCRITICAL
    assert fp.phi_minus.hex() == "0x1.c0b1f90147b55p-1"
    assert fp.phi_plus.hex() == "0x1.ffff9a7546930p-1"
    assert fp.mu.hex() == "0x1.d42143bcc2aabp-1"


def test_trajectory_k501():
    orbit = trajectory(MeanFieldParams(501, 0.4, BiasMode.EDGE), 0.9, 6)
    assert [v.hex() for v in orbit] == [
        "0x1.ccccccccccccdp-1",
        "0x1.ed606f524a70cp-1",
        "0x1.ffe40aeefc6edp-1",
        "0x1.ffff979f79829p-1",
        "0x1.ffff9a74c4999p-1",
        "0x1.ffff9a750e368p-1",
        "0x1.ffff9a750e3e0p-1",
    ]


# sha256 over the float.hex() of F (even k, ties at weight 1/2) and of F, F'
# and F'' (odd k): k in {1, 2, 3, 4, 5, 10, 101, 1000}, both modes,
# p in {0, 0.1, 0.45, 1} and x = i/50 for i = 0..50
UPDATE_MAP_GRID = "b6aa7f6db3088b8992f072ae7c851556cc1b2e4f24016bcc420e9b72fa4f9d59"


def test_update_map_grid():
    digest = hashlib.sha256()
    for k in (1, 2, 3, 4, 5, 10, 101, 1000):
        for mode in BiasMode:
            for p in (0.0, 0.1, 0.45, 1.0):
                params = MeanFieldParams(k, p, mode)
                for f in (eval_F, eval_dF, eval_d2F) if k % 2 else (eval_F,):
                    for i in range(51):
                        digest.update(f"{f(params, i / 50).hex()}\n".encode())
    assert digest.hexdigest() == UPDATE_MAP_GRID


# ---------------------------------------------------------------------------
# Seeded engine outputs
# ---------------------------------------------------------------------------

GRAPHS = ["complete:n=300", "gnp:n=300,p=0.3", "regular:n=300,d=40"]
FAMILIES = [("kmaj", "3"), ("kmaj", "4"), ("voter", None), ("det", None)]
# p = 0.44 puts det's edge-mode perceived share (0.9 * 0.56) at the threshold
BIASES = {"kmaj": ("0.08", "0.3"), "voter": ("0.08", "0.3"), "det": ("0.08", "0.44")}


def _cli_digest(capsys, argv, *paths):
    """sha256 of a CLI call's stdout followed by the files it wrote."""
    assert main(argv) == 0, capsys.readouterr().err
    h = hashlib.sha256(capsys.readouterr().out.encode())
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _simulate_argv(graph, family, k, mode, p):
    argv = ["simulate", "--graph", graph, "--family", family, "--mode", mode,
            "--p", p, "--q", "0.9", "--seed", "7", "--phi-detail", "--trace", "trace.csv"]
    return argv + (["--k", k] if k is not None else [])


SIMULATE_DIGESTS = {
    "complete:n=300|kmaj|3|edge|0.08":
        "c4c68555e2d7358c96380f87fb4555b37696261205996662d7dd077b1e9b2305",
    "complete:n=300|kmaj|3|edge|0.3":
        "370fba9b5398d4945d86918ae3bc044809b6b28140df6ae6a0c9aa42f5c9f343",
    "complete:n=300|kmaj|3|node|0.08":
        "9037fe84528930634afb738404e4bdf3860134f5aba3a93b7f0050f1ebb15773",
    "complete:n=300|kmaj|3|node|0.3":
        "f5d5056dbee8a0bd2cc00f71e5f5f03ee61b8c3442b2bea1b819fbfaad902ece",
    "complete:n=300|kmaj|4|edge|0.08":
        "511677aa6be773230d3e4fa82dfe370cad3bd720618207eba1129740a2a48184",
    "complete:n=300|kmaj|4|edge|0.3":
        "bbc6e2f7b1e4b465a77b96f8160e4ff91cacfa4a05be41e750e57225d0dcbb66",
    "complete:n=300|kmaj|4|node|0.08":
        "16200b0f9dda71f138a2c22eddf8ecf2922fb3b1b55bf7811edf0e66bdb60de0",
    "complete:n=300|kmaj|4|node|0.3":
        "8ffbe4852fd124ea108d6f580946dcbfcca151e4ebd22466c0b3c34125501f0b",
    "complete:n=300|voter|-|edge|0.08":
        "d653d02717f6ed731d850b94a1837846afa1a198a8dec0771e49338c25b746f7",
    "complete:n=300|voter|-|edge|0.3":
        "e6ada4d5e9e6363e73a63912e2cdb22d88d32e875bae372e955b2e3239969988",
    "complete:n=300|voter|-|node|0.08":
        "91704fc889d57911c4241d8aa945788502f1ca1a1f30de53e202e4b390ba511e",
    "complete:n=300|voter|-|node|0.3":
        "8ddee38351640f9f3ded86b66e0f9aad964e1cac8859cc8cb683717190b8c146",
    "complete:n=300|det|-|edge|0.08":
        "c9d34faa968b1d8acc9d749557256c9a4834439d633c1748f6aada7d8c559132",
    "complete:n=300|det|-|edge|0.44":
        "4227810624681f8a5f6ae4bb06f9592acf28f328c7b46c0c24ecd70212acb7a8",
    "complete:n=300|det|-|node|0.08":
        "dee2a74397b2d5561f4b3293998da942a1da1b03007c81c86c919fd46ab7f110",
    "complete:n=300|det|-|node|0.44":
        "a679ce17fa1c5e0ad97e0f3aa4dc9ea328ba8e7bca876f98e2c62b08acd23d6e",
    "gnp:n=300,p=0.3|kmaj|3|edge|0.08":
        "3ec2e35a5bafa5c6352d1fcbe56dbddcb1748fa06984ea9664d0793f36ab943d",
    "gnp:n=300,p=0.3|kmaj|3|edge|0.3":
        "6114734de3a6f4837395b7167c9c6ddf2ab9e4321f9c730abea7a079d454b544",
    "gnp:n=300,p=0.3|kmaj|3|node|0.08":
        "95e002cd762f7dc59e04081b84e69743b5b9169c07472a345b38c0545821a126",
    "gnp:n=300,p=0.3|kmaj|3|node|0.3":
        "62a2d410300dd0d3d18a7e4a8ebe4422570bc780885fc94fac5c5fc52555b08a",
    "gnp:n=300,p=0.3|kmaj|4|edge|0.08":
        "41c712e2ff21455c0d4c67ccc56098e0feb9bfae7328092a8ea5cc411f36fcb8",
    "gnp:n=300,p=0.3|kmaj|4|edge|0.3":
        "0e31f9b458a8e47366e8cfc8b2cf5eb4dade0d04e160d4c0dbe20b46275244de",
    "gnp:n=300,p=0.3|kmaj|4|node|0.08":
        "a0a2137d3ab2e9524f124283e622723819385611c6e57a494085a9194d29e46d",
    "gnp:n=300,p=0.3|kmaj|4|node|0.3":
        "0443e819d78f76ed659904166d68048b509e341cc9ec18a762c6d11fb8f2f95e",
    "gnp:n=300,p=0.3|voter|-|edge|0.08":
        "83f7dc80a0a043b978809f012df384a540c2330fc787053931d17a9a08843352",
    "gnp:n=300,p=0.3|voter|-|edge|0.3":
        "cb6afbda4487ae8fe39a9311645bcb2604e3aa68848b73f1a5fbd6b7dee268b2",
    "gnp:n=300,p=0.3|voter|-|node|0.08":
        "77ef0cb4a033a548c9c751d52894a1717ad71a9b05627bd46d2ac5cb16209136",
    "gnp:n=300,p=0.3|voter|-|node|0.3":
        "21a62c68202b6a7fbe3ae971fe6e2340417de9c33169642a53d268d54d98d1cd",
    "gnp:n=300,p=0.3|det|-|edge|0.08":
        "dbd09f3de1bb3f1a67c88654448b5bb3a369b26fff1c10a1b448696f1cd472d9",
    "gnp:n=300,p=0.3|det|-|edge|0.44":
        "6fe23e9088a31706e2e5398b7be01d3abe8d67c97693092153f172de35c231c8",
    "gnp:n=300,p=0.3|det|-|node|0.08":
        "5ea45bf7e632394f3a348a023b46e09669cf8dba695d244f9fdc515bde89572e",
    "gnp:n=300,p=0.3|det|-|node|0.44":
        "91bab438e8e123881700286ddc668870d94eb244d53e44cc35458dd586e23d20",
    "regular:n=300,d=40|kmaj|3|edge|0.08":
        "f05e1bdffc675a401b18033aae7703597431f35a134e5270a06493833bc12525",
    "regular:n=300,d=40|kmaj|3|edge|0.3":
        "735c005954dc2aaf2e7c056db3966b201683cd2232bd94e1ebfbb6f9843cc2af",
    "regular:n=300,d=40|kmaj|3|node|0.08":
        "e1be9b1f7bc2b698d70a83f48ecccb21aca6073e7a65331fcd474124a1e39a98",
    "regular:n=300,d=40|kmaj|3|node|0.3":
        "67c3b71bdff716b733f1d199bb13fd69e7ce2ef8b2472cc4269faecffdfe5454",
    "regular:n=300,d=40|kmaj|4|edge|0.08":
        "9e4cc41cca3ea94d60f2abf33eb70a97b0bccfbb759de31be50541581b9f7845",
    "regular:n=300,d=40|kmaj|4|edge|0.3":
        "675d09fb0613e818fc795433ebb3e1673abf109ff4d406b336b492c6ebb55e38",
    "regular:n=300,d=40|kmaj|4|node|0.08":
        "3ac8f4028ae90a7f1b3590a5afafd5c462b11bea4160e069d5ead19f7aba9485",
    "regular:n=300,d=40|kmaj|4|node|0.3":
        "1e7428e8e6bc66cab9328603f7a8bb466d926c782d7bb079c0fcd37f68da9dd1",
    "regular:n=300,d=40|voter|-|edge|0.08":
        "b41c4a88a989b90fc1197d5603105bcbe3cc7594e39cc6684d79a539f19f0abe",
    "regular:n=300,d=40|voter|-|edge|0.3":
        "e09109f9c4fe604ce4401fd9b1978b477252f0a8eba57cd4b796ff11337deda5",
    "regular:n=300,d=40|voter|-|node|0.08":
        "260213188dd976d3d16dc6a409cfddfad54f7137f1ece0c4cf2ec92c960c118e",
    "regular:n=300,d=40|voter|-|node|0.3":
        "6e7f37b996781fe99ee62ea68f643d1e55d7a7bd2670d803eeeb7a75a6fe54f6",
    "regular:n=300,d=40|det|-|edge|0.08":
        "26e01b8e5005617cc699b3eb974e49c34a5677cfda8d7e67b949e4f27a491e4b",
    "regular:n=300,d=40|det|-|edge|0.44":
        "19613a88681798b862f79e72a36d8bf13511691f8fa000cc6f2f4805d1f72c01",
    "regular:n=300,d=40|det|-|node|0.08":
        "36af3b11cb4f1e484751253b96233da106974bcd657bd0346912244f7b70e14e",
    "regular:n=300,d=40|det|-|node|0.44":
        "fea658d1b5c68d238d2c6659cb40666a842c32517fb0b6a547b5f4917ef92ec1",
}


@pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
def test_simulate_digest(case, capsys, tmp_path, monkeypatch):
    graph, family, k, mode, p = case.split("|")
    monkeypatch.chdir(tmp_path)
    argv = _simulate_argv(graph, family, None if k == "-" else k, mode, p)
    assert _cli_digest(capsys, argv, tmp_path / "trace.csv") == SIMULATE_DIGESTS[case]


COMPARE_DIGESTS = {
    "complete:n=300": "9a48897ff39b0e285fb7ae83f7ee158ba0d4ba2df67e53a42bd52d5618996d40",
    "gnp:n=300,p=0.3": "63922bebe84039e3d18dcaebec528991303712ef7d9754e7667ca7c81f750069",
}


@pytest.mark.parametrize("graph", sorted(COMPARE_DIGESTS))
def test_compare_digest(graph, capsys):
    argv = ["compare", "--graph", graph, "--k", "3", "--p", "0.08", "--q0", "0.9",
            "--rounds", "15", "--seed", "5"]
    assert _cli_digest(capsys, argv) == COMPARE_DIGESTS[graph]


SWEEPS = {
    "kmaj-edge": {
        "graph": "complete:n=200", "family": "kmaj", "mode": "edge", "k": [3, 4],
        "p_grid": [0.05, 0.15], "q_grid": [0.6, 1.0], "replicas": 3,
        "max_rounds": 80, "base_seed": 11,
    },
    "det-node-fresh-graphs": {
        "graph": "gnp:n=200,p=0.3", "family": "det", "mode": "node",
        "p_grid": [0.1, 0.45], "q_grid": [0.7], "replicas": 3, "base_seed": 12,
        "share_graph": False,
    },
    # k omitted (the loader's voter default k = [1] enters the replica seeds),
    # a p_grid range (linspace bytes) and a graph_seed apart from base_seed
    "voter-node-range": {
        "graph": "gnp:n=200,p=0.3", "family": "voter", "mode": "node",
        "p_grid": {"min": 0.05, "max": 0.2, "steps": 3}, "q_grid": [0.9], "replicas": 3,
        "max_rounds": 60, "graph_seed": 5, "base_seed": 13, "share_graph": False,
    },
}

SWEEP_DIGESTS = {
    "kmaj-edge": "199058ade3b3eff65311b112ca8a3e2c4a55c5d44e82cf14df9c251c30756ea3",
    "det-node-fresh-graphs": "8535f969cd2e9a913d2fd56f406fd5d596a1f87e343dc5e9c7f3584b62f7e40d",
    "voter-node-range": "a33e2df449ed73f12bf3e927ab1e42525c859eaca0f47f520e2cde534aec3d1c",
}


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_digest(name, capsys, tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SWEEPS[name], "out": str(out)}))
    assert main(["sweep", "--config", str(config)]) == 0, capsys.readouterr().err
    h = hashlib.sha256()
    for path in (out / "runs.csv", out / "summary.json"):
        h.update(path.read_bytes())
    assert h.hexdigest() == SWEEP_DIGESTS[name]


# ---------------------------------------------------------------------------
# Mean-field CLI outputs
# ---------------------------------------------------------------------------

# k|mode|p, with one p below and one above p*_k (1/9, 0.1651, 0.3894), plus
# one even-k orbit
MEANFIELD_DIGESTS = {
    "3|edge|0.1":
        "4df646bb40ef865d3cf2ffbb49aa08ff0807a50a5d230f5bdf78838904553b93",
    "3|edge|0.12":
        "2f2a27d6ab2424a065e656d3664d6291bee38f931214be8440eae994433b2e84",
    "3|node|0.1":
        "ab5c33511304274f505fdf8f9301f72e53859fa914629ab7cc9eab8a2f3bc63c",
    "3|node|0.12":
        "d5262444f2c614908644b732f72bd73db02ca0c313b50806d0a536e817621571",
    "5|edge|0.15":
        "47e95c34fed566c66b5f53b6ae0666d1550657bad493811c5cf009d285988241",
    "5|edge|0.18":
        "eed459044d292e5ea7d46581c21b35fccede81a67e1e31569e11e2346e03cc82",
    "5|node|0.15":
        "d32094dda001723c6804c77bfbb6636d69f37d7e02c2dda8686b3bc03633cfe1",
    "5|node|0.18":
        "6972bc12674b96d2bacfc7d068a6446e1c53d825635b4447054b9a6971fb6aa1",
    "101|edge|0.38":
        "0da625f8a14a59b23993a632a454a8540ad649374761e2946d1d4b5b98bd6730",
    "101|edge|0.4":
        "72cc0a1103f01f60a4197c809c16f22cd6d7e5583048f7d75f799bf0c9582c55",
    "101|node|0.38":
        "094005def3506b796a34ca3592e336de8e94be1aabc4a7b6a7a878a70e8f73f1",
    "101|node|0.4":
        "667961fb238cbd2a0cc44d1223f31028e77fdd2a689ea19a2475c47d0221a5f9",
    "4|edge|0.1|0.9":
        "9ca38b52a966069dd394082fbac0fffdde5d741175398578c00efc237d9e6800",
}


@pytest.mark.parametrize("case", sorted(MEANFIELD_DIGESTS))
def test_meanfield_digest(case, capsys):
    k, mode, p, *q0 = case.split("|")
    argv = ["meanfield", "--k", k, "--p", p, "--mode", mode]
    if q0:
        argv += ["--q0", q0[0], "--rounds", "30"]
    assert _cli_digest(capsys, argv) == MEANFIELD_DIGESTS[case]


# k|q, "-" for p*_k alone
CRITICAL_DIGESTS = {
    "3|-": "88dda79518148f606f90e84e227d2712f5e4b378e754b4bdc64f4e748eaf9348",
    "3|0.6": "0c9337058d9adebfa6ded308ecc71e6356a6271c4fc24d85d8c0bd328e0ef16b",
    "3|0.9": "cba61f8d679940cec52a42d658b33d4e19eaa18c350e411c074f084743b11fe2",
    "3|1.0": "b19bcc7f56b5e8573e1b8930a4634ccf9cf1ff588de0bfac46b9c156a1d49d53",
    "5|-": "e9b22b7b4e235849d5d03efbda17dde75d590cdafd76b22b5a037d7b7f71ea27",
    "5|0.6": "6bbfb8303b3b999554b082fed32c2de75eda6c84548df31a3e12e59eb28aee1e",
    "5|0.9": "10e53c99863f7f1cbead9f0b111884b5a3fc50b0e29fe56d7d0be6e839c90d2f",
    "5|1.0": "81c1c3112973ba9767f15397b7d9dc23ebd4dedf3c7056bbdda3d54d5c299847",
    "101|-": "99024770efe4c69ac6a6cfc832d5ea084d12ba1512f8b95a8e3b57e476d65b48",
    "101|0.6": "45f97fad423e2950e97bfca643d51732e3930e5d22b132d9ac44e8d4d712f782",
    "101|0.9": "74fe2beeac6622ab47db5eb9d89917c7bca4ef1bf3e20ae6456c00d1a4175836",
    "101|1.0": "128de1a217049ec2a59e362628fc58e8944e35e53ecba4a2519ab9f2fc5ea4b7",
    "257|-": "b3eebea89443f439b30ba07a13eda2ab0c0debe178df75c3e127da156867f598",
    "257|0.6": "c1616c4081acdf834e1567045e2f7096fd85e7ed91e249ed817b3117f3aae0b6",
    "257|0.9": "43d9c5a97a5a96285f5bd0928dc46beaf686f0504e80bbe363dc8968f5107f44",
    "257|1.0": "8ea5865cb260f72bf378c23de8b041437d6912e71ce1752e93b548fe725a1fd0",
}


@pytest.mark.parametrize("case", sorted(CRITICAL_DIGESTS))
def test_critical_digest(case, capsys):
    k, q = case.split("|")
    argv = ["critical", "--k", k] + ([] if q == "-" else ["--q", q])
    assert _cli_digest(capsys, argv) == CRITICAL_DIGESTS[case]
