"""The Hilbert series prints exactly what it printed when these hashes were
taken: the sha256 of ``hilbert`` stdout for both varieties, in every
format, on A1, A2 and B2 to degree 6, C3 to 4, D4 to 3, G2 to 24, F4 to
4, E6 to 3 and E7 to 2.  Each run exits 0 with nothing on stderr.  (G2 to
degree 12 is pinned in ``test_command_output.py``.)"""

import hashlib

import pytest

from cli_runner import invoke

PINNED = {
    "hilbert -f A -r 1 --variety nilcone --max-degree 6 --format table":
        "1a111264fe920bf5223590ea8a768927f76a45f835a3bf98cf7750e71bbda92c",
    "hilbert -f A -r 1 --variety nilcone --max-degree 6 --format json":
        "07e77ce65fe4dfb8f48a7a2102a501665aa7bf014a07af488105e4c70ca25545",
    "hilbert -f A -r 1 --variety nilcone --max-degree 6 --format csv":
        "2598c163cf33eb5ce02d029bf0bc3aed37a0b4bd0884049f373195663821dc35",
    "hilbert -f A -r 1 --variety subregular --max-degree 6 --format table":
        "c5d0a3239f0e4698f4e09e61e83155635f6768692f420ce5bf46610e5728a745",
    "hilbert -f A -r 1 --variety subregular --max-degree 6 --format json":
        "ecfa012999dc51abaeb98ca619562135e2eb976abb00f686285ae96b248ee833",
    "hilbert -f A -r 1 --variety subregular --max-degree 6 --format csv":
        "523a20a0132c4461027fb700bf1c8cefa7e1e1fc0d5d7d3c5a149af44c52d243",
    "hilbert -f A -r 2 --variety nilcone --max-degree 6 --format table":
        "bd3cda8fc21f46b1122be1e8882884ed74bcd3a28f2ac03a05d4fea8daacf326",
    "hilbert -f A -r 2 --variety nilcone --max-degree 6 --format json":
        "d773cc50768c6e33e0291b72a8a04a04e462d1ce2813c2b5aa768e0c2d35f1dd",
    "hilbert -f A -r 2 --variety nilcone --max-degree 6 --format csv":
        "921ef89371ba2bc348fa2d32fd356e77a038f0ac48d14b64474fccaa0f531f62",
    "hilbert -f A -r 2 --variety subregular --max-degree 6 --format table":
        "22f0305fd4b7961336929198f06932eb6454248cbcb74bfd2ad2b283de20f0c3",
    "hilbert -f A -r 2 --variety subregular --max-degree 6 --format json":
        "65128935440d26a41bbc6291548675b968a6f8f3ec3a37fea03c09fcd0466718",
    "hilbert -f A -r 2 --variety subregular --max-degree 6 --format csv":
        "0351347b3712c30f51eab3b95f65c1f2c17a5ad63d50da76fd60bdffcd5f7ec5",
    "hilbert -f B -r 2 --variety nilcone --max-degree 6 --format table":
        "e351d2b7d90c1cf30ded6617f6043988903acb6ea915804ba9dcd3f9219aed5e",
    "hilbert -f B -r 2 --variety nilcone --max-degree 6 --format json":
        "0933b0498a66914986263482e94c736c22fb6734b160e709c4363474e8ff9ba3",
    "hilbert -f B -r 2 --variety nilcone --max-degree 6 --format csv":
        "5a39c8b3218ab82a6d7ebd39e31e2caf389e426e0ab469e066766ec54724351c",
    "hilbert -f B -r 2 --variety subregular --max-degree 6 --format table":
        "7c747f95b39abc0aaf72d4e878097ec9382d2c750cabc01a168c9d87c4027f44",
    "hilbert -f B -r 2 --variety subregular --max-degree 6 --format json":
        "cfa3ff4e72d969e2c11eec571c3ef3babef7739de1764086c2ba041808e32838",
    "hilbert -f B -r 2 --variety subregular --max-degree 6 --format csv":
        "7a4700e9e0ab0724e6bdd03d1941169a3979d7cb2c2bb57c088e9f158de57034",
    "hilbert -f C -r 3 --variety nilcone --max-degree 4 --format table":
        "7b4667fcd4c75e8cc2491bb695d187f5bd29b06098be04eb0844f172040984dd",
    "hilbert -f C -r 3 --variety nilcone --max-degree 4 --format json":
        "1a0b98719e0c6f3e3076c22e0bcadff51866355b6e9b7d7235845a1c9f4c139f",
    "hilbert -f C -r 3 --variety nilcone --max-degree 4 --format csv":
        "0d6b4f70d125872564b7b36311a7b1ac24a53eac4a8d3d747bc22dc61f3bd443",
    "hilbert -f C -r 3 --variety subregular --max-degree 4 --format table":
        "d15f03b2d9e730687cf18caef550d6a189d3d2cb3c91071f543724d143063ecf",
    "hilbert -f C -r 3 --variety subregular --max-degree 4 --format json":
        "8f0db1cf695f4def6f2cb5899148247b8ad17863e6e7ff50a4c177a4d89a9627",
    "hilbert -f C -r 3 --variety subregular --max-degree 4 --format csv":
        "91ff63a315f38fc025f6354195822cb827852cbf3fb707ae7a3ea75917d26606",
    "hilbert -f D -r 4 --variety nilcone --max-degree 3 --format table":
        "ef46dd13da7660b009e1005a3ff016d182db4e9f9198b02e737973433ee44a0f",
    "hilbert -f D -r 4 --variety nilcone --max-degree 3 --format json":
        "e66fabbbea497f2294ad72052410a8f218fabcdadcdb9bc4eb53037273f815a8",
    "hilbert -f D -r 4 --variety nilcone --max-degree 3 --format csv":
        "c2c37bfffdb32735c8646d60cffb8913ccef0d025839fca209e54d9f2eff06c2",
    "hilbert -f D -r 4 --variety subregular --max-degree 3 --format table":
        "f72ddcf27193be26a6b81d78b3e08a59beefa403273ee9dd501e9093ab34a67d",
    "hilbert -f D -r 4 --variety subregular --max-degree 3 --format json":
        "27fbbc5f90c8001af697cf20dd523107def29ecdc285de7bf89312b20e5c7266",
    "hilbert -f D -r 4 --variety subregular --max-degree 3 --format csv":
        "c2c37bfffdb32735c8646d60cffb8913ccef0d025839fca209e54d9f2eff06c2",
    "hilbert -f G -r 2 --variety nilcone --max-degree 24 --format table":
        "d9a9451d54f8f76e5f71a0c195b6781bc9308cdcef4250d122acfd33526a3755",
    "hilbert -f G -r 2 --variety nilcone --max-degree 24 --format json":
        "86f541c4d6c3c23dad9b252265537d593f02b5f7bf294c8b1f0274df94712456",
    "hilbert -f G -r 2 --variety nilcone --max-degree 24 --format csv":
        "6f839cf49b1e04e7e4e8a9c588404686b78aff57bbb476b9cd1e2de512cc3b31",
    "hilbert -f G -r 2 --variety subregular --max-degree 24 --format table":
        "0630e88ac96ebe997958dcc9f9048fabb7b6891aac10e6ab82d4faeb245589dd",
    "hilbert -f G -r 2 --variety subregular --max-degree 24 --format json":
        "f26c35ba392fbf6d2e0f3bf55ac880178b9cc3083fe09709cd97718009cef32b",
    "hilbert -f G -r 2 --variety subregular --max-degree 24 --format csv":
        "f291847c84657f05dddc79ee42a735cdc5e43aaafbe0a6ef4b0c2e88035654b5",
    "hilbert -f F -r 4 --variety nilcone --max-degree 4 --format table":
        "a1c5f7e6f296e0b2deaf692680f3facc6c272b320b6c600a05a8793308e1ad42",
    "hilbert -f F -r 4 --variety nilcone --max-degree 4 --format json":
        "b4519c115157a71a7e27e6a52d3f773750a9deabd5257f7776cc755580543ef6",
    "hilbert -f F -r 4 --variety nilcone --max-degree 4 --format csv":
        "020bdf294b790eb38447b0ef807db168d62dcd3a248fc42485274cc8b91d6b04",
    "hilbert -f F -r 4 --variety subregular --max-degree 4 --format table":
        "7f1750710796f4783cf383455a411ed745be441b78a2bcc10b0ac332081a3fe0",
    "hilbert -f F -r 4 --variety subregular --max-degree 4 --format json":
        "29e8289c67ac0eb76187aa47ab18eccd59b72f2d0ba4f7fa5d88958369a100b4",
    "hilbert -f F -r 4 --variety subregular --max-degree 4 --format csv":
        "020bdf294b790eb38447b0ef807db168d62dcd3a248fc42485274cc8b91d6b04",
    "hilbert -f E -r 6 --variety nilcone --max-degree 3 --format table":
        "6d44225f56a471e047751df67e06518fb65a8be22e9c625c266e5f8d0963dab3",
    "hilbert -f E -r 6 --variety nilcone --max-degree 3 --format json":
        "d32008a2c42cfdc76273a4b0347b4122cad368589e9ecdafea8a2ba498d57d00",
    "hilbert -f E -r 6 --variety nilcone --max-degree 3 --format csv":
        "5018d1e64c67daab9ed5e7976f975495419bcfa18a42256af6481136c8798f8c",
    "hilbert -f E -r 6 --variety subregular --max-degree 3 --format table":
        "00ecca3336d8ea7e20b2a5f8b9f634ab344fd0130f510daff40972187e547b59",
    "hilbert -f E -r 6 --variety subregular --max-degree 3 --format json":
        "7cd90e1873130b5943271e5b45bbc1aa559a43b0c39473b12132dca3f8d017d6",
    "hilbert -f E -r 6 --variety subregular --max-degree 3 --format csv":
        "5018d1e64c67daab9ed5e7976f975495419bcfa18a42256af6481136c8798f8c",
    "hilbert -f E -r 7 --variety nilcone --max-degree 2 --format table":
        "782737b6b54eb6a2134a95cbf22e66dce649dd64ff33060f3c063af16eba4d65",
    "hilbert -f E -r 7 --variety nilcone --max-degree 2 --format json":
        "7e11475b44b7fcac77c7e7563b85d940c08ba1d3786affd7ed42749d297b1698",
    "hilbert -f E -r 7 --variety nilcone --max-degree 2 --format csv":
        "fdac5872d3743f846bf60b1dd62c90b826c4853055407a6a2898ab48e26cd182",
    "hilbert -f E -r 7 --variety subregular --max-degree 2 --format table":
        "ae6f65abb513504614640e0bb643b34f24fb4a523540e8f124f980bba9b816c8",
    "hilbert -f E -r 7 --variety subregular --max-degree 2 --format json":
        "968c15b90ae6aa679bbc3aa1ab8454cfe2cf43a75a977c23ea8c212f4028b5a0",
    "hilbert -f E -r 7 --variety subregular --max-degree 2 --format csv":
        "fdac5872d3743f846bf60b1dd62c90b826c4853055407a6a2898ab48e26cd182",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_hilbert_stdout_is_pinned(case):
    result = invoke(case.split())
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED[case]
