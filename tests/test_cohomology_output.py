"""The cohomology command prints exactly what it printed when these
hashes were taken: the sha256 of stdout for A2 and G2, every module kind,
every format, sweeps 1 and 2, at the default --max-i; and for B3 (k = 3),
C3 (k = 4) and F4 (k = 8), every kind, sweeps 1 and 2, as a table with
--max-i 20 --check, so that the a_i rows of F4 (0 for i < 8) are reached
and the totals of the d and t series are checked."""

import hashlib

import pytest

from cli_runner import invoke

PINNED = {
    "A2 trivial table 1": "a9981c750f4483279d288ef6b6a828c6d1e1798833138eb3d86157b47186f0e6",
    "A2 trivial table 2": "889a26fc31a43a535f3d07a26f05c6076b0570d7156a92e3a960d42c17639695",
    "A2 trivial json 1": "c362be74adfd6904d2c5ad35518dab9e4761ba41110587a25041b0c640fad04e",
    "A2 trivial json 2": "2d6aec3cd09b9f7444016a3198d24384b5726d9ba6223b0f626fefcd034493e7",
    "A2 trivial csv 1": "3a860f61b275733b7fbc859d0b3eda06705a4d0f2ef90388c0b127cb05c720fb",
    "A2 trivial csv 2": "ed60e0635c61ae39a38d873e304159320626f0b4b381d31e6f882c1b0462ccd8",
    "A2 induced_wall table 1": "cdc91458335691394274898b5ff85ae2e774e2b538562dcdb28781f0d6541c11",
    "A2 induced_wall table 2": "ecb0e9bbdbc10e94c199b07021240863118a566b46bc94c85d785e1c9f908711",
    "A2 induced_wall json 1": "9797d56016078fe561f8a81427e5586a04ab474008b08c6556b2fe7ac97f9123",
    "A2 induced_wall json 2": "0d8f065e18ae016e823393ed926ac49bd037ce53ab517a6aeef138315ae23735",
    "A2 induced_wall csv 1": "bbac30523c4b7a87d3f563cba250e65c0668eda57c1efe168ba4e5c9318d0aa5",
    "A2 induced_wall csv 2": "1038203b31ddb16a044c8ce47d8cf5f0a7b872ce37472af5769163fea81a7708",
    "A2 tilting table 1": "848a67075e2260100424c41e5a02e66b222c2465d42bc3b33ca0bb4b274ffed5",
    "A2 tilting table 2": "aaf0ce1f5c8baa631aa9871b02201fc9b16526b7187427213dae5e1ea8b24e1a",
    "A2 tilting json 1": "17ec21e23019e66b92715f7c7a960688d81e59fbf420145f8e12c0465d667b79",
    "A2 tilting json 2": "44f8a4594f0b4b6967f5247770f717c420519f40969eb3421a6dee7fba18c858",
    "A2 tilting csv 1": "57755dbc93a814486d962fd95c2e0b9293ec119cb4547f775d90c03ea43bbe14",
    "A2 tilting csv 2": "8f8bcd99307917a6ec78f19aba7ae653045fb592c574c6c1e531b068fc098061",
    "A2 weyl table 1": "9677a6526f7d647d8022b0c51ba02f980048df36dba5f6fe4b2c359a3fec994b",
    "A2 weyl table 2": "90baaa0367ab57aebbd64b0da5c28b55e32696b0f1bf21981bb0fdf9b9322796",
    "A2 weyl json 1": "bde126a7dc9ad21ef3f7eadf89febc6a9c3dc76b15eec039e74ca9579e539338",
    "A2 weyl json 2": "59a8a1efc1cdc91d7783168bfdb4d9481d589a820ba1aa12fa08425d45040d93",
    "A2 weyl csv 1": "e9421c3194bd9247d1b15fd2c6d3c2e1e3ec82c3edb9878f595e7fbb312877c2",
    "A2 weyl csv 2": "76796738ffd3cbc16f47a1be86b2fa955c3ecbc21ff4c142e41a40dbb856c4dd",
    "A2 simple table 1": "b283680dbde554b45d8773a6846951e3fd2002c9b58cbfad9b5260195ecde06f",
    "A2 simple table 2": "a47bef8c00c80a8549fa3e3d7422464b781c4c3a9112792b71d9f28005c279fb",
    "A2 simple json 1": "edc2e123ef066a0f3d326ca405f9d3d1124770c7a9d108de94e5e21136e2b464",
    "A2 simple json 2": "00229fe4c04f49536d4c4e914c26f344bfb16d0ad96f3d7c5e6cc7fbb6c66374",
    "A2 simple csv 1": "2a783735540f43c4ccd109b53f2f7a980d74edfb25228a518b0dfc5bc754a658",
    "A2 simple csv 2": "25f679728cddf29abdd6ac46d01a681007d96be988723ba7b5b19ccf4c94dcaa",
    "G2 trivial table 1": "0be0d6729763c75011ef4d4d326424dec54f8a914fe8fa95616087d96fb06d89",
    "G2 trivial table 2": "e7eaab3f68ea6a41da114daab7b4a1adc2fc86da32d84109d39c91f155c01ad4",
    "G2 trivial json 1": "2575a9a604690096b2f480a92ac9d8b937469c6aaaa74c9d22a6c08ac280f0b8",
    "G2 trivial json 2": "b967102dea10a51307ffceb0d9b05043ee869999341b634da611d5798bfbdd36",
    "G2 trivial csv 1": "5b44ec1ba26eff89a3f2ba5a07054538315ab818e14140655abae264414dcb3e",
    "G2 trivial csv 2": "fdcf853dbc6ae53fb0e131bd569fe18f920834728a8e827d42316e352f5b5c66",
    "G2 induced_wall table 1": "76bcf73d3e611db4e701d49af166b3fe7e0aac92fd6645a911c27aae5c339cbf",
    "G2 induced_wall table 2": "80a1495f92832dfaf2015c97e1f33a1cfc4de1e8f87f872e29ba7f53b1a7c613",
    "G2 induced_wall json 1": "71cebea5ab4d0f83a1039b3136258b7d4cffd5d73989428f06a4bfc75f326e7d",
    "G2 induced_wall json 2": "71cebea5ab4d0f83a1039b3136258b7d4cffd5d73989428f06a4bfc75f326e7d",
    "G2 induced_wall csv 1": "2c14357ef05bdd15a5f5d94ae3a2c7a743b3dce8eb11ee6b03ec77e7052148d9",
    "G2 induced_wall csv 2": "2c14357ef05bdd15a5f5d94ae3a2c7a743b3dce8eb11ee6b03ec77e7052148d9",
    "G2 tilting table 1": "c3c2de1ae1aa13a03da0e4fe9ef1dfea775f6e37ecea2ceea63f8118709714e3",
    "G2 tilting table 2": "c6ed782bee1cafc8a24172ea40b03d5627396c80804218b73c7cb09c4c02bdbd",
    "G2 tilting json 1": "e7372fb943380d058f0bb897f6cb3ed6fd6f78834471586981a20fdaa63300b4",
    "G2 tilting json 2": "257a6cdd89633bcfec9f5a2a694ead3ee42b79d915bb3233ac20f5149e47cd09",
    "G2 tilting csv 1": "579744992064eaec60f5c0b01523b1c8c08a98ba2bf09694f3f4f4698bd885a4",
    "G2 tilting csv 2": "5170cb494c6b7d0cf44f2f1972290df8aaa37cbde0182f99e09661b9666f2354",
    "G2 weyl table 1": "4800f81eeacb8ee3572f91d519332b19433721d9a823929d9c9f3b806530065c",
    "G2 weyl table 2": "afec412d3ddd9378716ef67c3dcb082a2fd46cde356ad777d01db847c80b653a",
    "G2 weyl json 1": "fd5d3e93d0ae86b0038904bc82ef3616633c9d6918e8d34e72cf44136bcf248f",
    "G2 weyl json 2": "690f29547beba5d66984e2083d5c663f56ff7bfe29e0d88373641b5b77f2e2ae",
    "G2 weyl csv 1": "aede59a604b20d3dc96b7ceea325e18b75ebb09dcd7bc151452ce5a8f0a73031",
    "G2 weyl csv 2": "3c31664da6f5b9d906eba9d571999de180cf4239cb9b06b26d0828c81acd4668",
    "G2 simple table 1": "2bfad2d31472b569a91e582c3f170b6f836e69d2ee549c424c789cff093f5855",
    "G2 simple table 2": "f772b53fd4c9f271729d8df5016d63b7fdd079b0955a2bef62e76f37515ff214",
    "G2 simple json 1": "c75b4cea65ac92f92f7056568953de0de1afdfa74be9abd69d2cc02e56ae4049",
    "G2 simple json 2": "aac7ba2344749e8f576e8fad64cc43ef743a847e4302354d48c06c01559cc124",
    "G2 simple csv 1": "97be5c0be73e270ba222aeda5cd4614694fc9eed3c0f4687f1f4e25936ce27f4",
    "G2 simple csv 2": "f094956f116031afb4e1e346f91e281f3160c60df48942fe2822475576b84255",
}

PINNED_CHECKED = {
    "B3 trivial 1": "63465f4da1fee3081034e458c7200cbefb2e53c6081d3ca8522770f4f088210b",
    "B3 trivial 2": "5f0cafa8b049127f5da9ff45bee1142bfc9b541ede7c5e678a9cd600ac359a81",
    "B3 induced_wall 1": "5512b2c36e2870df20e1028ae7464e334f83108551aeda5742c1111ed18efc4a",
    "B3 induced_wall 2": "84e5064fbd1634c6bb7c44e710ecf3a95d4d47ba04fe642472d12dd5cd3e0810",
    "B3 tilting 1": "2c27d17a2b3099166fdec5f3a9c34f7b9cb68f1ef2edd760cdd4fdfb0e69a363",
    "B3 tilting 2": "c80cdc2eb89dd48d7b38e972d67e6ea57719ff44410f7f2e376cac639da03897",
    "B3 weyl 1": "9166cdb6fc5f2aa72c77167b949cf03df86c9505a4f2f9ceb5c37e7a6ea1d1d3",
    "B3 weyl 2": "c72def903bed0b8086303f4d18c434f6c2c50b5f8cfa59ea004cfa47fa0248b6",
    "B3 simple 1": "83af14842510122e9fd7884dd347786d63bc5f5a4b795119544905a96ad4a44a",
    "B3 simple 2": "bbfa030ff88c4de1ad167cad2b2e1a43ac58ef4284b7da0c63ef9cece7e0b7ae",
    "C3 trivial 1": "3563091eecc816251f81cbfdeae4a5d92d3a100ae51f2a122e41ffd7c3af17d5",
    "C3 trivial 2": "c6677b162d73124033242b64ee776c93c39086bd3f2f21ba803d295a0d06444c",
    "C3 induced_wall 1": "088dc9c2ab57fe8269f562e4a1c8d7199dbc61a14216b47f5e0260ab10c64480",
    "C3 induced_wall 2": "4b6d4d5978cd4fcac8fd210d2e72dfed955ed7bdefcd9c5155b290dfe7e1a7c0",
    "C3 tilting 1": "02467d829424dd5d60155480aba48d1aa216a360afaa5083aa140aabeab243ba",
    "C3 tilting 2": "50ec83dd979a78aa10e06be3a37beb7fdd7a4444d38679ad624e1310f220ac35",
    "C3 weyl 1": "b61ab37feb986dd915b8dfa04e787339d0740b67ffe996cbc89ec56813ee6d18",
    "C3 weyl 2": "a14d35824ee2f81db7f349abe2f2fc9b33ce3764a9e6c610ecd3df1bf02e2625",
    "C3 simple 1": "053181ca8169c088867b9997237e3b78c1d58634f19b225c1ea6fed9605cca9c",
    "C3 simple 2": "2a89cde397248e62d374eccd2a1b65ba4d4f3f94518ce084d093e928cbaa5ffe",
    "F4 trivial 1": "de95a3e5d7e931954fec19c0421ed9520278ede2940752551c3719dc1219b644",
    "F4 trivial 2": "6119b022f22dfca7ab2c46e61bafb76ab34a7725049f6adf83f42a43da2f0cbc",
    "F4 induced_wall 1": "93a867bb3c60b618c61f518acbfa861e0cc1e6bea2d4883049aa4da99e24d817",
    "F4 induced_wall 2": "a400ab34485f9f797eabe8ec3acc65003ea77c42a27541222b5822afc08521c2",
    "F4 tilting 1": "264bb25ecd2e197e2ddab614adc5d4ef440cfa672a3c87471609b8a04c32ffb2",
    "F4 tilting 2": "9c68dba57dab1922d5bee472ca7cb99d1cb701a2c0934c0a22f7236a7c3cee5b",
    "F4 weyl 1": "860ab6485051df7c020271d5590866eaa96b09c3fc6d691c9691272d68f34fb7",
    "F4 weyl 2": "a55b0ca4221cdbfd374fc07d217f61080994cabd22b0c4f0c6514b1cb4c3dade",
    "F4 simple 1": "e5a8667b03d43c87b874df8c95dcf32f100bc8ed86cdd790bd58806ba0742bee",
    "F4 simple 2": "197246776d73986536e5486ae0ada09c6c4b51b7e677e1f832a2af37d74b5d87",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_cohomology_stdout_is_pinned(case):
    family_rank, kind, fmt, sweep = case.split()
    result = invoke(["cohomology", "-f", family_rank[0], "-r", family_rank[1:],
                     "--kind", kind, "--format", fmt, "--sweep", sweep])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED[case]


@pytest.mark.parametrize("case", sorted(PINNED_CHECKED))
def test_checked_cohomology_stdout_is_pinned(case):
    family_rank, kind, sweep = case.split()
    result = invoke(["cohomology", "-f", family_rank[0], "-r", family_rank[1:],
                     "--kind", kind, "--sweep", sweep, "--max-i", "20", "--check"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED_CHECKED[case]
