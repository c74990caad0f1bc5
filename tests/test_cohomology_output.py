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
    "A2 trivial table 1": "5efc9eaa5f7d267abeb8b86658935dd53359e7eaef9dd394ced98d6c81d9bfaf",
    "A2 trivial table 2": "9658c86646496271ef5cf6dcf57fb4dfb7e6087c83324e5105f07469ce8b9e48",
    "A2 trivial json 1": "04679f683404b4fa1a3b23e6405c391dd93f99161a86c4cd6ac9b57f32e4415d",
    "A2 trivial json 2": "3e82e36e4389de62a3600b4de4231a6c2da36632665480510b33952d43ac0cbe",
    "A2 trivial csv 1": "3a860f61b275733b7fbc859d0b3eda06705a4d0f2ef90388c0b127cb05c720fb",
    "A2 trivial csv 2": "ed60e0635c61ae39a38d873e304159320626f0b4b381d31e6f882c1b0462ccd8",
    "A2 induced_wall table 1": "65da9a38b6004c78253363c2465454ff5a85e001be8d82a3b6089e8718a246bd",
    "A2 induced_wall table 2": "028cc8e824ae6f23dc2adab00e4895df4373081444dd583d8e47acf619cc5846",
    "A2 induced_wall json 1": "89fff77438f1410a8616d22642fc21db4ee99cfb354ff2d7c6d9195e259c22c0",
    "A2 induced_wall json 2": "e8c59ddc3af5871adc5e73dea910901115975e0f13708d210bb79bda05f9e864",
    "A2 induced_wall csv 1": "bbac30523c4b7a87d3f563cba250e65c0668eda57c1efe168ba4e5c9318d0aa5",
    "A2 induced_wall csv 2": "1038203b31ddb16a044c8ce47d8cf5f0a7b872ce37472af5769163fea81a7708",
    "A2 tilting table 1": "6a0a36919f1d41a90073cdd5f3909c199119ecd5a302592d22dc9bcdba320e76",
    "A2 tilting table 2": "5842436c668d5c334ce16ad1103220ee33a4e9013ef1fffa47ed3fad00a04d60",
    "A2 tilting json 1": "2042ca0573284b7bb5b906c494a640c438533a4096230c7a367d933b09467ec2",
    "A2 tilting json 2": "f59eddeac1fa845e83b0be1259fa5c003b332872610dfe158129c187ff727714",
    "A2 tilting csv 1": "57755dbc93a814486d962fd95c2e0b9293ec119cb4547f775d90c03ea43bbe14",
    "A2 tilting csv 2": "8f8bcd99307917a6ec78f19aba7ae653045fb592c574c6c1e531b068fc098061",
    "A2 weyl table 1": "f528980e8a5b9482825ce61aff6f234c99cc589ae99d6e92286ccc323f505521",
    "A2 weyl table 2": "869de230630965b96283add1133a14140af1b2aa6c9bf734a113ebe40370d102",
    "A2 weyl json 1": "9cee117e9406a230143d48cff956cc78f2c87bbffadcf450ab2140c18c75d87f",
    "A2 weyl json 2": "4fd27af3eb3306fa109e119f5abb4f27127d951924a1335464138958fb5017a7",
    "A2 weyl csv 1": "e9421c3194bd9247d1b15fd2c6d3c2e1e3ec82c3edb9878f595e7fbb312877c2",
    "A2 weyl csv 2": "76796738ffd3cbc16f47a1be86b2fa955c3ecbc21ff4c142e41a40dbb856c4dd",
    "A2 simple table 1": "b587ee18091450339dcc71d6b738490c0b74bd1f367ef259b233e6a59b0191d9",
    "A2 simple table 2": "673bda7475b66d4345ee8488b848d682e8efd2e709c6bf57f907bde4db0df704",
    "A2 simple json 1": "b8ac3c22cb3414a0a6ed10352dd44403f9d0c80728e674023c0d97b3ca89744c",
    "A2 simple json 2": "cea4322daa45f1c0f20de0d5ffa363a99abebc4f632b81261bbcb32961a5822c",
    "A2 simple csv 1": "2a783735540f43c4ccd109b53f2f7a980d74edfb25228a518b0dfc5bc754a658",
    "A2 simple csv 2": "25f679728cddf29abdd6ac46d01a681007d96be988723ba7b5b19ccf4c94dcaa",
    "G2 trivial table 1": "9b77984935a4a0baef07b84a0fc987c68c650eb273ba8d6f21f5b6f4067bc612",
    "G2 trivial table 2": "f3ee355f3e379edfddd1faee2e8e0df9a13d86c7c4e2d0799140c7e359f783ed",
    "G2 trivial json 1": "403a2920e21c0ae4e3264250d1f571211a953dc0ad064c120961337a7cac02f0",
    "G2 trivial json 2": "4215bd20fc9ca5ccc14de34f51772b2bd49872c6ae9158abe98affd6f6a34983",
    "G2 trivial csv 1": "5b44ec1ba26eff89a3f2ba5a07054538315ab818e14140655abae264414dcb3e",
    "G2 trivial csv 2": "fdcf853dbc6ae53fb0e131bd569fe18f920834728a8e827d42316e352f5b5c66",
    "G2 induced_wall table 1": "300fbff23f16f10f862d247913824272f2db316842246fcb02ff9dcfea31f6d6",
    "G2 induced_wall table 2": "9e654dcac84beefbbd87c4993ced2fc8ac94ac39d9e2dee3ddf1609e0c996cc2",
    "G2 induced_wall json 1": "b5f0ccd326e8b5665cc22d61eab732315f94db4867d78a12fbbf1812685a159c",
    "G2 induced_wall json 2": "b5f0ccd326e8b5665cc22d61eab732315f94db4867d78a12fbbf1812685a159c",
    "G2 induced_wall csv 1": "2c14357ef05bdd15a5f5d94ae3a2c7a743b3dce8eb11ee6b03ec77e7052148d9",
    "G2 induced_wall csv 2": "2c14357ef05bdd15a5f5d94ae3a2c7a743b3dce8eb11ee6b03ec77e7052148d9",
    "G2 tilting table 1": "f5b51849b5af0365fb7ad4ae3d3b4539e692c6338aa21c2a2382222fdbb2c161",
    "G2 tilting table 2": "f577a205de311c2c02fb5b31f5505c9e3c981e898ddda936a5580203a159fabb",
    "G2 tilting json 1": "261d12c600cf3381a08671b17e06b12035edbbe7ceea2bafb7e11ceb589936e4",
    "G2 tilting json 2": "8148e834312ebb845c07279d8851914c7ff792766b193e46c98c91dec1b683ba",
    "G2 tilting csv 1": "579744992064eaec60f5c0b01523b1c8c08a98ba2bf09694f3f4f4698bd885a4",
    "G2 tilting csv 2": "5170cb494c6b7d0cf44f2f1972290df8aaa37cbde0182f99e09661b9666f2354",
    "G2 weyl table 1": "7ae1999a0dfe6726a948a774a3bfa6ccf22eb5984f15049e9a3c836e89304c56",
    "G2 weyl table 2": "aa3d7ec488d1ea41d47400825489b194bf234fe43559ea381f2cecee7901a0c0",
    "G2 weyl json 1": "54184a33e832836aeff081c8b13b244b0f65f87ee309245f5d80b21815931258",
    "G2 weyl json 2": "86c7b720785cf78e0772e0bec28e80b5e4e2eabab980133161d8016fed3c8cde",
    "G2 weyl csv 1": "aede59a604b20d3dc96b7ceea325e18b75ebb09dcd7bc151452ce5a8f0a73031",
    "G2 weyl csv 2": "3c31664da6f5b9d906eba9d571999de180cf4239cb9b06b26d0828c81acd4668",
    "G2 simple table 1": "7087c24df99f4e5e403152cb945e4a05e066a6637947a5382afc7f46c516fdc9",
    "G2 simple table 2": "e048e02f4562a5b7e9ef46f8e0045a02b33036901d5eaa8442bf39ecfb049563",
    "G2 simple json 1": "cf2c0f90d2d9b3cfe507028226711579c57a937bdd020e62f80995dbf05ea9d0",
    "G2 simple json 2": "075f2d05b2eaa2f9b3d750c9b2106282f071575dbd990ef89bd8d9f497e5e73f",
    "G2 simple csv 1": "97be5c0be73e270ba222aeda5cd4614694fc9eed3c0f4687f1f4e25936ce27f4",
    "G2 simple csv 2": "f094956f116031afb4e1e346f91e281f3160c60df48942fe2822475576b84255",
}

PINNED_CHECKED = {
    "B3 trivial 1": "5f239e99efa5108108b7587b3fff9694119afb4553c8658b6ee9541cbc2639c8",
    "B3 trivial 2": "fdb98c50c18d4183cc9e75e37b72c8f49a46ce292994f8e819591815be1c5c03",
    "B3 induced_wall 1": "3193c6105081f55fbecc931a1503073da67f1c403a20d94b36473b5acdaf5a9e",
    "B3 induced_wall 2": "cca20a157bc2b1c42042e82d67f378b8b6cb7bed83c1eab128537e1fa9333f42",
    "B3 tilting 1": "aded0b841ed80f8453f80d5c38763e3369f9229efa44a6d156248a75fc673a02",
    "B3 tilting 2": "8091fc799b1e55572eddddb632d0c6f95aee2a461b6f5da4ba4fe40cfbff63a1",
    "B3 weyl 1": "4490aabf2ba921244210b5c6e134b70224c4d8a3193ed434cb4985da46adece9",
    "B3 weyl 2": "bbfa1067d2aae7b618d082573498467a32fddc3bdda022ea696f4730054ae284",
    "B3 simple 1": "9da3415ca66de757860165e464f06d35f20e4d04a94fc78d782f8fdedd7f55f7",
    "B3 simple 2": "d6223d48daa74548013e5bd8287a1f22b02f4065e23546a8d27ecd8cddd8b7df",
    "C3 trivial 1": "8e69fef5f1cdfbd8167edb38383cddbeaa6000df38ca14002a0e97cb0e732b01",
    "C3 trivial 2": "1589c2bed280dadbd667f80724e5ab7d473c90898bdf9512ff8d7b7c312cf78c",
    "C3 induced_wall 1": "8c66972f16cf3fd5baee2ae1a19ed93f74987631b47e3c0c9fd2c7c20f386d0b",
    "C3 induced_wall 2": "fcf285b2283acacc25f82a229d81247d91cc64b2f593e8500dc9f5c1ee2ee563",
    "C3 tilting 1": "84c9f0ed111761d30cc8ac796fb0fa7d51523d6d4eda6a026228e23b2dca2f84",
    "C3 tilting 2": "d76345cc581ab5f39c6cdfde38f63c7a04e2451beec25b6bd890c70fa17e3b63",
    "C3 weyl 1": "b8d9d5ad1102bcf3afe03ea4f3b16ab59f25e9dc229f64af7d1d92bfda16d231",
    "C3 weyl 2": "55fbc1a360a8ed2ea93a4ad2c68603d9110b07c8e5467f2031bb66a90d1a34fd",
    "C3 simple 1": "041e641c2bc208fdaa06b17ce83aa283fa955910b518575bea6e2677ed6f7a10",
    "C3 simple 2": "faa5b90cc6684d517c373fb40482b73b4c51eb3b4c59e11b4d8f97ff1bf5648e",
    "F4 trivial 1": "8d1c1d9e9709b75ed9daaa0663acf483442341d74c223d0cec2bc12729fe9340",
    "F4 trivial 2": "d1349c8f0229eb43314117070eb5520650c10521c7c99d7deb9321e7fa5ff5a6",
    "F4 induced_wall 1": "e63054a08b7605966589bfe195883372a90b98518766351c845033432d5e1e57",
    "F4 induced_wall 2": "4a9c1676b6a757f507ddb7975d102f63879cdbc97e6e59149a6b76e1ddc238fe",
    "F4 tilting 1": "11a62bbc24553570aafc6884267344a37912b2e998a8a70c95139358301612cc",
    "F4 tilting 2": "afd1be024c5c01851fea7ef8bedd43e00010e4747e12d639f20d2d6b22bb4c22",
    "F4 weyl 1": "6c22443967811090b8e0df1172563a0d131564d912cc3a5bf121ab25dc328afb",
    "F4 weyl 2": "b6e9780b03868ef66976ae805c9038eb5876314124c9a4475c225dfe7b11dcc4",
    "F4 simple 1": "052e1ff274a9830e4fdc1a7da05c4f1551d051c5ca9f706e3749920f19ce90b7",
    "F4 simple 2": "336f5fcb5d8433882ea3ff828e9bdac76639bd0c2ee1d08b12ff613d7774384c",
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
