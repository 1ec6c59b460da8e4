"""Byte-identity of CLI output as a standing check.

Each argument vector below is pinned to the sha256 of its stdout.  A
change that alters any table, inequality list or certificate listing, even
in whitespace, fails here; a deliberate output change must record new
digests and say why.
"""

import hashlib

import pytest

from multcone.cli import main

DIGESTS = {
    "tables --type B2 --parabolic 1":
        "ff2cb773ae337653126e8d4031a35af31bfbc15007cb888c35d06e736d8de60c",
    "tables --type B2 --parabolic 2":
        "83fda192751d0951a1b25226a6503ff2839f2220117312fbfdda9a37a0f2dcdc",
    "tables --type G2 --parabolic 1":
        "788532d28335b57f6d7aa48655099c6e0be5d3e65d8ac6c47e1f9fedc451ade1",
    "tables --type G2 --parabolic 2":
        "86825f381eb72e0c69a5926c1d9d22d18918141208ff6339edf782599f55df8b",
    "tables --type A3 --parabolic 1":
        "e865ef09ba338a7a502f57951d06b73f477c06c72c2632d35521bca48c5625d7",
    "tables --type A3 --parabolic 2":
        "85efea185ce761d40d720fd457a16d1d52f61afdfefbd5fb322a0c9d812dc1f5",
    "tables --type A3 --parabolic 3":
        "e502312d7a2653abe92adca8ed53f295f6ab4c4af69619bdfe4ff6c65db2bd5c",
    "tables --type B3 --parabolic 1":
        "8b58ee6f43c720593dd9b75a9b012f9e6752a81203c85cea77716bc525253730",
    "tables --type B3 --parabolic 2":
        "06dc7c2a74a39c103693df787ce4a00c3018915239e718a6516d4e356fcae2eb",
    "tables --type B3 --parabolic 3":
        "46d5173e14242311d8f29c6d10b5a33c56efecf3fb4c1255f322d27464413cd9",
    "tables --type C3 --parabolic 1":
        "6660bcfa743cdaaafb2871b1c335640ed246fef0708c3b777f10b4dcc03ae4b0",
    "tables --type C3 --parabolic 2":
        "ba16919b039286a5fe19a975ac01dcf38d541a58dc09282cfa87077d579c9f2b",
    "tables --type C3 --parabolic 3":
        "1b7caead73d78b26728aacb90c3df6121b7433ce56945e9c5e72ea4df671de08",
    "tables --type A4 --parabolic 1":
        "a4f0f7d35476662a60c669eaed0f2888aafd99c454d0faee7d8fa3e164917928",
    "tables --type A4 --parabolic 2":
        "06d58ba41393fb5007e34dacb52436fb351ce926147c2a9b0432bb2a28626394",
    "tables --type A4 --parabolic 3":
        "9a7a92562b6ce7635947ffab1bbc923a3c8b9dc27558e080955663df22579c9a",
    "tables --type A4 --parabolic 4":
        "422fe36a0efc0922699a9eb18b009671fe0c406ed78ada5bb7286615586cdb44",
    # rank 4: quantum solves up to degree 4
    "tables --type D4 --parabolic 1":
        "f1f517a962279bfd94bc73cd7c649151bd07d8d00f1c1ce94d6f3881ed5a03c0",
    "tables --type D4 --parabolic 2":
        "92aab1df8874307438ad9504e950082afb147aacb56c9f7366f23f843cd10adb",
    "tables --type D4 --parabolic 3":
        "8e3f4168d261aef567d10bf9992d5f1e3230afda2180390015d3264332b5a996",
    "tables --type D4 --parabolic 4":
        "5ee836dc9299bc3abf80d0952a6bf1b1b341ba64fe8d9adf16e5dfd1f3b67d1a",
    "tables --type B4 --parabolic 1":
        "04746e1c284f2086833179042caf5925aa29a70e4808913766606d60b9cb4c15",
    "tables --type B4 --parabolic 2":
        "adf60d40f58f1adc152629591198c41087b0f07117877c040680fee2aa58f663",
    "tables --type B4 --parabolic 4":
        "b75e35490dcd2a683be2ef18c6bd014857b06e664525ac044d0360dd12a134c9",
    "tables --type C4 --parabolic 1":
        "fb200b34f5ade14a7ada9045cdf97885dc17a5632eccd15917cf86bde04e94c2",
    "tables --type C4 --parabolic 2":
        "034c6435d9d68868ccf88791b79adf8f9010d58305d6d2d28db62a9e7186c7b2",
    "tables --type C4 --parabolic 4":
        "b12614b52c708c10ae3e938128a72a7ad10b8d4608802efa01c350f637ba8d0f",
    "tables --type F4 --parabolic 1":
        "6e50e43727c4e8c58f9290193bdfe118d937c47fe00b9266dea7d52c3d86f217",
    "tables --type F4 --parabolic 4":
        "0b2a5c14ac6b96fbd12362951c69eab7528e5b088eba4f00de5007f0fdfbfd69",
    "tables --type E6 --parabolic 1":
        "aca94b8d88cf07426051ea0e8dbe8dbb0cb93e9315dfbf0c57179b914e0c5900",
    "inequalities --type B2 -n 3 --format json":
        "f0419e5adf201d55feff1f88d643a02063134409ba4eaa86d7b229bc6f2f4835",
    "inequalities --type G2 -n 3 --format json":
        "afd3881e8c37d85089856704b47abe366c2bbd1db156daf55c1206fd368c4c40",
    "inequalities --type A2 -n 3 --format json":
        "4116e50914a3031b485622b541111b7142afa8724e252d560924fb1858c5fa16",
    "inequalities --type A3 -n 4 --format json":
        "95a9aed0306fd718ce0b13fa3ddae202a175cc79cc37b34deb82e0fcaa0a988d",
    "verify --type B2 -n 3":
        "515a70009051eab3ddb63ac15beffbc7fe6e2507cbc2137a64432d9a4dd79337",
    "verify --type G2 -n 3":
        "993863994bd064eb8fc3cb38e77c4d17cb54e8b22e2304e7d929d1acb4e6935d",
    "verify --type A2 -n 4":
        "be676c9d840c6f8021aea3f97de8347af55c73546446dde553b2afc481da2e0a",
    "verify --type B2 -n 3 --format json":
        "443c7df65c799b28d729ed69db77a9c28ccab7f413d9d35d9b12d1ad4a9ef529",
    "verify --type G2 -n 3 --format json":
        "f4399b5c512ff84be4a89910a595d00c9f444046bd6c6c8b41d667615b0cddea",
    "verify --type A2 -n 4 --format json":
        "30fb6c6a896a2220b1855dcb88a08abd52beec83821f8546bb15dde2d3e8726b",
    "verify --type C2 -n 3":
        "6787a76366b2149066b541a2fa198a23012f440b9e7c1116560e198654bbdda4",
    "verify --type A3 -n 3":
        "757e8a4e47959ee9cdfd3a0dad7105365fa501ecc7526b4cf238c900b10285be",
    "verify --type B3 -n 3":
        "db50cfe832fa8310721e0bcd387617783bec0d3817425c143fd7add0aa17a1ba",
    "verify --type B3 -n 3 --format json":
        "cec6c0aa9a412bd500aa01b8e0d2bfdea41536eee4d5ec28c6dfda34d0315b89",
    "verify --type C3 -n 3 --format json":
        "ad289fae2b2968cef858fcd49443d44c417df69919e097c168e91ecd5c838a93",
    # rank 4: 1189 inequalities
    "verify --type C4 -n 3 --format json":
        "ba1c7aad5f91d5e132eb75d2020c0514d4da612753fbd75b7e9c010d6e9d301c",
    # rank 4: 756 inequalities, 151 orbits
    "verify --type D4 -n 3 --format json":
        "8ef6e2f440e44394b45b77817305af74d58f41e370718c9e5a355a597f2ff946",
}


@pytest.fixture(scope="module", autouse=True)
def private_cache(tmp_path_factory):
    # the in-process memos are shared with other tests (outputs do not
    # depend on them); the disk cache must not leak out of the test run
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MULTCONE_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.mark.parametrize("argv", list(DIGESTS))
def test_stdout_digest(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]
