"""Golden Fomenko graphs: the sha256 of ``to_dot(build_fomenko_graph(book))``
for the catalog books and for compiled books of random valid games.

The hashes were recorded by running this file's own code on the library as
it was before the atom assembly in ``topology.build_fomenko_graph`` was
rewritten around one atom table; a change that alters any of them changes
the graph, not only how it is built.

DOT text does not show which regime an edge carries (``chain_five`` and
``three_sheets`` share one DOT hash), so the regime hashes cover each edge's
endpoints, interval, regime key and orientation.  They were recorded the
same way, on the library as it was before ``enumerate_regimes`` became one
transfer walk per seed and torus families were continued by reflection
state.

Each edge carries the regime of the first band its family crosses, so the
regime hashes do not see the other bands.  The band hashes cover every
band: for each band midpoint, the interval, key and orientation of each
regime in ``enumerate_regimes``'s order.  They were recorded the same way,
on the library as it was before regime states became named tuples and each
band's regimes were sorted by the key built with their canonical rotation.

The circle hashes cover ``axis_bounce_circles`` on both axes, which
``to_dot`` does not print: each circle's reflections, in the rotation its
orbit starts from.  They were recorded the same way, on the library as it
was before the bounce map became a walk over leaf vertices.

Four compiled rows of the DOT and regime hashes were recorded again when
every leaf-boundary level came to be decided by one collapse rule (ROADMAP
item 1, step 1): (0, 3.2, 0, 2.4, 1.6, 3.2), (1.6, 3.2, 0, 1.6, 0, 1.6,
3.2), (0.8, 3.2, 0, 1.6, 0.8, 2.4, 1.6) and (3.2, 0, 3.2, 2.4, 0.8, 1.6,
2.4, 1.6).  Each had an ``Unknown`` atom at a level whose grazing chains do
not all return, where families used to be lumped into one atom per
orientation.  Every other row is as first recorded.  Item 1's step 2 (circle
counts) will change rows that still hold an ``Unknown`` atom; such a change
must list each row it alters, with the reason.
"""

import hashlib

import numpy as np
import pytest

from billiard_books import (
    axis_bounce_circles,
    build_fomenko_graph,
    compile_simple,
    critical_levels,
    enumerate_regimes,
    to_dot,
)
from billiard_books.catalog import CATALOG, FIXTURE_FAMILY

from test_games import random_valid_game

CATALOG_HASHES = {
    "annulus_two_disks": "fa20160e21f3b4d6f768ae8c813cc3519884542c6c2ee1a42b5afda348735544",
    "chain_five": "3b405369beda8e6c8a289995d794b26599439a59faec35febd6213b18c8ba724",
    "chain_five_inverted": "3b405369beda8e6c8a289995d794b26599439a59faec35febd6213b18c8ba724",
    "chain_six": "fcdc272f7c986b366ad271502c1c69e82cede0a91ec81b624e9f1aec47ff57a0",
    "four_sheets": "fcdc272f7c986b366ad271502c1c69e82cede0a91ec81b624e9f1aec47ff57a0",
    "four_sheets_inverted": "fcdc272f7c986b366ad271502c1c69e82cede0a91ec81b624e9f1aec47ff57a0",
    "three_sheets": "3b405369beda8e6c8a289995d794b26599439a59faec35febd6213b18c8ba724",
    "three_sheets_inverted": "3b405369beda8e6c8a289995d794b26599439a59faec35febd6213b18c8ba724",
    "two_annuli": "fa20160e21f3b4d6f768ae8c813cc3519884542c6c2ee1a42b5afda348735544",
    "two_annuli_disk_pair": "fa20160e21f3b4d6f768ae8c813cc3519884542c6c2ee1a42b5afda348735544",
    "two_annuli_two_disks": "db29d34a9a5ee1024c74f81c86840582a244dfde62280d5badb01aac0c6a07eb",
}

COMPILED_HASHES = [
    ((3.2, 1.6), (-1, 1),
     'e3ffcc158d56dbe51b142dd70363c01564306498dc8c0ec819a3ed15090b9f42'),
    ((0.8, 0.0), (-1, 1),
     '9ccee195e0fd84ff2e531120ad11beaa62fdc04279a214eb492bec503ed6f7dc'),
    ((0.0, 3.2), (1, 1),
     '79808285c5ecd57af32ed52508932b1af56f42cbcefe391aeab46f966266c293'),
    ((1.6, 2.4, 3.2), (1, 1, 1),
     '28a58aa9769b4a36bf876b84e75e59a76a00c07662a643871050ac156120e9a4'),
    ((2.4, 1.6, 3.2), (1, 1, 1),
     '28a58aa9769b4a36bf876b84e75e59a76a00c07662a643871050ac156120e9a4'),
    ((2.4, 0.0, 1.6), (-1, 1, 1),
     'cd7199520229a79a62d34b81d98e2bc078fd11091128701ae268870a46dda290'),
    ((1.6, 0.0, 1.6, 0.8), (-1, 1, -1, 1),
     '6963906d8e809cbb54840bded7e7404a60f138b63863ea88ef8a54476dc48846'),
    ((2.4, 0.8, 2.4, 3.2), (1, 1, 1, 1),
     '93118120fcdfe4a741416916c35de95bdedaa8c5c81b667db11c289def73408e'),
    ((2.4, 3.2, 1.6, 3.2), (1, -1, 1, -1),
     'e431e08aa6b2e085c1849eba4027d8c14dbfe8f1471fdaa7a507cd3cad5996ac'),
    ((2.4, 1.6, 2.4, 3.2, 1.6), (-1, 1, 1, -1, 1),
     '4d33cba032e2132c4308926f5f4af025b6523ed9771591c4d6c7dc966098b6a9'),
    ((2.4, 3.2, 0.0, 3.2, 1.6), (1, 1, 1, -1, 1),
     'c1bf9e6b279f1febf9b45396f57f5da2ec958d414bc8fbaf063ef8b1d20cd956'),
    ((2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1),
     'dc39b43d871d4f7b9d580c7de59e6de93086c5d9d5787402089fdb54cfe06f13'),
    ((0.8, 3.2, 2.4, 0.0, 0.8, 2.4), (1, -1, 1, 1, 1, -1),
     '3fde33ab835112e8a770722a21d473dc10743d889a0e154b66e772115cdddec6'),
    ((0.8, 3.2, 2.4, 1.6, 0.0, 3.2), (1, -1, 1, 1, 1, -1),
     '8545ad5e4652bbfab2e3ddac1f92ff46486ca6ffe73056f90e839e45afe20be8'),
    ((0.0, 3.2, 0.0, 2.4, 1.6, 3.2), (1, 1, 1, -1, 1, 1),
     '68110e50599b602725915e5c3978f97839e651b20c5f562e6b26547696ca945c'),
    ((0.8, 0.0, 1.6, 2.4, 0.0, 2.4, 1.6), (1, 1, 1, 1, 1, -1, 1),
     '880e1f30b4321f57cd3f6355bc898532c83fa6bc21fa17cc9c5c341aef1da462'),
    ((1.6, 3.2, 0.0, 1.6, 0.0, 1.6, 3.2), (1, 1, 1, 1, 1, 1, -1),
     '72afe71b8062be694346d6d27d2b444ac033514b2f59550f875f84f20f599735'),
    ((0.8, 3.2, 0.0, 1.6, 0.8, 2.4, 1.6), (1, 1, 1, -1, 1, 1, 1),
     'acf1b3d72de9dbb7dca0e06d718205baeee2de3af17b14ad15af4004436d5b68'),
    ((2.4, 3.2, 2.4, 1.6, 3.2, 2.4, 0.0, 0.8), (1, 1, 1, 1, 1, 1, 1, 1),
     '376612cb84ab388fb3d03005a66b7b72edd525278f856cb6284bcc46eadcf7c5'),
    ((3.2, 0.8, 0.0, 2.4, 3.2, 0.8, 3.2, 0.8), (-1, 1, 1, 1, -1, 1, 1, 1),
     '5b96359613086ce68b0f83edf0290258f25d8f156242b99f871f31ec1bff5bbb'),
    ((3.2, 0.0, 3.2, 2.4, 0.8, 1.6, 2.4, 1.6), (1, 1, -1, 1, 1, 1, 1, 1),
     'f6445a1c4b77132b39f3995c58b251113aaf9060a464e493a84c70211c1ff77b'),
]

CATALOG_REGIME_HASHES = {
    "annulus_two_disks": "180a31bcf86db80cde55f180fb72f0e7423ed0bb6f36d0e77a147cbfca3e6e0f",
    "chain_five": "6e9927694b752ef14d9fc0146cf03436dbf7c3dd4e1a4142cb016fa2ebd06077",
    "chain_five_inverted": "a92b4704aa08dccf21cdd62d3057feb7f4bc0af2fc7c4f57ca39fc6b8ca7b9a9",
    "chain_six": "d303953c65a309f27ddbf4220a72dab86ac652bf2d58bddf0c9a8c5705e2b7d5",
    "four_sheets": "538a04adb1f3bd8bb7c2970b9ec42183fe27adc0b8701700851b84024137b4bf",
    "four_sheets_inverted": "f9f33547a3863d37b866476ebafc22deb62faf873f0b6e6a969c4f9b12f65217",
    "three_sheets": "77f748cef108bcca342789e74be9763b3d7f21611ce52f5e0541f92b754d43af",
    "three_sheets_inverted": "27632285c8d06287436dab9fb68f5da34b161a3cfeac15aa9a59ec7574d53f9a",
    "two_annuli": "b6167d72396340e76c2ac44f0c0434135640d0bb1d2f02f9d899ae9a5f81f682",
    "two_annuli_disk_pair": "8c7cc0ae4e9294633231c7b68ee2882c1bf3dadf4c75fe1e3a71d6ff27977d0d",
    "two_annuli_two_disks": "084cefcf794ecff3de4b7256f2bcd2bc8e452a879bff8ae7b950fd90691da029",
}

COMPILED_REGIME_HASHES = [
    ((3.2, 1.6), (-1, 1),
     '81c71d584404845f7c1f291f15750216d31acf6509fa01b441f17142beb984a7'),
    ((0.8, 0.0), (-1, 1),
     '6e3a14cc1667c88f28790e044f866711b54e93676c2ec050a43cd51cfde2e0b8'),
    ((0.0, 3.2), (1, 1),
     '782aab155a94325e3833ae38dcd7f61b9381a792a83a9719ff5bef4e3bea4558'),
    ((1.6, 2.4, 3.2), (1, 1, 1),
     '3f2020814dde76bc77a123b4042c7d766c73aac0b96226197b55f3790bb0c81e'),
    ((2.4, 1.6, 3.2), (1, 1, 1),
     '69e1cb0b3cb1e315e0d6f40e6f0bfdd1b24159993e653583b20710f8dd5ac0ce'),
    ((2.4, 0.0, 1.6), (-1, 1, 1),
     'fb8bf9c678565010f546f9135498a19d2c2efe80bebbeccc9cc728276e5a3e47'),
    ((1.6, 0.0, 1.6, 0.8), (-1, 1, -1, 1),
     '5bc3aea0beb527f71387b16b8e9ef552251cec0d93adf0a55447b5298414e5e0'),
    ((2.4, 0.8, 2.4, 3.2), (1, 1, 1, 1),
     '004afb3ce819fcadbf7633208d82e0ce49de4ef79ab156be3102fa27ec3baa6d'),
    ((2.4, 3.2, 1.6, 3.2), (1, -1, 1, -1),
     '404e48cdc1392230f1aba418fb8c9b8cbccdc0724cd095372c6498272e3b0f48'),
    ((2.4, 1.6, 2.4, 3.2, 1.6), (-1, 1, 1, -1, 1),
     '75c42595b56cee80bb01eecc850407f8d12a1f887f6cf7462b34c460a5616a71'),
    ((2.4, 3.2, 0.0, 3.2, 1.6), (1, 1, 1, -1, 1),
     'd7a1f834389d6d0afbd8cbea5ded1af2747c15aa1b4a439c2cfb56c464390a1b'),
    ((2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1),
     'edcfc3097244831b97c282b522b074ef8d0fa8583d625c6a839b229925b62c17'),
    ((0.8, 3.2, 2.4, 0.0, 0.8, 2.4), (1, -1, 1, 1, 1, -1),
     'c5ede6ab5a1f44a278fb7b5fe2ccdc72da012e5399ce95e60c23308998ee4e07'),
    ((0.8, 3.2, 2.4, 1.6, 0.0, 3.2), (1, -1, 1, 1, 1, -1),
     '8cbee434036605469d05bef28b6383157a454a699a58a8a8192f94664b115448'),
    ((0.0, 3.2, 0.0, 2.4, 1.6, 3.2), (1, 1, 1, -1, 1, 1),
     '91c0e3d8de86ac84d688435639ba8cfc0641df5f60d06b29786d6ec19d76ec9b'),
    ((0.8, 0.0, 1.6, 2.4, 0.0, 2.4, 1.6), (1, 1, 1, 1, 1, -1, 1),
     'ec1b5c2894f5e05ff03b7c32d25d4bb4e3b924801764fa2582431dc3b4d59342'),
    ((1.6, 3.2, 0.0, 1.6, 0.0, 1.6, 3.2), (1, 1, 1, 1, 1, 1, -1),
     '5476acd781a1e7c14082a5fd628d13c69855f5a19232631f8169161ba8989168'),
    ((0.8, 3.2, 0.0, 1.6, 0.8, 2.4, 1.6), (1, 1, 1, -1, 1, 1, 1),
     '079cc3d3ade6d28823d1bc058c0373b6ff9233a9ebd3bb70f028c6e7bf015dc8'),
    ((2.4, 3.2, 2.4, 1.6, 3.2, 2.4, 0.0, 0.8), (1, 1, 1, 1, 1, 1, 1, 1),
     '1988ae6e3a326da003fa2f9ba97d05e408615d595232d6f391c8655533b1bc07'),
    ((3.2, 0.8, 0.0, 2.4, 3.2, 0.8, 3.2, 0.8), (-1, 1, 1, 1, -1, 1, 1, 1),
     '607eb6c120cea106937452026206b2816239a03196ebf3f1259bca5608bb56f5'),
    ((3.2, 0.0, 3.2, 2.4, 0.8, 1.6, 2.4, 1.6), (1, 1, -1, 1, 1, 1, 1, 1),
     'ea38ff89f7adacdc86d6645c0e1ed11ba490598c00615190d1ccb0f3291649d7'),
]


CATALOG_BAND_HASHES = {
    "annulus_two_disks": "87d9340bb388df095e7fa14dcee60895e5139097cb2e210b7941a7a12b799523",
    "chain_five": "a73d862d92264cc0d090e18eb55cb2dc85438ef383470f8a667265f5396726e4",
    "chain_five_inverted": "af01faf7a51a62cc63648091babfb757ad285ba21fd4ba899f134648b025d8ff",
    "chain_six": "439f7ddf10b87790149aa2082009af1d421622f22534983cb95a027a89d880e4",
    "four_sheets": "80052ec8c2ea3a9528e0251be29f1af000426ab333b77f74c55fdb1400446061",
    "four_sheets_inverted": "f6256289c9715ca9e6bab96c4941e0a9c050dcdf0c50a193d12a961ffff047b0",
    "three_sheets": "fb6ccbe93dc329d9d9973fc3f85f007022ea9be642e4932730b9509119442292",
    "three_sheets_inverted": "71a21c9ffb48699b6644f70dbb3da108c1b7a398fddd00fb479fa8dad4fd2290",
    "two_annuli": "1a758d0d2ab341fdd287147f8f1f5066055d092945cce563362ddb24e0b2ee4e",
    "two_annuli_disk_pair": "2805dbe99be265586b58ed06691008d74afe4131334ffaf142b6b91dd35252ac",
    "two_annuli_two_disks": "f0ff87f24a4bd1c2064a881858dd6b8a1dd73a2f6efcfeb4a84adb16ec0e09dc",
}

COMPILED_BAND_HASHES = [
    ((3.2, 1.6), (-1, 1),
     '85f07d101864a40b972318eae7df46e444147467e9e493da59617a9ac27313f8'),
    ((0.8, 0.0), (-1, 1),
     'ee7488a5ed4f27ac8d663a7059e336b0acd0702fc402c629fe522c4b47eee319'),
    ((0.0, 3.2), (1, 1),
     '23f1afe31db0669cb6f4561f0c352ef4d84b6ca209b87a4354ae501c6f1fb3d3'),
    ((1.6, 2.4, 3.2), (1, 1, 1),
     '1080d54bff5dbee82558f237c85dfcb762f4855ff099ca9c6c37233e9e10ba26'),
    ((2.4, 1.6, 3.2), (1, 1, 1),
     '59fa0f4f60825f089de163ce41a8243be8c28e3cbfe7459202c15ede72d9cfb5'),
    ((2.4, 0.0, 1.6), (-1, 1, 1),
     'c0ae00c9e6933f2376469117b89e60c8f49e8a1ad9f76e42a5f27d57825ee220'),
    ((1.6, 0.0, 1.6, 0.8), (-1, 1, -1, 1),
     'bf812c5ac63a49966f5da18b6beff5e4d1eef9969f3f66d146b57edacea2a5a4'),
    ((2.4, 0.8, 2.4, 3.2), (1, 1, 1, 1),
     '7187bcb831991abd8678cef77cd64575ba22fd7a216c83b117b7456feb19097f'),
    ((2.4, 3.2, 1.6, 3.2), (1, -1, 1, -1),
     'dc30fbe0f0366dd02dcba81806f466c851993f8a3dceb619f7e2d70e48f9a579'),
    ((2.4, 1.6, 2.4, 3.2, 1.6), (-1, 1, 1, -1, 1),
     '44bb12293a97d119e385f4df79f7519c40c24ade999d9687fa0654ce8df0e352'),
    ((2.4, 3.2, 0.0, 3.2, 1.6), (1, 1, 1, -1, 1),
     '3321304f8d483a91482365dbd5cf8e707b098d05ada175b077d9fad6b51c442d'),
    ((2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1),
     'fadb41b69fed20cdb66316ad44ef7c10cea66b432e824f7a80e915eb99483848'),
    ((0.8, 3.2, 2.4, 0.0, 0.8, 2.4), (1, -1, 1, 1, 1, -1),
     '3c641bcd6a551f62f8c28f47dc60e45af1be8ddf4064001899c344cf4d98e492'),
    ((0.8, 3.2, 2.4, 1.6, 0.0, 3.2), (1, -1, 1, 1, 1, -1),
     '222035723e5c6ac598bbc7436f421f56db0750f0c17e68c2ff65cdae120a29da'),
    ((0.0, 3.2, 0.0, 2.4, 1.6, 3.2), (1, 1, 1, -1, 1, 1),
     '18fb9b67eac2fcd375cc1a976f878bfa40db5f1d458e3b9655a4dd1f8752b475'),
    ((0.8, 0.0, 1.6, 2.4, 0.0, 2.4, 1.6), (1, 1, 1, 1, 1, -1, 1),
     '4269aa7cc0a2a8d3d425800817ef0a31f095984cc515ed473aaf68a5739e1862'),
    ((1.6, 3.2, 0.0, 1.6, 0.0, 1.6, 3.2), (1, 1, 1, 1, 1, 1, -1),
     '51a5ff2a0584ac0871422b05e956a28f4f512b9f2988a6dd940971454cede3a9'),
    ((0.8, 3.2, 0.0, 1.6, 0.8, 2.4, 1.6), (1, 1, 1, -1, 1, 1, 1),
     'cf130961f707058d6eb9b09063b4a3240ad6ec77f539a3e3a6c91663b0829b29'),
    ((2.4, 3.2, 2.4, 1.6, 3.2, 2.4, 0.0, 0.8), (1, 1, 1, 1, 1, 1, 1, 1),
     '2a3bb95ea266aa9b7af8a68a925fa587b066805229f4b897b9639249b0441735'),
    ((3.2, 0.8, 0.0, 2.4, 3.2, 0.8, 3.2, 0.8), (-1, 1, 1, 1, -1, 1, 1, 1),
     '50da4c37c6be3848354f62cf06c7ef5bfd4a69888c03c842976cf0fd49150030'),
    ((3.2, 0.0, 3.2, 2.4, 0.8, 1.6, 2.4, 1.6), (1, 1, -1, 1, 1, 1, 1, 1),
     '887aed58135aa9d9d8a02fce2707b9e125078b6fd2dff1db4f738f59cb16a6bf'),
]

CATALOG_CIRCLE_HASHES = {
    "annulus_two_disks": "995c0a82fe6f7210fc4d536e78990a82834faf3df7cdc7885379aeae279cfebe",
    "chain_five": "1ad5ce802a5a520a25925bb2facf8944bf210cf76f7492e369d74beab29fdf5e",
    "chain_five_inverted": "aca67af030b1a0832c7cde49d0b76f74586382d2757c2b484f567b34e44c2850",
    "chain_six": "3471f1d4123f423ff58c1ed4b6b0d0886cd3f36644f033a9afe0f855091ceb33",
    "four_sheets": "2da0a6df95f9f5d09385ce706b33435e96b4db549aa9b9dab8059ae0cd4f0da6",
    "four_sheets_inverted": "efffaba2bcee6cc07bf6d406770af9cd284b27ad114507db81aa6dda7c1949d0",
    "three_sheets": "523a8612804fd0346ecfddc3cd6a0f895352eab49c2542ae56e0b158c8c73578",
    "three_sheets_inverted": "ea5ba155acf82949679bd71cca1dc15dd088c3cf0d2b1242fe8204f43539f43a",
    "two_annuli": "fe6a0abd4543c5a9638c382bbfc54219c9ff3bff19610e340da11a6f29e114fd",
    "two_annuli_disk_pair": "8bb5ef6acc02b13fa30e3b7a49cb56014b1653712c7dede3170433d2e5afb704",
    "two_annuli_two_disks": "b92bb4178406d7d7dcb066d9a138d6b8e1c2e85a5442d65e1eca6c18033bff1c",
}

COMPILED_CIRCLE_HASHES = [
    ((3.2, 1.6), (-1, 1),
     '5bb6b1a1329d70e1f790095dc99665de186ba90e76a80eb9a10aac770a3eaa73'),
    ((0.8, 0.0), (-1, 1),
     '05957fda9b8082337604d5f2b1f38d9f891631960ae48ff367309e2cb4a4d593'),
    ((0.0, 3.2), (1, 1),
     '9366cace0cf8648eceb6239d86e9ab3f7acc3cddaa214fae8ff85174b034a95c'),
    ((1.6, 2.4, 3.2), (1, 1, 1),
     'd09987d30138f1fd7af05b63f1d4daf1396c5a968bd0605edb15ea1890402358'),
    ((2.4, 1.6, 3.2), (1, 1, 1),
     '97cec9e6745d0013a9fb315626036a27633f1f6ce42c13bb90f527ca3a4a05d4'),
    ((2.4, 0.0, 1.6), (-1, 1, 1),
     '3cfcce796eeb3e0bbf6cf72e9cb13076361b543dfe840f862b43ec29e6ce2f22'),
    ((1.6, 0.0, 1.6, 0.8), (-1, 1, -1, 1),
     '164ee178ea38ced800ac404cc9eb4a62ddb54fb96e4239ae3fecf4ea0ef28d5e'),
    ((2.4, 0.8, 2.4, 3.2), (1, 1, 1, 1),
     'c20e98eb3b9aab4752080d4f801c26424fc86e51d1c14c1c8deb6b257964e8ad'),
    ((2.4, 3.2, 1.6, 3.2), (1, -1, 1, -1),
     '529c9b57217a0cf42269cc1ecefc664e47a93dce2d2654bf9c2c526ab01151e8'),
    ((2.4, 1.6, 2.4, 3.2, 1.6), (-1, 1, 1, -1, 1),
     'c7f07697aa8d6f83ee5d95c7030f688e2307b8c0b96c9e28c86ac652e686080b'),
    ((2.4, 3.2, 0.0, 3.2, 1.6), (1, 1, 1, -1, 1),
     'e444663510d6baea9d2c6475f4b7c52e158970eabcd15176f4d009ef69904a9a'),
    ((2.4, 0.8, 1.6, 3.2, 0.8), (1, 1, 1, -1, 1),
     '444a7a8612d36cd6b1ce0cdd8ef2c3ea1c520ef6d898d4eba922173950ecc34a'),
    ((0.8, 3.2, 2.4, 0.0, 0.8, 2.4), (1, -1, 1, 1, 1, -1),
     '5dd4c31b859fda70000558c03e0421ecd4325f2461f6215bdbf9e892faf53b0a'),
    ((0.8, 3.2, 2.4, 1.6, 0.0, 3.2), (1, -1, 1, 1, 1, -1),
     'ffa58e667d00284fe7296936b42430e125ba2f6be84ce84ae00736dd03529188'),
    ((0.0, 3.2, 0.0, 2.4, 1.6, 3.2), (1, 1, 1, -1, 1, 1),
     '2a4cdde280145cc367592bf52cebbe9083cc639767e81cc6ebd160cd5d7f68d4'),
    ((0.8, 0.0, 1.6, 2.4, 0.0, 2.4, 1.6), (1, 1, 1, 1, 1, -1, 1),
     '41b3cdaa29d1fe390715f9ecddac7fd78fbb5f1f4839edf346528ac47c71c951'),
    ((1.6, 3.2, 0.0, 1.6, 0.0, 1.6, 3.2), (1, 1, 1, 1, 1, 1, -1),
     '1b923c4141b320fcae0832543b4332621856232d36d50966709d30ec93b4c561'),
    ((0.8, 3.2, 0.0, 1.6, 0.8, 2.4, 1.6), (1, 1, 1, -1, 1, 1, 1),
     '1e5a518bda658e534f5f9c26045bbddcadbcf43b2cde81440d033f1a5f026afc'),
    ((2.4, 3.2, 2.4, 1.6, 3.2, 2.4, 0.0, 0.8), (1, 1, 1, 1, 1, 1, 1, 1),
     'a49522831f5c16d09a0fd2d123d9f95d7bb0b8bc68b0c21b3b0c4c7cb897d178'),
    ((3.2, 0.8, 0.0, 2.4, 3.2, 0.8, 3.2, 0.8), (-1, 1, 1, 1, -1, 1, 1, 1),
     'bc8741fbfe14dced041a2fee11659067cbae310134f4c8f66f069dbb756c6e85'),
    ((3.2, 0.0, 3.2, 2.4, 0.8, 1.6, 2.4, 1.6), (1, 1, -1, 1, 1, 1, 1, 1),
     'f41e4fdd40dcd1bc2627ad2bde645cd0b19cc7a957cad91adcec7476852baa32'),
]


def _dot_hash(book) -> str:
    return hashlib.sha256(to_dot(build_fomenko_graph(book)).encode()).hexdigest()


def _regime_hash(book) -> str:
    """sha256 of each edge's endpoints, caustic interval, regime key and
    orientation, in edge order: what the DOT text leaves out."""
    rows = [
        (i, j, r.caustic_interval, r.key(), r.orientation)
        for i, j, r in build_fomenko_graph(book).edges
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _band_hash(book) -> str:
    """sha256 of every band's regimes, as (interval, key, orientation) in
    ``enumerate_regimes``'s order, bands ascending."""
    levels = critical_levels(book)
    rows = [
        [(r.caustic_interval, r.key(), r.orientation) for r in enumerate_regimes(book, mid)]
        for mid in ((lo + hi) / 2.0 for lo, hi in zip(levels, levels[1:]))
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _circle_hash(book) -> str:
    """sha256 of the axis bounce circles on both axes, each circle's
    reflections in the order its orbit walks them."""
    circles = [axis_bounce_circles(book, axis) for axis in "xy"]
    return hashlib.sha256(repr(circles).encode()).hexdigest()


def compiled_books():
    """compile_simple books of random valid games, three per n = 2..8, all
    drawn from one generator seeded 0."""
    rng = np.random.default_rng(0)
    out = []
    for n in range(2, 9):
        for _ in range(3):
            game = random_valid_game(FIXTURE_FAMILY, rng, n)
            out.append((game, compile_simple(game).book))
    return out


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_graph_unchanged(name):
    assert _dot_hash(CATALOG[name]()) == CATALOG_HASHES[name]


def test_compiled_graphs_unchanged():
    got = [(g.betas, g.signature, _dot_hash(book)) for g, book in compiled_books()]
    assert got == COMPILED_HASHES


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_regimes_unchanged(name):
    assert _regime_hash(CATALOG[name]()) == CATALOG_REGIME_HASHES[name]


def test_compiled_regimes_unchanged():
    got = [(g.betas, g.signature, _regime_hash(book)) for g, book in compiled_books()]
    assert got == COMPILED_REGIME_HASHES


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_bands_unchanged(name):
    assert _band_hash(CATALOG[name]()) == CATALOG_BAND_HASHES[name]


def test_compiled_bands_unchanged():
    got = [(g.betas, g.signature, _band_hash(book)) for g, book in compiled_books()]
    assert got == COMPILED_BAND_HASHES


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_circles_unchanged(name):
    assert _circle_hash(CATALOG[name]()) == CATALOG_CIRCLE_HASHES[name]


def test_compiled_circles_unchanged():
    got = [(g.betas, g.signature, _circle_hash(book)) for g, book in compiled_books()]
    assert got == COMPILED_CIRCLE_HASHES
