"""Golden reports: the sha256 of the JSON and of the text rendering of a
fixed corpus of requests is pinned, so any change to a verdict, a reason,
a note or the layout of a report shows here.  The pinned values also make
the JSON byte-stable across runs and processes.  No report depends on the
random streams of the randomized subroutines (the equal-degree
splitting of `modp` and the Pollard rho of `intfactor`): the corpus
renders byte-identically when they draw other streams.

The Seifert path is pinned the same way on the 16 forms of the
``seifert_forms`` corpora 0 and 1001 of perfbench/workloads.py: one
sha256 each of their Alexander polynomials, Milnor values and report
JSON, so a change to how those are computed shows here too.

Regenerate the tables (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pytest

from knotsig import (
    AnalysisRequest,
    IntPoly,
    alexander_of_form,
    analyze,
    analyze_tau,
    form_to_pair,
    intfactor,
    milnor_signatures,
    modp,
    parse_poly,
    report_render,
)
from conftest import clear_facts_memos, make_delta_a

# appended after tests/, whose module names perfbench/ does not reuse
# (tests/test_benchmark_surface.py checks it)
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import workloads  # noqa: E402

DELTA1 = parse_poly("x^4 - x^2 + 1")
DELTA2 = parse_poly("3*x^4 - 2*x^3 - x^2 - 2*x + 3")
G1 = parse_poly("x^6 - 3*x^5 - x^4 + 5*x^3 - x^2 - 3*x + 1")
PHI15 = parse_poly("x^8 - x^7 + x^5 - x^4 + x^3 - x + 1")  # one factor, rho 8


def _product(polys) -> IntPoly:
    out = IntPoly((1,))
    for p in polys:
        out = out * p
    return out


def _corpus() -> dict[str, tuple[str, AnalysisRequest]]:
    """label -> (entry point, request)."""
    out: dict[str, tuple[str, AnalysisRequest]] = {}

    def sig(label: str, delta: IntPoly, m: int, s: int) -> None:
        out[label] = ("analyze", AnalysisRequest(delta=delta, m=m, signature=s))

    def tau(label: str, delta: IntPoly, m: int, t: tuple[int, ...]) -> None:
        out[label] = ("analyze_tau", AnalysisRequest(delta=delta, m=m, tau=t))

    for s in (0, 8, -8):
        for m in (3, 7):
            sig(f"D1D2 m={m} s={s}", DELTA1 * DELTA2, m, s)
            sig(f"G1D1 m={m} s={s}", G1 * DELTA1, m, s)
    for k in range(1, 5):
        delta = _product(make_delta_a(a) for a in (0, 2, 4, -2)[:k])
        for m in (3, 7):
            for s in (0, 8, -8, 16):
                sig(f"delta_a k={k} m={m} s={s}", delta, m, s)
    sig("D1D2 delta_a(0) delta_a(2) m=3 s=16", _product((DELTA1, DELTA2, make_delta_a(0), make_delta_a(2))), 3, 16)
    sig("Phi15 m=7 s=8", PHI15, 7, 8)
    sig("Phi15 delta_a(0) m=7 s=8", PHI15 * make_delta_a(0), 7, 8)
    sig("Phi15 D2 m=7 s=8", PHI15 * DELTA2, 7, 8)
    sig("D1D2 m=11 s=-8", DELTA1 * DELTA2, 11, -8)

    tau("tau D1D2 all plus", DELTA1 * DELTA2, 7, (2, 2, 2, 2))
    tau("tau D1D2 sum 4", DELTA1 * DELTA2, 7, (2, 2, 2, -2))
    tau("tau D1D2 m=3 sum 0", DELTA1 * DELTA2, 3, (-2, 2, -2, 2))
    tau("tau G1D1 all plus", G1 * DELTA1, 7, (2, 2, 2, 2))
    tau("tau delta_a k=3", _product(make_delta_a(a) for a in (0, 2, 4)), 7, (2, 2, -2, 2, 2, 2))
    tau("tau out of scope", DELTA1 * DELTA1, 7, (2, 2))

    # one input for each OUT_OF_SCOPE reason, in the order they are tested
    sig("out of scope: odd degree", parse_poly("x^3 - x^2 - x + 1"), 7, 0)
    sig("out of scope: not palindromic", parse_poly("x^2 + 2*x + 3"), 7, 0)
    sig("out of scope: Delta(1)", parse_poly("x^2 - x + 1"), 7, 0)
    sig("out of scope: Delta(-1) not a square", parse_poly("x^2 - 3*x + 1"), 7, 0)
    sig("out of scope: P not squarefree", DELTA1 * DELTA1, 7, 0)
    sig("out of scope: factor not symmetric", parse_poly("2*x^2 - 5*x + 2"), 7, 0)
    sig("out of scope: delta_a(-1)", make_delta_a(-1) * DELTA1, 7, 0)
    return out


def _render(entry: str, req: AnalysisRequest) -> tuple[str, str]:
    report = analyze(req) if entry == "analyze" else analyze_tau(req)
    return report_render(report, "json"), report_render(report, "text")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN: dict[str, tuple[str, str]] = {
    "D1D2 m=3 s=0": (
        "83be07e66e41731a510974a8f22108376a1c8b956ce23480d0a16cdeb5dc261d",
        "ce20bd61aacb2ad4c6ca27a68d3a9f3fae091f5e94ddec36fd74d14e439f6b63",
    ),
    "G1D1 m=3 s=0": (
        "3e9131a4becdece0924a0f168aa7b97f7930ba582c29ac3b08a60365d9d709f7",
        "1f3b50cf242a44974fcb6460786756787ca8d042f90b24076d618a31a0da5b45",
    ),
    "D1D2 m=7 s=0": (
        "a6770e659ff1018e8d1d335b083e1e42b859aa9c09b6137d30da69d1d096b83f",
        "8e72b996610ef70ad9ef5cc7035910043ca31048fc4380d3d1cd65ef775e6b36",
    ),
    "G1D1 m=7 s=0": (
        "8ce435b3ee8a28ea50616641860cd719763af91323964580ac358d2e0b1465c4",
        "4282bf16512a7fb7a2b480858ce1b9a0dc68bb09151490adca1a4ed6ece6e5b1",
    ),
    "D1D2 m=3 s=8": (
        "b81c8638547832c0c2c4af3f479a598b4766b4da81ee2be160a58d07b22b913d",
        "c4b022476fc2a85618e90cd6367ec3e9deb3ea9050d00ca7b95c35b4e494d5f0",
    ),
    "G1D1 m=3 s=8": (
        "41fe083faa3f6e2e162413efdeaa6d48fc3d7aa738d6266049e02a97ab856b76",
        "4a8a8c2cadb0b88ed993f1b52e80a30d218c19397d8acc48e7a07ed0a65b83d4",
    ),
    "D1D2 m=7 s=8": (
        "6fdde3fbb81557e1916de430a0234ddf6cd34dfe14b5d76925988368ab6db0e0",
        "3011993fe6f51d44f5c3ef3423a781e11ada1ed64942c953e9fa8e08572f9d91",
    ),
    "G1D1 m=7 s=8": (
        "37127d22b70484e9573064fe19f2c5419e9031cd1e3e3008c9d6a21766cbd25b",
        "6093ffd17629a75a870519f32af43171ddca3ecb029fcf29ce99b32337998e38",
    ),
    "D1D2 m=3 s=-8": (
        "54f7cf08ad170c6f3630423a18a1ffb883a359babe8d378366b9f2edadb805fa",
        "4eaa2ae9bb3b78c1323e2050dc58a13a5c6ceface0608f65b5864fddfe5db937",
    ),
    "G1D1 m=3 s=-8": (
        "f64b72e637e5a112df92a2f1596c2fbcd75405b021a2b901a428c08d9ea0f0b3",
        "19a16772250a30145eb6b616bda6d44509ad309373199c3a4a44802b3805a03c",
    ),
    "D1D2 m=7 s=-8": (
        "cae7886ea98c8b8c3b38441c703da412beb3377b5760d44cd290ccd7c222fabc",
        "97cd440a367334cc05ed37fafd4f1f3905e720aa9669ee5880cbc87e69b1114f",
    ),
    "G1D1 m=7 s=-8": (
        "fd53c952cb3f802ce45d8df7b297796235ac3ee354dcb42f8a2f93ccbeabe794",
        "5039e40ddd047eb146cc4a36c081ef0eceb376a388bcbd4cb3869f32621c1521",
    ),
    "delta_a k=1 m=3 s=0": (
        "61b6acc9425a1ec24741b237c3367a79db75f2e5d82a37606d8a225c097349c0",
        "77ec49928682d8c8061180e5342391808d05d086bd7c5fc6985b9e4172fc4aef",
    ),
    "delta_a k=1 m=3 s=8": (
        "defbb65c18d08649925428f0454b406f6b95f17d192f34b4d0812dd3cfc21049",
        "115fab80dd9090be7baab3c13cba483350009d34f98d260d6c21198c8807604d",
    ),
    "delta_a k=1 m=3 s=-8": (
        "91fd37fa7f89fa00a2d540f9b656507ba55cbce1b5abc3c37a2dfb417f423c20",
        "95ba36eabf402c56021c772fd5515071deaf14d2bc27a420e8e8f93a479e8866",
    ),
    "delta_a k=1 m=3 s=16": (
        "102cf1aef6479c9ac7bfc530494ce6cfaddea0b573ad1d95f175484d66f004ba",
        "b35d906efe628aa1433c3e83684ef1d8722fd6a0ed26e2b63f5b204b6769c3a7",
    ),
    "delta_a k=1 m=7 s=0": (
        "f03c740475d281376d92fc0e1d8b8fc82635ae3cd210eed611f5f406d69658af",
        "6debf3df0285f16c161a4ba0e36c0d7508841358dee6899462f8d7f12de3b761",
    ),
    "delta_a k=1 m=7 s=8": (
        "606acd3fe871dd57abda59e391b15f914f28c5ce1f2db6b378a40ea54a0f9b21",
        "ed08690605e22f7a0d7528dfecca08095986642f719d8fca98b17c6241efba21",
    ),
    "delta_a k=1 m=7 s=-8": (
        "15745ab356e3e76bb0de002e0634d3f6216a09133761a7ba0ed161a12941549f",
        "50b738ba08238c292fa98834adc9b6f5d23232bf08e9a27bc36f4542d776770c",
    ),
    "delta_a k=1 m=7 s=16": (
        "9b9cafd059b1e4c6d4bc78a3efe063a45627568b407749dcf716eb597df77f76",
        "a28c49467eec7f4130620892f41baa129161690e625fe45c575036f8661bf59d",
    ),
    "delta_a k=2 m=3 s=0": (
        "366e9487169d530aa54c9d1cb3f9d20b183f4bf30ce6e0387bff87032be8c8a0",
        "8917021cb8da0668a79c88ebf2d2e26a2e63ec1799d71be6df84f1a1aadc15ed",
    ),
    "delta_a k=2 m=3 s=8": (
        "fa56838881a4a24dfe03f65cfa5d5c01466002caee7c21a6697ad11755fb64c8",
        "a35c2f8b4e8e43a7051289ab9d9bc6f2de2708a03b470f9515909f603d5b0913",
    ),
    "delta_a k=2 m=3 s=-8": (
        "0932c38a1e500fd80aa7a8d813ad758bed00bb65cfa84fee63727edcd73feb27",
        "3c8f4c7730145179e697e4a78b561d5a7b8474b489ff22ae9eb10dfd0b217106",
    ),
    "delta_a k=2 m=3 s=16": (
        "c5cd1dc62019ec9cab85b457793fc0a625a0f55f435c7f1ce2c0599efecb181b",
        "828fe2e61c1eb91eb34d529d94fc63d8b6ca4e6c673453be22a9bc3c05d29c00",
    ),
    "delta_a k=2 m=7 s=0": (
        "0b6b1fcbf69c3240e25a25ec7979faa842e75fae42f407b3cf3fa2d05ca7bba3",
        "e733b68b868e49ab74a903a42c6c8270a0a88734a0a61af0db4b562be69a8d45",
    ),
    "delta_a k=2 m=7 s=8": (
        "f7096eef00da093b36200b26ddf1b2285565968a940f3993442ac5ca06bb547d",
        "b1007e434d4078a9860d89e5ed04077803c24b5734be5422ee98cc7226501520",
    ),
    "delta_a k=2 m=7 s=-8": (
        "25d78f0bfd10720b3483d41e669aaa4d560b6f44d8db329de620cd034961345a",
        "82150ec9add9e7a8f8bfbfc1529afb50d9b6c5ec55ec9ae4bdfbcb205a2ef719",
    ),
    "delta_a k=2 m=7 s=16": (
        "1eff65fba31ae1407cee9113166cbd31547bd2b636fa7b33bf984e0d0e793387",
        "261b7fe4649cc7f6edb08a5aaee330eb4cfe14f941d063c06f67909a34c715f5",
    ),
    "delta_a k=3 m=3 s=0": (
        "bc1e1c2c5a07697c77a1da8c9a57a6ea89227460b92b4b1df253eec526a3aa3c",
        "a0166f490aff505717f3bebbdb693dedcfeb639c30a78f526d772b1f5135138e",
    ),
    "delta_a k=3 m=3 s=8": (
        "03f9f7af3c3728740dc436f2381c59d18a265fe52bffa12d2c7d80a5aa3c6a21",
        "988b49550713d9b93ad89cfb11c1614d95f0bece9520abe9f58b3feaa8325547",
    ),
    "delta_a k=3 m=3 s=-8": (
        "b95eb8cc1074ae84cdd3123a11e06980088dfe079f4823ea4be525dd5b002b40",
        "306b453eb3e9266f66600af8e1174d96d32dceeeaac5ea3151212d489432693a",
    ),
    "delta_a k=3 m=3 s=16": (
        "dc53f3a9a41943d1300fd7d9e89d48cbcdee10c423044bc4299629b8108155b8",
        "e0abd0a249c6c5a11f8aa9e63dce22cb7a8fd5bc563b844d54f6bd19e519fb6a",
    ),
    "delta_a k=3 m=7 s=0": (
        "db9b986fa90b8ca092bd4f75f2b73ec8acb8151cd05881a933f1279d2c95c675",
        "5428d90b8b348f655a2112dd8e0428bb3919fe5a87e2db8b067e28f849fb935e",
    ),
    "delta_a k=3 m=7 s=8": (
        "dabd445c6dd24383bab0a8c993718e11493470abacb0f9f97b21546cb40cf22d",
        "5bb0ec1952ddd20cf0700756b7e80794dbb385b8664564dbb5465ae664081ddb",
    ),
    "delta_a k=3 m=7 s=-8": (
        "86cbacd0952078bc8f6a8b3ff0490fa605c3ca566b5bc3f0fac4f1667244477a",
        "3e8cbf966784a6577c9e8651c2e3dfba7cd991651d0e45e372efedd039fbb4e8",
    ),
    "delta_a k=3 m=7 s=16": (
        "0475d4a031ff087568cb334f4232e23fd4c5977a101ec1e9fa7c516aa0f8b296",
        "a4563a4ce99d9fd0f9b69722bea380e08e2152af32345aee498de27a4e489540",
    ),
    "delta_a k=4 m=3 s=0": (
        "35594e9c88787c7bfe2265a50d001cc312b82545a2f76b1b5b048c31e6f729bd",
        "95e5c78a28b55cb9ce04ffad80ac907f81c36a30f98b85ddfdc6674a31fd7dd3",
    ),
    "delta_a k=4 m=3 s=8": (
        "450023fcb571014e6a8de9cb548fd98f6990975245421f38b2f372aeede9bae2",
        "126968892ae60881e73ab8aff8fa64c1fc50afae990a2be227829a462e6f40e7",
    ),
    "delta_a k=4 m=3 s=-8": (
        "306b65a78cf55ecd36f1784cf1ee1e523945ba81303a45998e718bb22f31f61c",
        "1805fd500e64064fa4532c3e1c3854fb47fcb194f7b8b2b908a6b22e02993787",
    ),
    "delta_a k=4 m=3 s=16": (
        "7874bf3083df31ee95427a1d9d0fa7c3c1320a16f028552cae624e514cc24494",
        "24fb109a353fbfd684b3f90305fc695ce2eeaef7381e1b17b35ca4c165bc4091",
    ),
    "delta_a k=4 m=7 s=0": (
        "d5859a92eee73a9493daf4173f4e9de726919f47737b9f20ce676394a43672fa",
        "8ec07c5d2b5cf5850958a123db6f1c9ef4cc49c2a57bf939b11a831b42ad69fa",
    ),
    "delta_a k=4 m=7 s=8": (
        "aa4da125b892562c8659f2d8f73f8f24f8c01f28f4446be0169aead2c4b51375",
        "7c666f34ec3a011385573858fb8ec3d314b497e137705f96b8cb93efe4590bdc",
    ),
    "delta_a k=4 m=7 s=-8": (
        "bbd9a61953c7c1e5c591614b04490e757d611db84d259ecc18c3894fdf7f6241",
        "794ae6139cd71fe3388f36eaec012d8e55bce7a8571900dfd23c417bc0ef721f",
    ),
    "delta_a k=4 m=7 s=16": (
        "f13092f7de89b8e4d2deb5658bef9a33406c9ffd416371533a36d1f63c82de2c",
        "f2098ca5a498cc4e5f6b698805f09756c2d5c482e5084369ef2dd8a4ce655e98",
    ),
    "D1D2 delta_a(0) delta_a(2) m=3 s=16": (
        "012b8b9a14594654c6fffff9f9a62db1c3e964aa1ed8f7d9b518213ea06d29a5",
        "2dfcf44f6499758510d7b6c5f8ccdfad6417af1ce0e9c2bcefae9d777cf27b7b",
    ),
    "Phi15 m=7 s=8": (
        "6def4bdadda771e9a89cff39df63c25a1620f2a1c4d50e27f187b7269cc37b1e",
        "239f7872f64c0bc7241cb830cf0ee67636316706dc53267465314a331b0f8c9f",
    ),
    "Phi15 delta_a(0) m=7 s=8": (
        "82204d4ac8e1db516ed5ff717804ec825375b05c51265b31094177e773f2ece9",
        "1c7aec0322509fc655c6b975d272e90d918033a2d439b288a92933546f1baadb",
    ),
    "Phi15 D2 m=7 s=8": (
        "e33845580e1fd35b2757137ed8f5159ac667a38748241982143e8e5675681f65",
        "293e9f45a6ed5d1c57da8e6f597984a5ff04186821c54845361e9e0e38e59185",
    ),
    "D1D2 m=11 s=-8": (
        "d6ea78af0345382e3bfcfc88ac20c7ebcc1a261f2b720a5c27098a6446b7b547",
        "3495d0053909240d81790905c4deb4a38dd6908b7bc786d983c6b399cd0fb30b",
    ),
    "tau D1D2 all plus": (
        "cbeefe49eec4a5da22e0a2e441ebe19f07c2776469872a524964cdba20692233",
        "6e15484eb498deebecabf8b7a93e1ca6bca5b2809f25169b5a0f086a72c69461",
    ),
    "tau D1D2 sum 4": (
        "c6ecab81e93363071adcc168b5b35b4e6a870fcd03dfaee27d0b66eaa5426d84",
        "c31c8048ec8f39bb134803f3f3ba2c566dbabd8a27b623d86d734e543df590d0",
    ),
    "tau D1D2 m=3 sum 0": (
        "f4516883534f283feac9854c3a09065ea820a4a59d32a66f765c09562af3b632",
        "acf6549dd4625849481b957218b548221b2e267d65a2270f9628bd1e0117e616",
    ),
    "tau G1D1 all plus": (
        "5a9fbee7b331078307b1136e172d5401012c2f35604458c3c4b1fca1db0fc8b3",
        "df641c11b9982a4ad568a9d83ff24cf522b02a4ee160771d4b2f030c74917d97",
    ),
    "tau delta_a k=3": (
        "0ccd89b36baf4759e25f5a5743e500d9c48c317b5b112949466439f987198cf6",
        "459b650796936124718d26bbc69c197581aeda3fb2f2d07922c4ceaabd4102e8",
    ),
    "tau out of scope": (
        "0e6a2405381b28c17b16649c9762690ec39eebf7c11b6b15bc5ce6d671d10150",
        "61241b0721752d690f0a86e4d611d9ff9d2b7bc32a3415b46f8f9c5f73793bc0",
    ),
    "out of scope: odd degree": (
        "c70b83bd0f0cb7f9cbe08d2099ec54d22f39cf5e818dfa0131141fbf220c98f5",
        "51fa547da53ca3c16e196569866d9cdbc7ee8b233cb809dbff2ee653f8a9d9df",
    ),
    "out of scope: not palindromic": (
        "0dd57f19d8317a292c1eaa9fd3e917d10ba9fe4c046325b25d55e6ad1b06abf3",
        "bd621a1cc517ca71f28e5e4deffa5bb98301f66ad5ba58cfca3317bfd9850b14",
    ),
    "out of scope: Delta(1)": (
        "4fd6aacbec60d7ff7ea7638f96eb994c666bc0bc144496b53507f8913f16f16e",
        "182e00007713a4d08a0c224ab5a2cf9d0e0c42f71c9b8e35ec16236043c2c944",
    ),
    "out of scope: Delta(-1) not a square": (
        "f62f12a9f54644749eb5cc9b3dfe4acb4d394e136005ccb3d2fbf0346eb61250",
        "ca0237c6dd39003b68b21e244e9d40fc1366cdc1f9559584bcc37a10a5f093eb",
    ),
    "out of scope: P not squarefree": (
        "3120c7098b422c39304fee193282c331aa1363143a67e2615a7db4a7a00608c5",
        "11e402ee816a0b18b31efc423da759ecf2e8ad48f0ee1ef935fab4d90f9a7127",
    ),
    "out of scope: factor not symmetric": (
        "4965e331c5881a36e4d81e40a6dca0947e34d5cb119471a469078dcd18e85dbf",
        "5a67a538657e3db36d3a6cd6fb363e93b7d01deabd59d37ccff2c5b80b3f5944",
    ),
    "out of scope: delta_a(-1)": (
        "f8147b63637a309c18c310785e8e1a39f0b34294388e24368ed11cde6445d71b",
        "af3799ba182e36d85dd4ab11c62a8eaed6dd788d659536c09ed3eb1423f1c519",
    ),
}


CORPUS = _corpus()

SEIFERT_FORMS = 16


def _seifert_texts(corpus_seed: int) -> tuple[str, str, str]:
    """The Alexander polynomials, Milnor values and report JSON (analysis
    and tau analysis) of the corpus's forms, each as one text, by the
    calls the benchmark's worker makes."""
    deltas, milnor, reports = [], [], []
    for op in workloads.seifert_forms(0, SEIFERT_FORMS, corpus_seed):
        form = op["form"]
        pair = form_to_pair(form)
        delta = alexander_of_form(form)
        deltas.append(list(delta.coeffs))
        assert delta.evaluate(1) == (-1) ** (len(form) // 2)
        ms = milnor_signatures(pair.s, pair.a)
        milnor.append([list(ms.values), ms.total])
        req = AnalysisRequest(delta=delta, m=7, signature=op["signature"])
        reports.append(report_render(analyze(req), "json"))
        if all(v in (-2, 2) for v in ms.values):
            req = AnalysisRequest(delta=delta, m=7, tau=ms.values)
            reports.append(report_render(analyze_tau(req), "json"))
    return json.dumps(deltas), json.dumps(milnor), "\n".join(reports)


# corpus seed -> sha256 of (Delta_A coefficients, Milnor values, report JSON)
SEIFERT_GOLDEN: dict[int, tuple[str, str, str]] = {
    0: (
        "dd7575fe365e13abdb705d2d9bb63a8fd108aba4cbf8ae8ef1cc404fa9fbe6a5",
        "77d33e4b96f264755e2b33398b09eb3edf0797d680a923a29249fb2ef2204f9d",
        "5fa0f67b9622f41d90f7603714d4e9234eb8ef3a14a133cf990f479155bc485e",
    ),
    1001: (
        "3aa34a52bab9a88841c1dbe7b44a8214dddfb428d50c443e3d2fa9868f474a14",
        "77d33e4b96f264755e2b33398b09eb3edf0797d680a923a29249fb2ef2204f9d",
        "275ca90a0966ebd11d5f36e47cebef77242fc8a3f0a1256e67df99b033753de6",
    ),
}


def test_golden_table_covers_the_corpus():
    assert set(GOLDEN) == set(CORPUS)


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_report_matches_golden(label):
    entry, req = CORPUS[label]
    json_text, text = _render(entry, req)
    assert (_sha(json_text), _sha(text)) == GOLDEN[label]


@pytest.mark.parametrize("corpus_seed", sorted(SEIFERT_GOLDEN))
def test_seifert_forms_match_golden(corpus_seed):
    assert tuple(map(_sha, _seifert_texts(corpus_seed))) == SEIFERT_GOLDEN[corpus_seed]


@pytest.mark.parametrize("stream", [1, 7])
def test_reports_do_not_depend_on_the_random_streams(monkeypatch, stream):
    """With every randomized subroutine the analysis calls drawing another
    stream, and cold memos, each report renders byte-identically."""
    want = {label: _render(*CORPUS[label]) for label in CORPUS}
    for module in (modp, intfactor):
        monkeypatch.setattr(module, "Random", lambda _: random.Random(stream))
    clear_facts_memos()
    assert {label: _render(*CORPUS[label]) for label in CORPUS} == want


def test_json_byte_identical_across_reruns():
    for label in ("D1D2 m=7 s=8", "G1D1 m=7 s=8", "tau delta_a k=3", "out of scope: Delta(1)"):
        entry, req = CORPUS[label]
        assert _render(entry, req) == _render(entry, req)


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple[str, str]] = {")
    for label, (entry, req) in CORPUS.items():
        json_text, text = _render(entry, req)
        print(f'    "{label}": (\n        "{_sha(json_text)}",\n        "{_sha(text)}",\n    ),')
    print("}")
    print("SEIFERT_GOLDEN: dict[int, tuple[str, str, str]] = {")
    for corpus_seed in (0, 1001):
        shas = "".join(f'        "{_sha(text)}",\n' for text in _seifert_texts(corpus_seed))
        print(f"    {corpus_seed}: (\n{shas}    ),")
    print("}")
