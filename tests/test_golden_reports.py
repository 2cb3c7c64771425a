"""Golden reports: the sha256 of the JSON and of the text rendering of a
fixed corpus of requests is pinned, so any change to a verdict, a reason,
a note or the layout of a report shows here.  The pinned values also make
the JSON byte-stable across runs and processes for a given seed.

Regenerate the table (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import hashlib

import pytest

from knotsig import AnalysisRequest, IntPoly, analyze, analyze_tau, parse_poly, report_render

DELTA1 = parse_poly("x^4 - x^2 + 1")
DELTA2 = parse_poly("3*x^4 - 2*x^3 - x^2 - 2*x + 3")
G1 = parse_poly("x^6 - 3*x^5 - x^4 + 5*x^3 - x^2 - 3*x + 1")
PHI15 = parse_poly("x^8 - x^7 + x^5 - x^4 + x^3 - x + 1")  # one factor, rho 8


def delta_a(a: int) -> IntPoly:
    return IntPoly([1, -a, -1, 2 * a - 1, -1, -a, 1])


def _product(polys) -> IntPoly:
    out = IntPoly((1,))
    for p in polys:
        out = out * p
    return out


def _corpus() -> dict[str, tuple[str, AnalysisRequest]]:
    """label -> (entry point, request)."""
    out: dict[str, tuple[str, AnalysisRequest]] = {}

    def sig(label: str, delta: IntPoly, m: int, s: int, seed: int = 0) -> None:
        out[label] = ("analyze", AnalysisRequest(delta=delta, m=m, signature=s, seed=seed))

    def tau(label: str, delta: IntPoly, m: int, t: tuple[int, ...]) -> None:
        out[label] = ("analyze_tau", AnalysisRequest(delta=delta, m=m, tau=t))

    for s in (0, 8, -8):
        for m in (3, 7):
            sig(f"D1D2 m={m} s={s}", DELTA1 * DELTA2, m, s)
            sig(f"G1D1 m={m} s={s}", G1 * DELTA1, m, s)
    sig("D1D2 m=7 s=8 seed=7", DELTA1 * DELTA2, 7, 8, seed=7)
    for k in range(1, 5):
        delta = _product(delta_a(a) for a in (0, 2, 4, -2)[:k])
        for m in (3, 7):
            for s in (0, 8, -8, 16):
                sig(f"delta_a k={k} m={m} s={s}", delta, m, s)
    sig("D1D2 delta_a(0) delta_a(2) m=3 s=16", _product((DELTA1, DELTA2, delta_a(0), delta_a(2))), 3, 16)
    sig("Phi15 m=7 s=8", PHI15, 7, 8)
    sig("Phi15 delta_a(0) m=7 s=8", PHI15 * delta_a(0), 7, 8)
    sig("Phi15 D2 m=7 s=8", PHI15 * DELTA2, 7, 8)
    sig("D1D2 m=11 s=-8", DELTA1 * DELTA2, 11, -8)

    tau("tau D1D2 all plus", DELTA1 * DELTA2, 7, (2, 2, 2, 2))
    tau("tau D1D2 sum 4", DELTA1 * DELTA2, 7, (2, 2, 2, -2))
    tau("tau D1D2 m=3 sum 0", DELTA1 * DELTA2, 3, (-2, 2, -2, 2))
    tau("tau G1D1 all plus", G1 * DELTA1, 7, (2, 2, 2, 2))
    tau("tau delta_a k=3", _product(delta_a(a) for a in (0, 2, 4)), 7, (2, 2, -2, 2, 2, 2))
    tau("tau out of scope", DELTA1 * DELTA1, 7, (2, 2))

    # one input for each OUT_OF_SCOPE reason, in the order they are tested
    sig("out of scope: odd degree", parse_poly("x^3 - x^2 - x + 1"), 7, 0)
    sig("out of scope: not palindromic", parse_poly("x^2 + 2*x + 3"), 7, 0)
    sig("out of scope: Delta(1)", parse_poly("x^2 - x + 1"), 7, 0)
    sig("out of scope: Delta(-1) not a square", parse_poly("x^2 - 3*x + 1"), 7, 0)
    sig("out of scope: P not squarefree", DELTA1 * DELTA1, 7, 0)
    sig("out of scope: factor not symmetric", parse_poly("2*x^2 - 5*x + 2"), 7, 0)
    sig("out of scope: delta_a(-1)", delta_a(-1) * DELTA1, 7, 0)
    return out


def _render(entry: str, req: AnalysisRequest) -> tuple[str, str]:
    report = analyze(req) if entry == "analyze" else analyze_tau(req)
    return report_render(report, "json"), report_render(report, "text")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN: dict[str, tuple[str, str]] = {
    "D1D2 m=3 s=0": (
        "bd7a86606a14f39de26c49aa99ab05bac4b438bd7f48bbcad112cfa9e90ebae1",
        "3acf616e0615a7aa6ecde0d7c5bbbcca5692b13fc201569e49e2863c7041901d",
    ),
    "G1D1 m=3 s=0": (
        "d5f71ae31c5a84e49d3476f1b7c3a64d17c2f8872cfde8b9bfeeab2d5c074c2e",
        "1f3b50cf242a44974fcb6460786756787ca8d042f90b24076d618a31a0da5b45",
    ),
    "D1D2 m=7 s=0": (
        "57c150056db8a1de672da06de9acd516ebbc0185ec16a6833dbb99fd057ef3fb",
        "61245f3e24d4fcf43400a6e4d9d790a626bc0755afd2e57f93dbc6342c85819b",
    ),
    "G1D1 m=7 s=0": (
        "c5d00ee3011d3053ce3ba9654e4b339e92c86174adaa156f45116c6e4a898fbf",
        "4282bf16512a7fb7a2b480858ce1b9a0dc68bb09151490adca1a4ed6ece6e5b1",
    ),
    "D1D2 m=3 s=8": (
        "c3bf51863b4426121a5fdc75605f7ff159d19697309d379f523e6d2b6b1e5be1",
        "c4b022476fc2a85618e90cd6367ec3e9deb3ea9050d00ca7b95c35b4e494d5f0",
    ),
    "G1D1 m=3 s=8": (
        "639da8cf520c8a057396370aafe715d5b89200ab1ff111699ced3ae35392fc11",
        "4a8a8c2cadb0b88ed993f1b52e80a30d218c19397d8acc48e7a07ed0a65b83d4",
    ),
    "D1D2 m=7 s=8": (
        "67c920e3122e4f38405499e82b555e3bd333dfcee08dd6b9a3ec013d996aabad",
        "70639c51cf09ee58a036e935274ab9343c96bcf6b8a17d11d9dd56aca375b049",
    ),
    "G1D1 m=7 s=8": (
        "bdb36314be22ac6b54ea30ad6bf668e690a5482e9f00ca379bd7506a00ba3a82",
        "6093ffd17629a75a870519f32af43171ddca3ecb029fcf29ce99b32337998e38",
    ),
    "D1D2 m=3 s=-8": (
        "35753c5ef4af4ae8b9297e4680f59062436cab6cecb16cba23a6a6f7e380cac5",
        "4eaa2ae9bb3b78c1323e2050dc58a13a5c6ceface0608f65b5864fddfe5db937",
    ),
    "G1D1 m=3 s=-8": (
        "d23edc3da0427de9c29bfd1b5fe0e813eea1f4d46874f0e3b780b5838562e8a5",
        "19a16772250a30145eb6b616bda6d44509ad309373199c3a4a44802b3805a03c",
    ),
    "D1D2 m=7 s=-8": (
        "0f7bbd280fe39edebe91b80939055e3df07359e31f19cc96c23014550edc5331",
        "d4ccefa5b9c5024880da542bdc4fcde5f451354c47d6ffc41ffad6821ce12ec5",
    ),
    "G1D1 m=7 s=-8": (
        "8c3c560fff458d21e47efe49430c001726d72a1e575c2a53483b3e14d09d9bf4",
        "5039e40ddd047eb146cc4a36c081ef0eceb376a388bcbd4cb3869f32621c1521",
    ),
    "D1D2 m=7 s=8 seed=7": (
        "91371f9e0f125b3d88eb1b037d134311a69e11bb8c70dff70d4e913916d99f5a",
        "70639c51cf09ee58a036e935274ab9343c96bcf6b8a17d11d9dd56aca375b049",
    ),
    "delta_a k=1 m=3 s=0": (
        "5218678d30fb1f277adeaa64a0657953639a63190ba31f9ee232319397b5edfb",
        "77ec49928682d8c8061180e5342391808d05d086bd7c5fc6985b9e4172fc4aef",
    ),
    "delta_a k=1 m=3 s=8": (
        "324db20a4933c1c45f95d3efea51a5a843fccedcfd546adb9d961e87d04dddc6",
        "115fab80dd9090be7baab3c13cba483350009d34f98d260d6c21198c8807604d",
    ),
    "delta_a k=1 m=3 s=-8": (
        "fb77dde6e1ea464a5890bcabbed84b2b416fcba71748240103f9057fc6ff3545",
        "95ba36eabf402c56021c772fd5515071deaf14d2bc27a420e8e8f93a479e8866",
    ),
    "delta_a k=1 m=3 s=16": (
        "e3e3b64a79e90b889339b71aa68584d1a5ba34ddf72cbc835988796688540d27",
        "b35d906efe628aa1433c3e83684ef1d8722fd6a0ed26e2b63f5b204b6769c3a7",
    ),
    "delta_a k=1 m=7 s=0": (
        "3bdedff38ef45286af118639b70f561cd56ec2b4d81ac2f44943cea3ea6c63e4",
        "6debf3df0285f16c161a4ba0e36c0d7508841358dee6899462f8d7f12de3b761",
    ),
    "delta_a k=1 m=7 s=8": (
        "719ee71733ff41c4b0f05016c71b95bcb624b520000cc2bdc36c98ba40740f2e",
        "ed08690605e22f7a0d7528dfecca08095986642f719d8fca98b17c6241efba21",
    ),
    "delta_a k=1 m=7 s=-8": (
        "cf337594923df62c3b3b48a17e89369fdfad16ca46e4039c2bd535dedee46e16",
        "50b738ba08238c292fa98834adc9b6f5d23232bf08e9a27bc36f4542d776770c",
    ),
    "delta_a k=1 m=7 s=16": (
        "dda87142161e34511d4fae62c444b044b8c1db4f9983b11e22dd8f740da315db",
        "a28c49467eec7f4130620892f41baa129161690e625fe45c575036f8661bf59d",
    ),
    "delta_a k=2 m=3 s=0": (
        "d38363ce60f6dbd2a9dd1e4a6c27ceac33a96fae8a02c0eada37bd01f202c1a6",
        "607afef59bbe319ef842ead05b772585c60a71b7851eaad4d817574896e7d8d5",
    ),
    "delta_a k=2 m=3 s=8": (
        "d1a539aa4787965eb293e398bdaa6f101cc6360414081fa4b09f08b3aeac7756",
        "a35c2f8b4e8e43a7051289ab9d9bc6f2de2708a03b470f9515909f603d5b0913",
    ),
    "delta_a k=2 m=3 s=-8": (
        "7b3c44c9c832424b4c64c15624025d3a71bc2686f16d3a1bcd3a40fed8fe475a",
        "3c8f4c7730145179e697e4a78b561d5a7b8474b489ff22ae9eb10dfd0b217106",
    ),
    "delta_a k=2 m=3 s=16": (
        "c37f08b7177ef63660ecb148f0f846c6a7555aa97d280d28cef23cbb5201bef2",
        "828fe2e61c1eb91eb34d529d94fc63d8b6ca4e6c673453be22a9bc3c05d29c00",
    ),
    "delta_a k=2 m=7 s=0": (
        "d2b576ee682ae1457dc001793c075bb9b774aaaecd10e3f5285d58b097e6e642",
        "1505fa019665e8126ed5b345116ea969f70f468fb7fdefb4ddff87c0302bf422",
    ),
    "delta_a k=2 m=7 s=8": (
        "26dae8893a505d37b082f9457eccd70ba5e70635fec33d48fcfac08ec029ddd0",
        "c712a939cb272c4316d44770889c8580986c09ed2beaa66943c8c5a684db812d",
    ),
    "delta_a k=2 m=7 s=-8": (
        "bf956f43d11433d24e993c52d4512694afe8ce407efb435a62dac492f5537cc1",
        "610d9f93e9b8f105683557bdb30a941b406864ec9c8c5ef779e6dee8185637c5",
    ),
    "delta_a k=2 m=7 s=16": (
        "245d3683e064be690bf0d82b45c3e864ef75fd3ddcd2059e1d0571e85db8e538",
        "261b7fe4649cc7f6edb08a5aaee330eb4cfe14f941d063c06f67909a34c715f5",
    ),
    "delta_a k=3 m=3 s=0": (
        "9659b79e72e931ffc3bdf9e1ce1866ed4ac01fcb7f3ae6b9e04e9cc65e62c096",
        "af8add6b66486fb1646bee7b4852d0a5cefea31cea712d6c9571457f3d7e17e2",
    ),
    "delta_a k=3 m=3 s=8": (
        "41ffe444c9c4a015465de71eca4117874f2361e2bc2481ebfa2c7db3422700a2",
        "988b49550713d9b93ad89cfb11c1614d95f0bece9520abe9f58b3feaa8325547",
    ),
    "delta_a k=3 m=3 s=-8": (
        "8fb2508e2f4bf1fb9f61dd14089acff91b36eb4440e6e3baeb33771428ab1477",
        "306b453eb3e9266f66600af8e1174d96d32dceeeaac5ea3151212d489432693a",
    ),
    "delta_a k=3 m=3 s=16": (
        "1ed0d871069fd4b5834aad4018dc410b8410d1c870bb1e5e39cfda9d888d0ab2",
        "e0abd0a249c6c5a11f8aa9e63dce22cb7a8fd5bc563b844d54f6bd19e519fb6a",
    ),
    "delta_a k=3 m=7 s=0": (
        "a7d0a606bf13e9140e874f4b0dec268716ed6cd651b36f735386f6b56711a580",
        "25c9ece9dbd634dd5a584236332da41ffb51429df946034fad847c215c9d7c7c",
    ),
    "delta_a k=3 m=7 s=8": (
        "6eb01f009771ece71ec3fd7b759d4125f3431de1a297f72d9ce9c7ba151adc4a",
        "b2288a86542cb1a26ae68ed38c7a85e54f0ae968292a6b9629d398c2ffc8a3e3",
    ),
    "delta_a k=3 m=7 s=-8": (
        "82ca9ba575d55277c2e49f34c0a07a445667ce520c48a0eb0d3b2aa094b44963",
        "7c5054609e8526910e8f0b8524723ce91eeaeacff796615878ce206a89f73fb4",
    ),
    "delta_a k=3 m=7 s=16": (
        "2c8d9b1ae0945dbc13717460868d739dbea034035afbb05beaba97b9d79d2221",
        "a4563a4ce99d9fd0f9b69722bea380e08e2152af32345aee498de27a4e489540",
    ),
    "delta_a k=4 m=3 s=0": (
        "839a5fea5659405b3dc007fa95a2156842090f1cd6b2e934a4b1d870121be1de",
        "9ea5817657aa2a51e698d9d4e13fcad90adebe553c399d17f0da420d71831c08",
    ),
    "delta_a k=4 m=3 s=8": (
        "da07aed1f0816d7e0a5ef03fb50da8d39498e66aa4537362632fe81375859339",
        "126968892ae60881e73ab8aff8fa64c1fc50afae990a2be227829a462e6f40e7",
    ),
    "delta_a k=4 m=3 s=-8": (
        "385e1b0e62cbdacf8062d87813547f24924fbc9e43cbd881d7c3231f685cb413",
        "1805fd500e64064fa4532c3e1c3854fb47fcb194f7b8b2b908a6b22e02993787",
    ),
    "delta_a k=4 m=3 s=16": (
        "ef2dbb88a20a630625991b57d64c983a1d9da7c800c91b34d0d3f16e09ccc8f9",
        "24fb109a353fbfd684b3f90305fc695ce2eeaef7381e1b17b35ca4c165bc4091",
    ),
    "delta_a k=4 m=7 s=0": (
        "5cc231a5ce9fcc7a49e2870e1ec192565f5e4b6c145be8ba9ffb2508d4891c46",
        "e831406786bc847b70cbd3b07516872478ab9ceef0557fa9f384e4183910cdb7",
    ),
    "delta_a k=4 m=7 s=8": (
        "bafcaf764acfebeb861022e855024911368edf84799288984d74cba1a70005ac",
        "29f97d2f0d7bd6a3ca761c8f8022bc524f436be54b6843e56a2df848f474a4fb",
    ),
    "delta_a k=4 m=7 s=-8": (
        "9cbfb4fcd18da925f9235facb47cb880cd48c623c2353a0fa7d16789cd68ee91",
        "b7058093111bcc60910187a44ffce45b3ff3e20a75bf7dfe304ce058f0ccc54e",
    ),
    "delta_a k=4 m=7 s=16": (
        "d59833938664a7db20f6efc5045d28ad2315cc18600695521134daf189ae1f17",
        "f2098ca5a498cc4e5f6b698805f09756c2d5c482e5084369ef2dd8a4ce655e98",
    ),
    "D1D2 delta_a(0) delta_a(2) m=3 s=16": (
        "538a3d33277438f0ee4a7dc503248ba3ffa139e0d31ec1311ce9c26d7fbc2f46",
        "8e8e028ea236a55024da72f4883f80e9fa7c902de0a80b818e2f06120daffd92",
    ),
    "Phi15 m=7 s=8": (
        "f6e1a741c3b9be4b775673566ce7cbd41b3c6da99793a34b19a8ca7a86b8d768",
        "239f7872f64c0bc7241cb830cf0ee67636316706dc53267465314a331b0f8c9f",
    ),
    "Phi15 delta_a(0) m=7 s=8": (
        "a6457f5da8919d746265dbe13e7e26b567f50eada07fd74c8b3bd560fd10cc5c",
        "1c7aec0322509fc655c6b975d272e90d918033a2d439b288a92933546f1baadb",
    ),
    "Phi15 D2 m=7 s=8": (
        "f7d5aeba9476564196aaf6c545ecc55cfb4768e3d0c100491f306ed7621d6f55",
        "293e9f45a6ed5d1c57da8e6f597984a5ff04186821c54845361e9e0e38e59185",
    ),
    "D1D2 m=11 s=-8": (
        "e1fcd403cb3307162a5cad8047ab1013429e5085215ca0ad2cff4db95a243a7a",
        "89ae2cd11b9bbe442da717f121ea1467644aefd11bef08898619229aa6980654",
    ),
    "tau D1D2 all plus": (
        "a567cdfe9e67167884bfa8f56d3fce9788460d846349f68b0398c5f99852fdd2",
        "e61c2c44ff414f808d44e2882f011114b5b90fb1faf6788e02bc941ce42628d8",
    ),
    "tau D1D2 sum 4": (
        "0a40f41926efbe3f936787e244a080db0739f0876019468803bd0007195ca3dc",
        "c31c8048ec8f39bb134803f3f3ba2c566dbabd8a27b623d86d734e543df590d0",
    ),
    "tau D1D2 m=3 sum 0": (
        "5ee8f6e0d95e5f4c4a368551e4bac5d989446446ca1b45ca77e729907931a3f8",
        "c9d7ec35fc95dcdbf8500b293c007ddf6be1ffbe6f96e61197b78b5991fd5092",
    ),
    "tau G1D1 all plus": (
        "49b543b75d6b0ecbb68fc1e6887daa8cde71672cc06748935210e4506aff6a31",
        "df641c11b9982a4ad568a9d83ff24cf522b02a4ee160771d4b2f030c74917d97",
    ),
    "tau delta_a k=3": (
        "f8e2d9d66ba29b8551a1a7f969685cd8629cc13220d538b289708b29bcb5f3a3",
        "8e3c100ef591edbe2c2dae86a279330b54d5f7817999e64796d26c0b09c5e535",
    ),
    "tau out of scope": (
        "b8141c7d3a7dab4a9f7d6a9d2f30a48293a20fe609b711bf35bab8d54e4b653a",
        "61241b0721752d690f0a86e4d611d9ff9d2b7bc32a3415b46f8f9c5f73793bc0",
    ),
    "out of scope: odd degree": (
        "bbbbef871939ed473f4639e2fe2275e69a2476873f277dcc9b1a2d491e5f63a6",
        "51fa547da53ca3c16e196569866d9cdbc7ee8b233cb809dbff2ee653f8a9d9df",
    ),
    "out of scope: not palindromic": (
        "78b67649aa94301f5b6020a193e8dc022881101775a060a593771c91d5ada45e",
        "bd621a1cc517ca71f28e5e4deffa5bb98301f66ad5ba58cfca3317bfd9850b14",
    ),
    "out of scope: Delta(1)": (
        "6122aa5254ac631ee4e6e87ecb103d37c29539dc91d116969f0dd14652b0e417",
        "182e00007713a4d08a0c224ab5a2cf9d0e0c42f71c9b8e35ec16236043c2c944",
    ),
    "out of scope: Delta(-1) not a square": (
        "e9a52139a3cf045ff50de4198c1e70cb41a2426158b3157048b963ec6bddb32d",
        "ca0237c6dd39003b68b21e244e9d40fc1366cdc1f9559584bcc37a10a5f093eb",
    ),
    "out of scope: P not squarefree": (
        "33c716854571cab2e20a894c76a7e8325f217b31e19779b20c8f92b0ccca9314",
        "11e402ee816a0b18b31efc423da759ecf2e8ad48f0ee1ef935fab4d90f9a7127",
    ),
    "out of scope: factor not symmetric": (
        "42a0e81cec5db966a44f2ce09af84b406f64300b6ac15fcb74f3415f50030fd3",
        "5a67a538657e3db36d3a6cd6fb363e93b7d01deabd59d37ccff2c5b80b3f5944",
    ),
    "out of scope: delta_a(-1)": (
        "33d7b33b25d0dec50838904b6fcaf28a6dcb3832767eb1c22e090a5dd3f2963a",
        "af3799ba182e36d85dd4ab11c62a8eaed6dd788d659536c09ed3eb1423f1c519",
    ),
}


CORPUS = _corpus()


def test_golden_table_covers_the_corpus():
    assert set(GOLDEN) == set(CORPUS)


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_report_matches_golden(label):
    entry, req = CORPUS[label]
    json_text, text = _render(entry, req)
    assert (_sha(json_text), _sha(text)) == GOLDEN[label]


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
