"""Golden output: every subcommand, in every output format, run in-process.

Each case pins the exit code and the sha256 of what the run wrote: its
stdout followed by every file it was asked to write (`--out`,
`--export-class`).  `{M}` stands for the machines directory and `{T}` for a
per-test scratch directory, so the digests hold in any checkout.  A case
may start with NAME=VALUE environment settings.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from learndim.cli import main

from conftest import MACHINES_DIR

GOLDEN: dict[str, tuple[tuple[int, str], ...]] = {
    "simulate {M}/halt3.tm --budget 100": (
        (0, "0b740e1f453eb85f3e34e2342c7db7ecd191c65631ae96b84f2d8bcdda1e0e0a"),
        (0, "fdb0b90830120e8b9c48b536b4cb3635d14d47ad3ecc686aca1d912e8be2de79"),
        (0, "bda1bccecacd61f86fc6ba3dafbed6b385062d76d64a1716d7b78bd5cbca780e"),
    ),
    "simulate {M}/loop.tm --budget 100": (
        (2, "f97d78e2432baacaecde8f4918acba76461886c665d3631244f3bb01442b0a7e"),
        (2, "1dd579b6d019e53b9ebab5cd88f360e2b16560710803f2ee00f4cfb7613f9838"),
        (2, "a87987b2d960fc26863b1a6daec546da608b7090c183ba04be0df5d915ee61a1"),
    ),
    # dim: the default schedule (implicit and explicit) and a window, per measure.
    "dim --class halting:{M}/halt3.tm --measure vc": (
        (0, "c350b674f3677f45b1ead7f0c1237efca2b073b6429d04ab02a9b007a19100e7"),
        (0, "5d7804db776aa4b397601db7ee9039cafa3f5dfbaf110fcb63cd7207bd7f8a19"),
        (0, "7f519bef6f5db0107f721cc0a93dfb31cfcaa277d0eaae5818ab7f61f272ee86"),
    ),
    "dim --class halting:{M}/halt3.tm --measure littlestone --schedule default": (
        (0, "ac0a6dc935f00d6d63e7724781df672ac152084049fe7c7cfe048bb1f613e5aa"),
        (0, "1f9757b63a7c47d1090cfd54dd997eff639973c7b2724523d49ab2902fb59d07"),
        (0, "e7370d1a433751520840dbf61c15f6c055f07d9ccb89636aa24c8388cbb68fe7"),
    ),
    "dim --class halting:{M}/halt3.tm --measure teaching": (
        (0, "f1b6bb81492fa2efb8ffab4a2f967b3060c27718696f1a9873392ea6c84590f8"),
        (0, "7a1f5ed466fb082ce071825641c51656b9028080ccd227ce7dfadb5b0650dccc"),
        (0, "7dbcd433474465ffcbb05c409e98b7cbfce70e221a6a59ff8ba09611cde40c66"),
    ),
    "dim --class goedel_prefix:inconsistent_at:2 --measure vc": (
        (0, "7911a35ac34eb42f9f2cbaa99b7573be3c1c9d19fe912a19877d8ffc25ff6748"),
        (0, "ff2581edc6255f56e4169b426e72d93dd08a3e6a98b48e1ca6d0dc2ca4dcee34"),
        (0, "2a6f8ce3664f9ad642a210f893e6c9d2ce40e7e02a837be09311f21f7eea8976"),
    ),
    "LEARNDIM_EVAL_BUDGET=64 dim --class halting:{M}/halt3.tm --measure vc": (
        (3, "3992cac510889b4bc9b52ccc3069a39949959fab21c66e8684cb5dd5ccf8cb1e"),
        (3, "b2fbe8ab8598d54f9620324d443f7e369ff63fa70714aa3193e4632400f6ea80"),
        (3, "459eafba232bdafffc8fee612840cf1d5d7818556556de15f0ce6951d6d33d46"),
    ),
    "dim --class halting:{M}/halt3.tm --measure vc --window 5 64": (
        (0, "aa1d0e2a1f5be01cd5915615ec5f19159bcf0db354672de87c34d368b83648c2"),
        (0, "4c769a4e8c9c8c288423c2e527a5ac2c2ebb51d49efb72e4665a367004e6c7f2"),
        (0, "2ee965486bfd25ed3acff2ec12f611a64ad468f741c1287edd9538efb28797fa"),
    ),
    "dim --class halting:{M}/halt3.tm --measure littlestone --window 4": (
        (0, "81c10f0e943c5e8f39ed89816472a145a449889c78f25ef6c5330556ab3b60f4"),
        (0, "055ace02eabdc67339c3d678a902af729d29261904e2a6472a2c24fd4c2da504"),
        (0, "ebaf476a7f1f4a1281a806f8503d4a3ff8cb5e43bbd2aedc3a31b0bbce658f3b"),
    ),
    "dim --class halting:{M}/halt3.tm --measure teaching --window 4": (
        (0, "a24f1538ac14c9214d9bc52d35370855faff41cdab471c4dd66cbdbf47771994"),
        (0, "3e40fdcba62cc5c458319974bc4fb0a3a019dde3b99a4c7b2135796558775c50"),
        (0, "d339a696ffa5bca81f6b75effdd863f35106a731f1ab7ec228e1c6fd61ff0ac1"),
    ),
    # A step window's tree is not a uniform cube tree: its nodes come from the split scan.
    "dim --class step --measure littlestone --window 6 8": (
        (0, "0f97d885f45a970584add94e4750b111327fa228ad91ed1897afe2f3fd870eeb"),
        (0, "bbd9519023f92603470b5f582fa148f348ddd54bcfb46b526ad2cc187bd4622d"),
        (0, "1b57176cc5d6ea41877544d590fd8a573d3757390f1c61ff88a183214cffdce3"),
    ),
    "dim --class step --measure teaching --window 3 6": (
        (0, "d6932f55798471dabe978f5096e94732974de4fd398c889583d5dd20effdfdcb"),
        (0, "2b314352b503c9ad1c758a18cfa5321cf16b61f2f28d6090862e7107263eed0f"),
        (0, "7b1690cbf9d8c2bbedd0535a746f123a04b85d68635111b5747d7b64ff6acd11"),
    ),
    # 8 concepts have every neighbour in the window and 32 take the cover search.
    "dim --class halting:{M}/loop.tm --measure teaching --window 5 40": (
        (0, "6ce5d2e51d2f672961e392eda6ebbca0f691e475c214679904d0e3c5ad24110e"),
        (0, "64cc8463b51b1f6e0d7b2d96b5b77b8eada81cd062e81042061a61b8dc57edbc"),
        (0, "222d120997d7f765ba799259dc4b5be885ba381ea80643d3e01c67ac31bad913"),
    ),
    "dim --class halting:{M}/halt2.tm --window 2 8 --export-class {T}/window.csv": (
        (0, "7f11c443d3769dbfd856947786126ae6f10f2b2bf32f5c8ff20225b3044c97f6"),
        (0, "0a6019e78d352ad203abd7c3f4d9abc01e7db0f96ae5356e6fafc85a5fc2a333"),
        (0, "90e3d8c15bc6d428f10902bcb588a078e4dd7b730bffa1d0f4629010ea514203"),
    ),
    "dim --class halting:{M}/halt2.tm --window 2 8 --export-class {T}/window.json": (
        (0, "1caf640f9017c06f4e03ce895df3fcbba220c3efa824424c568882bb6a3c2880"),
        (0, "a9fa1a59d8a57fe715cf18486133b2442c2ec19793d4e45fe84c9057414e2952"),
        (0, "f0e0b2d9e4d0ff6e7bc5784718fa933175d3218ef1f577f448a742c6bf8761bc"),
    ),
    "dim --class halting:{M}/halt3.tm --measure littlestone --window 3 --out {T}/report": (
        (0, "1ba58e1ce4b1927387b60cc909589e640eb1398c2a3604e598cc6ea01abb890d"),
        (0, "d499900b3b33d357f99ec46a6174c0d76aabffde6d84b56623389dc82bad4bf6"),
        (0, "2085d1307446464938fe2891bbe8a55a099be97b72c4cf1fce04797af8c5f161"),
    ),
    # teach: whole window, one concept, escape witness.
    "teach --class step": (
        (0, "66b9ff0d7573230b46e7fc33196a34a900c3fb09d164c2b94e643698c8fabab5"),
        (0, "7779fb340c1b6835175c3d6dbc949e64c1fdba76ea0414d1a7153fb5f2162b71"),
        (0, "15100199479effd711cfe7e4c4dfa563dee3800fe24131dcf73ff7923dcc707c"),
    ),
    "teach --class halting:{M}/halt3.tm --window 4": (
        (0, "31f6b27dd0f325940469901d3e184cef070ed2a33ee9989747c13958e3631a15"),
        (0, "ce73c4e9f8de3fbe6a54bd21caedb65e4bac852b9e0464b0015dba0d73423864"),
        (0, "6883de91ffe94ae1c9983df3f50c8c39ea3b247b33eddc35a0c3560611145354"),
    ),
    "teach --class step --index 3": (
        (0, "7ba13de89150582a901ddaeec81b2399851189a4ef0bb8f6e138bc6cf4042eb8"),
        (0, "aa02adfb1e51156252353669d619a6c81e553980380cc0efc08a393de277f781"),
        (0, "401d786dee677e615188d765b28f79e3dd050b7055cce089e506ccf4d52312a5"),
    ),
    "teach --class halting:{M}/halt3.tm --window 4 --index 5": (
        (0, "be370902cc8cd7a0012fdb118e12256c347ff83b5f5ea44b632a57cab3974f5d"),
        (0, "fa58d657052964148a8f39850d87a0fca01ac9f295f46b983c9d7eae802a92e9"),
        (0, "ed88ae057422bf99bc6086f74b06868120769cab73fe0a56e94a188fcc65f37c"),
    ),
    "teach --escape 2,7,4": (
        (0, "723ccd5d485e8c78533131944a9ffc275bef44d7c64b00c44840bef6eec74011"),
        (0, "d68091f5d5aa7bd18aefd236de8a29752f1cc91140f78001a9914d89d1d668d4"),
        (0, "ad9913d1fad490f5b00ce1469b1b0ff480050aeda4fce216d80d448e86aa5778"),
    ),
    # tree: layer and active labelings, and an unresolvable witness.
    "tree --class halting:{M}/loop.tm --depth 3": (
        (0, "5ef00e34356d703d1c595b6a3fbfb35ce5ce03769bcc19e81d452c41b475f65f"),
        (0, "d503bf7ecdf3399c70f2a4003b224e13eb8fb79a855b5db3b5609a7f3f8ac4fe"),
        (0, "25990f6007563674c2b3de7891bbfdebce8ce32b83268c88c1ce0b204b3efc12"),
    ),
    "tree --class goedel:inconsistent --depth 3": (
        (0, "5ef00e34356d703d1c595b6a3fbfb35ce5ce03769bcc19e81d452c41b475f65f"),
        (0, "f54a4622bb5367cf5a4186f5e5b91a87085081367626cccc9d7a4b5d1a68bd4d"),
        (0, "e4ed8403ee7d7a30ce9ae434fd63b77113a914c09aa2290b73bc2693f46d2517"),
    ),
    "tree --class halting:{M}/halt3.tm --depth 4": (
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ),
    # game: every adversary, every learner.
    "game --class halting:{M}/halt3.tm --learner soa --adversary tree": (
        (0, "9d81c2ee03fb2fa1ddc7c1f568c5d5dcc5da1a728cc0cd457d339d0517103687"),
        (0, "f28c793f6adc9b93436ae5e1d157fdb6eb67ed6104dfdf198b648cbab04aaf6e"),
        (0, "497d9367ebcd20246a6ee71f1bc322e8f1fa176b2ede368a05708efb9d00ab28"),
    ),
    "game --class halting:{M}/halt3.tm --learner soa --adversary random --seed 5": (
        (0, "595546bbb5cda9249e21902d705ff03ae0cde43a9934e2e80fefac4d76923d0e"),
        (0, "a7ddf539956645414852e54f464a6769f57f1b6775dbb871c4a34deb50aba32b"),
        (0, "0cfde56082d855a070d14755c4483c385f10683e3be2cf630ab97106769ec1ae"),
    ),
    "game --class halting:{M}/halt3.tm --learner soa --adversary flip": (
        (0, "916b3ceb18eaf951088d6c37a461e2fac360ed2bae9779d25cfd5ce32db75ab2"),
        (0, "2a36a4c252f9538ee134c64a8df6acbbdeadfeafcd21fa37eb157d74d081a167"),
        (0, "e8aec9cc6887c2684920e41e490e12a0bf7e7549ef0016bb820d72a1fde167ca"),
    ),
    "game --class halting:{M}/halt3.tm --learner const0 --adversary tree": (
        (0, "fd0d0728538da0fdf4914b16f87f63fdb3ef0b6638c7f44ebc99e5b8b067c4d1"),
        (0, "a6e7fb092611f8e8cdff484097e9a540ae4c43a1f9292553494f9ec0fb007aa1"),
        (0, "2ec5f5555fd93e2a7f8f35f50958a1e053ab2ca1f4d1b988aefd37e6d3b8885c"),
    ),
    "game --class halting:{M}/halt3.tm --learner const1 --adversary flip": (
        (0, "202e772fb93d14516f530fff2a21b0b7a3e2d3e341fc90e90f36544bd8bb2862"),
        (0, "a2b9f3185ca3c9910e11bc801bee9fbfa0be877224c2a139696d48cee44ce94a"),
        (0, "eb42b3026d1cd345af8cd6c39f6a6494b4e2c70bcc21c797afb24a53f4ed7d53"),
    ),
    "game --class halting:{M}/halt3.tm --learner random --adversary random --seed 2": (
        (0, "9d81c2ee03fb2fa1ddc7c1f568c5d5dcc5da1a728cc0cd457d339d0517103687"),
        (0, "a57985d99ec65833f7202a03287d105c07ce316a2d59c185fa3e69a6e9199874"),
        (0, "27de40be0e9279614c73b5d1088ec4d0cc25c6dfd32faeda259273d4f684e89f"),
    ),
    "game --class step --window 6 8 --learner soa --adversary tree": (
        (0, "9d81c2ee03fb2fa1ddc7c1f568c5d5dcc5da1a728cc0cd457d339d0517103687"),
        (0, "97151b1492b877694876c03882d06c76b74dd971b0755aee2e8d213ed0cb3e11"),
        (0, "a95212aa57aeae6e24ca44193abc00456d3c5319a2fae3718f8983b8fdea96fe"),
    ),
    "game --class step --window 4 --learner const0 --adversary random --max-rounds 40": (
        (0, "23f8506b0c278c680f850a1f70a7fb7a551feba41bd486f1b428f7f65e80db59"),
        (0, "d90a4d4d701d27a645e7adfbdfe753ac23d939e89ddef46ca65f4abb8f473493"),
        (0, "22802fc33aec6d619f6257139c3902de25062ba3747a85503696db8787eb81bb"),
    ),
    # pac, reduce, suite.
    "pac --class halting:{M}/halt3.tm --trials 40 --sizes 5 20 --seed 1": (
        (0, "49d789c4d44dfa0f1d62fa7f9683092c171d22c39cd856c583acc3224876bffd"),
        (0, "be58490e33e3477c0187f43a34ad34b548a3b109be4c0b5ff803af48922936b5"),
        (0, "785018f4bbaedae3a9bfcfff4f34e6d544569a1e62534aafb3290b178ae3eb94"),
    ),
    "pac --class step --window 3 --trials 10 --target-index 2 --seed 3": (
        (0, "972e2244dd2e28f2a7bb85624d0de56cc3801062dcedf1076e7565ee50b0ec65"),
        (0, "add871950ffb9a551e3e0806b62463d92da4dbcc71d935ccfcc7ee93c961cc3a"),
        (0, "00720d0a0cdb2c0581646ecf0121a24dda205f8f41dd07a51ff9cdb057fe9ab6"),
    ),
    # Nearly every draw at m=3000 falls after the version space is pinned.
    "pac --class step --window 7 --trials 100 --sizes 2 8 3000 --target-index 4 --seed 5": (
        (0, "6ac3ece4f4d9c1af70045b6638f47b6f71cb088c3c7071b35bda11990c9104c6"),
        (0, "ba8372b347546cfd77fad9f543c62d968f2c44f70b41733ce1fa4feeff807b58"),
        (0, "f32ccee6fef800baf37f73c992d8c8547558fa242492731946cdb376b9d7355a"),
    ),
    "reduce {M}/halt3.tm --budget 10": (
        (0, "2428ce789dd3d0e5f663f2ee184e75db0fa5ebb397304ff0be46341d9b40d884"),
        (0, "026fd94ec18b73797dc81dfda0ed5599a584845dfb2acba4c3626b83c2d430bb"),
        (0, "d375e01ed52de67fff0812ac80bf5d577aa18e7ca8e475fed5107c739130a876"),
    ),
    "reduce {M}/loop.tm --budget 100": (
        (2, "c0ff296cd98bd7bca9a93edb5570b158044708ab74f916b79a9090ee8c624e4d"),
        (2, "78354452fd17e067f9c29ff54770511dfe062a7e1be02f46d5a322c32d74ffd2"),
        (2, "4d0c9f0fa7cc5cd6fa21aac1acc11ac3c3573cb7769c562a30998b6eb0c464ff"),
    ),
    "suite {M}/halt1.tm {M}/halt3.tm {M}/beaver2.tm {M}/loop.tm --budget 100": (
        (0, "b13b04e270449e1d0955e00db0705f76ccc1862677be6f1c052d6cc4544628d1"),
        (0, "25620dedc1e397cca086042b7bf4226afda1b828b0b11650ff601e3d46c12736"),
        (0, "9f8f2de58295952ac40a93afc5d0dabeea17e36784df0e3955c5d7890e1065f1"),
    ),
}

FORMATS = ("text", "json", "csv")


def run_case(case: str, fmt: str, tmp_path, monkeypatch, capsys) -> tuple[int, str]:
    tokens = case.split()
    while "=" in tokens[0]:
        name, _, value = tokens.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    argv = [t.replace("{M}", str(MACHINES_DIR)).replace("{T}", str(tmp_path)) for t in tokens]
    code = main(argv + ["--format", fmt])
    out = capsys.readouterr().out.replace(str(tmp_path), "{T}")
    digest = hashlib.sha256(out.encode())
    for token in argv:
        if token.startswith(str(tmp_path)):
            digest.update(b"\0" + token[len(str(tmp_path)):].encode() + b"\n")
            digest.update(Path(token).read_bytes())
    return code, digest.hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", GOLDEN)
def test_golden_output(case, fmt, tmp_path, monkeypatch, capsys):
    assert run_case(case, fmt, tmp_path, monkeypatch, capsys) == GOLDEN[case][FORMATS.index(fmt)]
