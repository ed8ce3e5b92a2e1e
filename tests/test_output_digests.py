"""Byte pins on the files the CLI and the experiment scripts write.

Every digest below is the sha256 of one output file produced at desk
scale (and, for codebook and channel dumps and for one `run` cell of
every training variant, at paper scale too) with small seed counts, or
of what `risbeam validate` prints at either scale.  The two sweep pins,
`power_sweep` and `ris_position_sweep`, are `scripts/variant_sweep.py`
on `configs/desk_power_sweep.cfg` and `configs/desk_ris_height.cfg`.
A refactor that claims identical behavior must leave all of them
unchanged; a deliberate output change updates the digest in the same
commit and says why.  The digests were recorded with numpy 2.4 on x86-64
(OpenBLAS); another BLAS may round the last printed digit differently.
"""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from risbeam import cli, harness

ROOT = Path(__file__).resolve().parent.parent

RUN_CONFIGS = ("desk_nn", "desk_power_sweep", "desk_ris_height")

# output name -> (script, arguments); every script also gets --out
SCRIPTS = {
    "convergence_curves": ("convergence_curves", ["--seeds", "1"]),
    "overhead_vs_step": ("overhead_vs_step", []),
    "power_sweep": ("variant_sweep", [
        str(ROOT / "configs" / "desk_power_sweep.cfg"), "--seeds", "1"]),
    "ris_position_sweep": ("variant_sweep", [
        str(ROOT / "configs" / "desk_ris_height.cfg"), "--seeds", "1"]),
    "rate_vs_layers": ("rate_vs_layers",
                       ["--seeds", "1", "--max-layers", "2"]),
}

DIGESTS = {
    "run/desk_nn.csv":
        "05d3b812d4a71756453487579a6ddf1a85717a334219d23760c8b4e446bf332a",
    "run/desk_nn.summary.csv":
        "0d971f6f0680f7ebbd7736f0fe742749588dc57d2ce4caa88b143ee3c1989340",
    "run/desk_power_sweep.csv":
        "3417f34d7296bce3f280d74dd6be626a5a26759121b3277013dcc28fcc3dbd6d",
    "run/desk_power_sweep.summary.csv":
        "ef416d74e45f5b6574d4d87e6c2d34348ba5ecc30744c7fbaf6af8bc81ff9e4d",
    "run/desk_ris_height.csv":
        "5ae4bb1bc7ab717d28c7123b54f75f9afda8c9ee2d8dc58ee0c65c2977cfe0b3",
    "run/desk_ris_height.summary.csv":
        "6a681d1d98e75c0c727fffd44b7a0dec46ebde0e3312539084f68c2e7136b76c",
    "run/paper-NN-hierarchical.csv":
        "198d3e7716f1b9bd4a8299e48a9fd932112c167e1c6cb0ce6967234f8284320a",
    "run/paper-NN-hierarchical.summary.csv":
        "005046a172192bfa239cc878a6d676ebb67b2ac5f557d44d74ba737035a8d1ef",
    "run/paper-NF-two-stage.csv":
        "3024dd4001bed2156677a7b237d2a1ec7c9bda6755e7da23365843e3977473d6",
    "run/paper-NF-two-stage.summary.csv":
        "a52d53cf6bcfbc5d012fc725a990a1e657f44ed704e4d2d47bb22c40428984f1",
    "run/paper-FN-two-stage.csv":
        "69d14a3972cc18957ed7050c9bb6633f72f2ba32f454c416531592e2b777a28a",
    "run/paper-FN-two-stage.summary.csv":
        "a8f989a938c2f8d15e81c6cb6fa340bacdde72e43181dedd7e323476e8db1e0f",
    "run/paper-NN-angular.csv":
        "58591148834c74a56e7d30eefe7528c4b2b4b95297c023bebcd39d1e2d4e885a",
    "run/paper-NN-angular.summary.csv":
        "0dac08b6df723764f4049fd04a705955f926647458b81d9a4b68a335414fecd6",
    "run/paper-FF-angular.csv":
        "506e32ab2520b721b11bb4ec1a515b235afddd28ab736e88fbfad2430e82e6e0",
    "run/paper-FF-angular.summary.csv":
        "c8408f56725738af29611257ee440f7e215f3291c5955badb5785cd059072d5c",
    "codebook/ff-desk.csv":
        "1fde08680b4094ee70c0272d8b0fc2a27c095951fdbc982c8577badf4df0a465",
    "codebook/nn-desk.csv":
        "1956805f996dc0a8e1bd9cc030b51902da146c631baaeef03c0cba14a4dc7ed7",
    "codebook/nf-desk.csv":
        "572309e551229a4cf1a4c6afb72a72ad32f67cae2593066b8921a3d09360df9e",
    "codebook/fn-desk.csv":
        "a43f26bc3c583ce382345811218fb2dda78a9c1b2c20ff9e51bc083625387a0a",
    "codebook/ff-paper.csv":
        "e77a42a8df687301b2b01ef617f5776a173a48fd6c4ea661c9b7786f1c986737",
    "codebook/nn-paper.csv":
        "e54fa66c42a463612baf1bd523fc5c23f09f74e8ff7401ea25b64f32c708065e",
    "codebook/nf-paper.csv":
        "fe11685a1767a6cdd31160686650df6836824952f3f34c96e6bef0a50fe2fc59",
    "codebook/fn-paper.csv":
        "ed22c8df0f34417015a4df661ff82dc39f38032fcbac3a0226f0b95b0ea87794",
    "channel/ff-desk.json":
        "9e3b5d018204f4f9b42518bf575ee8cffabdc10bf54008c1f3d901b849a5eba4",
    "channel/nf-desk.json":
        "82563e57875a00c4982efa190207f943efc416aa571cc4a125df6c5dfb34bed0",
    "channel/fn-desk.json":
        "04fc7b20bb1abae3cb55858f834ad2be720a71d0f41e2861a9807f2ad0bf54fd",
    "channel/nn-desk.json":
        "3e2e346c3e55bb2519efd5816cc61f43ed6f6e6272770ca470cbc136950736e1",
    "channel/ff-paper.json":
        "b22739114cbbd026261acf20bcebb036dd3b8e59f7d85dda9fae3d0e09fc9816",
    "channel/nf-paper.json":
        "f8ced29a48e9e3f4fbee2ed8eb4a0f5c5839ad08dd402f5c90989945996ff22f",
    "channel/fn-paper.json":
        "175cff51b4359856a328db50a2fd2a131e79597297235f46d2b6b28ad51dc861",
    "channel/nn-paper.json":
        "cae95341ab5b30343b44762426d75f6b42bb4335baca4b0173cf20e241c5a2de",
    "channel/ff-desk-matched.json":
        "1470402de9c65276d7011303e1b6c8b52d4e1de4ee538d2b64a5c9cb728ce6bb",
    "channel/ff-desk-unit.json":
        "dce855e60e4a19d36d6a6c3193365c75864e265e2af9997ad2148cb773da600b",
    "scripts/convergence_curves.csv":
        "fbfb42bb09b420f703d4ee3cbcc55c3d001b91dd8eb04508059b38d3a97b8f37",
    "scripts/overhead_vs_step.csv":
        "466f2e805837a1c1236a130c64b4f84b3fd130b8cdd0d647deda0bb3b5c7fc87",
    "scripts/power_sweep.csv":
        "999c5b48e8c9c57f801dda69b7fe8cc638842022db69e27c91de2787136340dd",
    "scripts/rate_vs_layers.csv":
        "de0e16ee939496595ef943872f8ee196a825144047c89d0a278b352ba080d084",
    "scripts/ris_position_sweep.csv":
        "7c2cf4bd4a3489301ce3c6ac4e95e2833ed0ec14f6af1f11fe06889cffedabfc",
    "validate/desk.txt":
        "a48cd4d1eb13120f68409430a4d911c0e037f0193e209328b5025bbd0bdb3537",
    "validate/paper.txt":
        "a48cd4d1eb13120f68409430a4d911c0e037f0193e209328b5025bbd0bdb3537",
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("scale", ("desk", "paper"))
def test_validate_output(scale, capsys):
    assert cli.main(["validate", "--scale", scale]) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == \
        DIGESTS[f"validate/{scale}.txt"]


@pytest.mark.parametrize("name", RUN_CONFIGS)
def test_run_outputs(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli.main(["run", str(ROOT / "configs" / f"{name}.cfg"),
                     "--seed", "0", "--out", str(out)]) == 0
    assert sha256(out) == DIGESTS[f"run/{name}.csv"]
    assert sha256(out.with_suffix(".summary.csv")) == \
        DIGESTS[f"run/{name}.summary.csv"]


@pytest.mark.parametrize("name,model,scheme", harness.VARIANTS)
def test_paper_run_outputs(name, model, scheme, tmp_path):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text(f"model: {model}\ntraining: {scheme}\n")
    out = tmp_path / f"{name}.csv"
    assert cli.main(["run", str(cfg), "--scale", "paper", "--seed", "0",
                     "--out", str(out)]) == 0
    assert sha256(out) == DIGESTS[f"run/paper-{name}.csv"]
    assert sha256(out.with_suffix(".summary.csv")) == \
        DIGESTS[f"run/paper-{name}.summary.csv"]


@pytest.mark.parametrize("scale", ("desk", "paper"))
@pytest.mark.parametrize("kind", ("ff", "nn", "nf", "fn"))
def test_codebook_dumps(kind, scale, tmp_path):
    out = tmp_path / "book.csv"
    assert cli.main(["codebook", "dump", "--kind", kind, "--scale", scale,
                     "--out", str(out)]) == 0
    assert sha256(out) == DIGESTS[f"codebook/{kind}-{scale}.csv"]


@pytest.mark.parametrize("scale", ("desk", "paper"))
@pytest.mark.parametrize("model", ("FF", "NF", "FN", "NN"))
def test_channel_dumps(model, scale, tmp_path):
    out = tmp_path / "channel.json"
    assert cli.main(["channel", "dump", "--model", model, "--seed", "0",
                     "--scale", scale, "--out", str(out)]) == 0
    assert sha256(out) == DIGESTS[f"channel/{model.lower()}-{scale}.json"]


@pytest.mark.parametrize("gain_mode", ("matched", "unit"))
def test_channel_dump_gain_modes(gain_mode, tmp_path):
    cfg = tmp_path / "gain.cfg"
    cfg.write_text(f"gain_mode: {gain_mode}\n")
    out = tmp_path / "channel.json"
    assert cli.main(["channel", "dump", "--model", "FF", "--seed", "0",
                     "--config", str(cfg), "--out", str(out)]) == 0
    assert sha256(out) == DIGESTS[f"channel/ff-desk-{gain_mode}.json"]


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_outputs(name, tmp_path, monkeypatch):
    script, args = SCRIPTS[name]
    out = tmp_path / f"{name}.csv"
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(out)])
    runpy.run_path(str(ROOT / "scripts" / f"{script}.py"),
                   run_name="__main__")
    assert sha256(out) == DIGESTS[f"scripts/{name}.csv"]
