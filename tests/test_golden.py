"""Golden output bytes: the 7 experiments at the default config, plus
pattern-learn with the midpoint init, write the 26 files listed here.

A change that alters any output byte updates its hash here and says why;
a refactor alters none.
"""
import hashlib

from memsnn.harness import EXPERIMENTS, main

GOLDEN = {
    "hysteresis/hysteresis_hard.csv":
        "45d45acea736940fdf72e18b57cec72e0718c62c8d851f306208bad1d4ff1ef3",
    "hysteresis/hysteresis_pinched.csv":
        "880db52c2e98111bce46ec111ea4270f192bf408d5d5ede1c8ef39fe69117d2c",
    "hysteresis/manifest":
        "bf597d0aec5a193bfdd8236f165a5813532f8fe3f50312e0a0a7055f24161885",
    "pattern-learn/final_weights.csv":
        "f7c0f96ece468f119cf42ad063b624aed3b887893ef92f1c4164af3f957775b3",
    "pattern-learn/manifest":
        "b3d88c9d35583c0b33629c3cf374790b17ee5a2ae73b3ba157ba88a1c2ed699d",
    "pattern-learn/post_events.csv":
        "b16a95491990c6f75dfe9d281bddc95078cc5dd2b914e06248374ca73827620f",
    "pattern-learn/post_log.csv":
        "15b8b9e521886a7efd86436abe843586fa57b09ddf385ff34577e1ffc3eb2c37",
    "pattern-learn/weights.csv":
        "7ce6b63602c2c3d456126f1c67e25c3e5f19cbe9be1bd2f4921d5c2238fb38e3",
    "pattern-learn-midpoint/final_weights.csv":
        "5aedea01970b1694c5c7cdfe54cf74b69a5f129cd25043eb92a20198978a5448",
    "pattern-learn-midpoint/manifest":
        "d82716b051a2ff0cde98f77e42b9e96e0f19bec878fd3755583c691251b06192",
    "pattern-learn-midpoint/post_events.csv":
        "65f05e20725f44667b620a2a122d213d910a0fe2adb3e5f969634c7c20bebca2",
    "pattern-learn-midpoint/post_log.csv":
        "f1895c7be2d433619a022e6cc98a987a56ae7f314b8cdc23e294759f618a1b47",
    "pattern-learn-midpoint/weights.csv":
        "a6e1408c3a34d1f23cd03356ca838a1bd824f574f783d03de4ec587e1f1acaee",
    "stdp-window/manifest":
        "e2ba7f62a671d55ee58db60e527b4f0ca81d5d6e52cae00ecc89bb83c008ed6b",
    "stdp-window/stdp_window_excitatory.csv":
        "1d3e6ed973b203702509a0ceea5c4356c153cee6ddc15bf3a5c42d32786cfa8e",
    "stdp-window/stdp_window_inhibitory.csv":
        "b5c4197162afb3fcad166e3b67ad555bc16b26dd4d514719eae2a5239bfaf206",
    "stdp-window-vteam/manifest":
        "69ce5a931163cb22cb535f8a52383db92c15feb55ca5844de3dda06a0990bea7",
    "stdp-window-vteam/stdp_window_excitatory_vteam.csv":
        "0bf376602abf07e3e6b6a49e36e1f798000b24fa55ee4db4a4095ef9f4cb1c3f",
    "stdp-window-vteam/stdp_window_inhibitory_vteam.csv":
        "1e565d1a0b27a54fd86941fdab474fbdd969a281f9c266cc3f3753c44ea18abe",
    "switch-rate/manifest":
        "120010afe3ad2869e967eb8b120f28543f2d37916f8cdb329b049427566cdf81",
    "switch-rate/switch_rate.csv":
        "bf531c35273be08af01715117e82f68321bc7172708e6d902b328d88ee1f8674",
    "switch-rate/switch_rate_surface.csv":
        "a0416ad0b10178fc8f429c9447ca4fa7f4926987719c40c1714c99e862834ab2",
    "synapse-pd/manifest":
        "755a70e590ddedea6f9c4b89c5da0dc28d3c04d8cedd7193851a1155a258b152",
    "synapse-pd/synapse_pd.csv":
        "ed602565b872cc70ae417c7e0496d4d2313117790560c5a108686abbca8cf401",
    "weak-strong-calibration/calibration.csv":
        "2406d0d6d89203e3f214309ef0e7a866a76da6589c51eb23bb54a6034c8a4a72",
    "weak-strong-calibration/manifest":
        "8ba42e626b983a2a56e6d63de16aaebb56fe1584baf641497e6abaea1f920391",
}


def test_default_outputs_match_golden_hashes(tmp_path, capsys):
    runs = [(name, name, []) for name in EXPERIMENTS]
    runs.append(("pattern-learn-midpoint", "pattern-learn", ["--init", "midpoint"]))
    for sub, name, extra in runs:
        assert main([name, "--out", str(tmp_path / sub), *extra]) == 0, capsys.readouterr().err
    got = {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
           for f in tmp_path.rglob("*") if f.is_file()}
    assert got == GOLDEN
