"""Golden output bytes: the 7 experiments at the default config, plus
pattern-learn with the midpoint init, write the 26 files listed here.

A change that alters any output byte updates its hash here and says why;
a refactor alters none.
"""
import hashlib

from memsnn.harness import EXPERIMENTS, main

GOLDEN = {
    "hysteresis/hysteresis_hard.csv":
        "ae1c19070027dde3b764ef9bc7eed7372fa46a29dc03e3f0c696cf10260c0dc4",
    "hysteresis/hysteresis_pinched.csv":
        "79903be81ba3bfecff6414fb2d904264c602f1d5e3b45f37ba944092358ebd3a",
    "hysteresis/manifest":
        "d36532c00d4d4209b934c2c901af1df788d925b525978926162921b194082299",
    "pattern-learn/final_weights.csv":
        "f7c0f96ece468f119cf42ad063b624aed3b887893ef92f1c4164af3f957775b3",
    "pattern-learn/manifest":
        "44f3bb0013d0ef100d6ed61d1e211fc7a4174f426694f7ddcb37041613d5ab88",
    "pattern-learn/post_events.csv":
        "ccd9241111849f25e6802837bd801268b78ebb5fd3ac67a773e31ac755af6083",
    "pattern-learn/post_log.csv":
        "15b8b9e521886a7efd86436abe843586fa57b09ddf385ff34577e1ffc3eb2c37",
    "pattern-learn/weights.csv":
        "d89a4abdedd4ccfede17e23b00fce703e8d5ab76c9f30330da19bf5e944ab941",
    "pattern-learn-midpoint/final_weights.csv":
        "5aedea01970b1694c5c7cdfe54cf74b69a5f129cd25043eb92a20198978a5448",
    "pattern-learn-midpoint/manifest":
        "9409617d7fadfc5c7af83981dc1e1d6880aac2b5f67060a2376531c15371d55f",
    "pattern-learn-midpoint/post_events.csv":
        "bbdc101143bea3c8b0aef7efe1e2c0b5eedac1db24c0a485bcd5263e23093f9b",
    "pattern-learn-midpoint/post_log.csv":
        "f1895c7be2d433619a022e6cc98a987a56ae7f314b8cdc23e294759f618a1b47",
    "pattern-learn-midpoint/weights.csv":
        "30b4f1fd9e531d2fd8ee83ab40cc596938c0efbece11c8aea2e6891052fe33a8",
    "stdp-window/manifest":
        "dad409ab1737d4994df1c78ccf807438fad3bafcd68aef95622c3d86262735dd",
    "stdp-window/stdp_window_excitatory.csv":
        "e6973278362aefcc3e99e052a9125b765390f7ed3257b7d997b670a428035750",
    "stdp-window/stdp_window_inhibitory.csv":
        "726791d54780aba25211e4d4c65de759a7cd47d8203f6a8c393dd4b54de315b2",
    "stdp-window-vteam/manifest":
        "92c4ad686358ee09f9a4984f6d00598a54f650bc9595078a49a62246a387de7a",
    "stdp-window-vteam/stdp_window_excitatory_vteam.csv":
        "eb9b16da1cb9e2076cf6d5d028b26a9a3c6583bfebee117aa46597e7262f3a51",
    "stdp-window-vteam/stdp_window_inhibitory_vteam.csv":
        "11e06ca490b827e16ee3a7e86df06bf36dfeb502dec4c44840e26d2fdb88f65a",
    "switch-rate/manifest":
        "120010afe3ad2869e967eb8b120f28543f2d37916f8cdb329b049427566cdf81",
    "switch-rate/switch_rate.csv":
        "bf531c35273be08af01715117e82f68321bc7172708e6d902b328d88ee1f8674",
    "switch-rate/switch_rate_surface.csv":
        "a0416ad0b10178fc8f429c9447ca4fa7f4926987719c40c1714c99e862834ab2",
    "synapse-pd/manifest":
        "532073e09385c172fd137459ed98440fbac4ded0bbc16d9162aa39b3456c37a0",
    "synapse-pd/synapse_pd.csv":
        "5eb9d4cb2b10bd1f715a226101d53cf28c8e1fc484f8dd87a1a69dbf8dd706c8",
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
