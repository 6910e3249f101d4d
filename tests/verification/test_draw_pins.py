"""The one-exchange draws are pinned: merging the federation generator
into :func:`~repro.verification.scenario.generate_scenario` must not
shift a single draw.

Each constant is the leading 16 hex digits of the sha256 of
``generate_scenario(seed, **shape).to_json()`` for seeds 0-49, taken
before the merge at the default shape and at the fuzz and chaos session
shapes. Every golden artifact, pinned session count and replayed seed of
the single-exchange harnesses rests on these draws.
"""

import hashlib

import pytest

from repro.chaos import ChaosSoakConfig
from repro.verification.fuzz import FuzzConfig
from repro.verification.scenario import generate_scenario


def session_shape(config):
    return dict(participants=config.participants, prefixes=config.prefixes,
                policies=config.policies, steps=config.steps)


SHAPES = {
    "default": {},
    "fuzz": session_shape(FuzzConfig()),
    "chaos": session_shape(ChaosSoakConfig()),
}

DIGESTS = {
    "default": (
        "807d4cfc142b4c44", "6e5ada24d8166e7e", "732b40d2eeed5b19",
        "4b89991f3e0924dd", "84ca9c3b853250b0", "bef5a8bac8c47b2c",
        "b686e2e6f7c01614", "dc3fb2aec551d6b2", "4921340c44668d85",
        "c84be8330bb99ead", "3b86833afb51f277", "1af061b4b81159f8",
        "8e4930020a063f10", "843a29fe4516d42f", "8e56221ffe81902e",
        "212332605096d852", "45ec642cc9b7f67e", "2cf481be8c37186f",
        "cdbc326e344abe38", "b7937b06f1dcd5fa", "c71c2e5910fe73ce",
        "6501b5ed9beadbae", "e7c1b5e1dd139a67", "a1611b69c8969383",
        "3352b8e02d990f64", "ba1b2a0af403f44b", "b5efa47fde6fb1bc",
        "8096671b65f93662", "59e6f13a392560fc", "360f12b2fd9468da",
        "7a70f732d5744a15", "a9723428424dfed2", "0ac78af07221c04b",
        "665d0f86ddf87c0e", "62e6b2f3037a6cbd", "4caf39d860534708",
        "d7a9b878b01d2dad", "f6ed1e51623c7d76", "6a2c484a9a049c30",
        "0e4683e7d8ea2ee4", "02563761966b8ced", "233f4265164b53ac",
        "67e008dbdeee6674", "082801364bec31db", "44540fea0db85213",
        "971a43c84dc1745e", "feed648424f787b9", "d9979ece8e15a19f",
        "a8ec1767a4aca545", "c8780b22f34bca95",
    ),
    "fuzz": (
        "8c540396dea84040", "bf5f1c6b6c66e7ec", "11cde6491580c431",
        "bbd3c6fe016e2ebd", "848d6f2cb86ba16f", "622907ae1f5c4e72",
        "1380aec484f22faf", "e3228a2ee3318b9c", "cb31935c1ac4e144",
        "69951f58662aacdc", "e7acd15396db623a", "216458e27f712584",
        "c195b7bba42b6cff", "330e67e876030d43", "6debc23952aca8d5",
        "1623cee3d0660d80", "fe6a747ff0596915", "1c4b606cbe8a2a10",
        "8f95da35cf6f87c5", "cdd21bb206d9ceec", "78469c37e4f2b368",
        "eb6f92393af5f212", "2e19bf06f47ef7ee", "1564a24a3a5f271d",
        "6245080bbaab5436", "5a04e9cb2f2afc51", "96b9bc49e4b3f37c",
        "004da6a99fc78853", "287bf1a1ff7ad809", "488b0325876b125e",
        "3391475c34ec9c74", "13bd9ea4191c0049", "d09721ac8cb4d98b",
        "13943dfa54371873", "de00241b0db7d3b8", "f3635fb8c22842a3",
        "ff717028f834257c", "199f0ca5d83bd0be", "73a3ddf3b640a348",
        "2599bfd937db9ad0", "b5d13650958ed500", "48cde1a5b33978da",
        "1662c2db1f91f179", "4da6ff888934d4da", "475b9aa0c199729d",
        "5b6a54feff21d057", "5e3214fad3d9b7a0", "2ad38f150b70ee26",
        "c12c07860dffa687", "806b991df297d07f",
    ),
    "chaos": (
        "997664202add769e", "58fd84965dba819d", "aae90f00d3b8b576",
        "b51cdb957eb4c42f", "b423d0c786d25d73", "47a2a25af2cb3bb5",
        "2d1722e17f235d37", "a87f935edb32d6c0", "6b155976258df750",
        "e81ca1e44e372d91", "eccdf116e7437ac0", "1d6733e97abacd10",
        "4e0c08b0730e9c9f", "d516bb4060ee5be7", "d1c1adb7e311ca0a",
        "d4942930693a8bcc", "1d2c06d548da47aa", "455f0ecb0101fdb3",
        "8ce538d7569d2c0a", "4d3bb840b1bd16d6", "dbc93a2bab8348ca",
        "ac10f0a8890eb2e8", "d3eae5fb5e51d0df", "d37a783c81033208",
        "81554eebfcd0ed58", "6621753254f4fb7b", "64abfd2cbaa7542c",
        "beba6ffeb043aa17", "c783f48300d3e56a", "bc5145a3cc26fbca",
        "3a3fcd6addfbf6d3", "7e7211f52301499c", "c7cc5fbbd94b6d26",
        "e691bd22a5fb322a", "d7b0900f0e7cdded", "6302d5f2dbf17f79",
        "e42d0f4acb405e58", "e7fa94c17c08facf", "69551776bd36b3b1",
        "367a2e398d70ddbe", "f0006ecaad22cd81", "c3a41f120b35ab5d",
        "15b8bd0cd6f95b16", "b72944e561413c19", "2069efb55917a1f8",
        "fe7abf4e3b04fb99", "209e44c74f73cd78", "6bf7b4c7cb45948c",
        "f560674cc7a9a98f", "463ade3e427fca00",
    ),
}


def digest(scenario):
    return hashlib.sha256(scenario.to_json().encode()).hexdigest()[:16]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_exchange_draws_are_unchanged(shape):
    drawn = tuple(digest(generate_scenario(seed, **SHAPES[shape]))
                  for seed in range(50))
    shifted = [seed for seed, (got, pinned)
               in enumerate(zip(drawn, DIGESTS[shape])) if got != pinned]
    assert shifted == [], f"{shape}: draws shifted for seeds {shifted}"
