"""Hand-written references for the benchmark workloads.

The hit sets and morphism weights are written out from the classification
results of the paper (degree-2 families BA, CB, CA; the two degree-4 hits of
the box-1 sweep; the source and target weights of each catalogued chain), not
computed by the program.  The SHA-256 digests pin the canonical form
(`verma_element_to_obj`) of every result vector byte for byte; regenerate them
with `python3 perfbench/reference.py` only when a change is meant to alter
results.
"""

from __future__ import annotations

import hashlib
import json

# (mu, d) -> {(lam, family)}: every singular-vector hit, each of dimension 1.
SWEEP_HITS = {
    **{((n, 0, 0, 1), 2): {((n + 1, 1, 0, 0), "nabla_BA")} for n in range(3)},
    **{((0, 0, 1, n + 1), 2): {((1, 0, 0, n), "nabla_CB")} for n in range(2)},
    ((0, 0, 1, 0), 2): {((0, 1, 0, 0), "nabla_CA")},
    ((0, 0, 0, 0), 4): {((3, 0, 0, 0), "exploratory")},
    ((1, 0, 0, 0), 4): {((4, 0, 0, 0), "exploratory")},
}


def chain_weights(chain: str, m: int, n: int):
    """(degree, lam, mu) of the catalogued morphism M(lam) -> M(mu)."""
    return {
        "A": (1, (m, n + 1, 0, 0), (m, n, 0, 0)),
        "B": (1, (m + 1, 0, 0, n), (m, 0, 0, n + 1)),
        "C": (1, (0, 0, m, n), (0, 0, m + 1, n)),
        "BA": (2, (m, 1, 0, 0), (m - 1, 0, 0, 1)),
        "CB": (2, (1, 0, 0, n), (0, 0, 1, n + 1)),
        "CA": (2, (0, 1, 0, 0), (0, 0, 1, 0)),
        "CBA": (3, (1, 1, 0, 0), (0, 0, 1, 1)),
    }[chain]


def digest(verma, w) -> str:
    """SHA-256 of the canonical JSON form of a Verma element."""
    text = json.dumps(verma.verma_element_to_obj(w), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# "mu|lam|d" -> digest of the normalized singular vector found by
# singular_vectors(mu, d) on a fresh module.
SWEEP_DIGESTS = {
    "0,0,0,0|3,0,0,0|4": "1ab86f0b999189c6ff48656ad64b5acdd9fb5dd98bd409f2b16ec69ca73069df",
    "0,0,0,1|1,1,0,0|2": "c4f343e3c0b8f51ac8b6ab6ad58bf43666a7e67a0100039198d659883e92a9e7",
    "0,0,1,0|0,1,0,0|2": "0620f4284c7df9beaf6d5adf278d0848d27b310dbd7d67174584e9ee740f2157",
    "0,0,1,1|1,0,0,0|2": "23948dcd8061c7893dd9a6a87810f1757e88f7a2cb3a756cb942d35395171b4b",
    "0,0,1,2|1,0,0,1|2": "5188a93269c141c894a638eaa7d8f7d76fade222f266f833d070daed465ff7ad",
    "1,0,0,0|4,0,0,0|4": "1ab86f0b999189c6ff48656ad64b5acdd9fb5dd98bd409f2b16ec69ca73069df",
    "1,0,0,1|2,1,0,0|2": "6441164ab539aebc5e798697a62677a2fa162fc57b6e024e1783e492ebc96213",
    "2,0,0,1|3,1,0,0|2": "b7640acf66996c4c8b44ac296e7d9bde885303912ea0d9a55e7a745a72039b22",
}

# "chain|m|n" -> digest of the highest weight image of family_instance(chain, m, n).
CHAIN_DIGESTS = {
    "A|0|0": "492da74e5f375d7ae55adc613c54325ecf374d9dbc8da2555e1021498bb1b3c5",
    "A|1|0": "492da74e5f375d7ae55adc613c54325ecf374d9dbc8da2555e1021498bb1b3c5",
    "A|0|1": "e33c51036ccfc368cb8952ed6a8c568b16d06cba1904a9c2ceaee229dc6c5c75",
    "B|0|0": "8751e24d3c610d7088188e5c6b794eae916bc050192d8402dbc46eb54bb26252",
    "B|1|0": "d9070faba2ad61c950c5397fa6432849b197344b8212b11ed02febba5d629984",
    "B|0|1": "39beb8704510ff1644919e18158a70c025c157da1fa736dcf288b0e6dad0167b",
    "C|0|0": "2571eb20ff2c9a0b7608f012d2b8a345d2ba5c05ffa9e89e2ed09d6f58269556",
    "C|1|0": "35185cb9c49143a2ba7ae6fa95d1c422ab7ee8b57dc4e817053d5c3192e51379",
    "C|0|1": "5f6951d071c4ba7018db551e63739b331a5b68ea80544e7b29d0e0afd61876eb",
    "BA|1|0": "4da19143f92ac89b4ede1344cbe5f13454fd4e8f2e28c21cec9137fbd14b1eb1",
    "CB|0|0": "1cea982c12a559beb0b6331d0f6289738110b6a46309b02908af64810dae809d",
    "CA|0|0": "0620f4284c7df9beaf6d5adf278d0848d27b310dbd7d67174584e9ee740f2157",
    "CBA|0|0": "7e7dadcf6bf48cfa157d9c5aef2a86b45b4ad53594fd9f9b6e2cf7d150436a49",
}


def sweep_key(mu, lam, d) -> str:
    return f"{','.join(map(str, mu))}|{','.join(map(str, lam))}|{d}"


def chain_key(chain, m, n) -> str:
    return f"{chain}|{m}|{n}"


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from e510 import verma

    from workloads import CHAINS

    for (mu, d), hits in sorted(SWEEP_HITS.items()):
        for lam, vecs in verma.singular_vectors(mu, d):
            for w in vecs:
                print(f'    "{sweep_key(mu, lam, d)}": "{digest(verma, w)}",')
    for chain, m, n in CHAINS:
        phi = verma.family_instance(chain, m, n)
        print(f'    "{chain_key(chain, m, n)}": "{digest(verma, phi.hw_image())}",')
