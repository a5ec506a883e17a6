"""Frozen reference data and a sum builder shared between the test modules."""
import numpy as np

from qboson import PauliSum

# Pauli-string counts of the Fock-basis coordinate/momentum operators for
# Q = 1..14; equals Q * 2**(Q-1) throughout the tested range.
FOCK_XP_COUNTS = (1, 4, 12, 32, 80, 192, 448, 1024, 2304, 5120,
                  11264, 24576, 53248, 114688)

# Corner-sector sign patterns of the open-boundary shift decomposition,
# frozen after independent verification by exact matrix reconstruction.
# The boolean gives the bit-order reading (msb_first) that renders each
# pattern exact; the quoted expansions mix tensor-order conventions.
SHIFT_SECTORS = {
    1: (False, {"X": 1}),
    2: (False, {"XX": 1, "YY": 1}),
    3: (True, {"XXX": 1, "XYY": -1, "YXY": 1, "YYX": 1}),
    4: (False, {"XXXX": 1, "XXYY": 1, "XYXY": 1, "XYYX": -1,
                "YXXY": 1, "YXYX": -1, "YYXX": -1, "YYYY": -1}),
    5: (False, {"XXXXX": 1,
                "YYXXX": -1, "YXYXX": -1, "YXXYX": -1, "YXXXY": 1,
                "XYYXX": -1, "XYXYX": -1, "XYXXY": 1, "XXYYX": -1,
                "XXYXY": 1, "XXXYY": 1,
                "XYYYY": -1, "YXYYY": -1, "YYXYY": -1, "YYYXY": -1,
                "YYYYX": 1}),
}


def sum_from_masks(n, entries):
    """``PauliSum.from_arrays`` of ``((x_mask, z_mask), coefficient)`` pairs whose
    masks are Python ints, split into 64-bit words, low word first."""
    def words(masks):
        return np.array([[(m >> s) & (2**64 - 1) for s in range(0, n, 64)] for m in masks],
                        dtype=np.uint64).reshape(-1, (n + 63) // 64)
    keys = [key for key, _ in entries]
    return PauliSum.from_arrays(n, words(x for x, _ in keys), words(z for _, z in keys),
                                [c for _, c in entries])
