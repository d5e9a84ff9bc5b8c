"""The best response's threshold form as it stood before the one-division form.

`decision_thresholds` here is verbatim the code that
`fairpost.core.decision_thresholds` replaced: it broadcasts b to the
shape of f and picks +-inf for b = 0 with nested np.where calls.  The
tests compare both outputs of the two bit for bit, signs included.
"""

import numpy as np

from fairpost.core import FairnessNotion, rate_terms


def decision_thresholds(f, notion: FairnessNotion):
    """Per-cell sign s and threshold d of the best response: decide 1 iff s*S <= d.

    A point's Lagrangian contribution at decision h is f + (1-2f)h + S(a + b*h),
    with (a, b) the notion's row of rate_terms and S = sum_g lambda_g (g - beta_g),
    so h = 1 is a minimizer exactly when b*S <= 2f - 1; exact ties go to 1.
    Dividing by |b| gives s = -1 where b < 0 (else 1) and d = (2f - 1)/|b|;
    a cell with b = 0 always decides 1 (d = +inf) when 2f - 1 >= 0, and never
    (d = -inf) otherwise.  Subnormal b may overflow d to +-inf, which is the
    correct decision for every finite S.
    """
    f = np.asarray(f, dtype=float)
    b = np.broadcast_to(rate_terms(notion, f)[1], f.shape)
    margin = 2.0 * f - 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = np.where(b == 0, np.where(margin >= 0, np.inf, -np.inf), margin / np.abs(b))
    return np.where(b < 0, -1.0, 1.0), d
