"""Correctness checks on risloc outputs against an independent model.

The model here is written from the signal model alone,

    h_l(p, v) = sum_m w_ml exp(-j k (||p + l T v - q_m|| - ||p||)),
    w_ml      = gamma_ml exp(-j k ||p_BS - q_m||),
    cost      = ||y||^2 - |h^H y|^2 / ||h||^2,

and shares no code with ``risloc.estimator``. Each check raises
``CheckError`` with the reason; ``selftest.py`` shows every one of them
rejecting a deliberately wrong input.
"""

import numpy as np

#: Relative agreement required between a cost the program recorded in
#: memory and the same cost recomputed here.
COST_RTOL = 1e-9

#: The same for ``risloc single``, whose snapshot, estimate and cost pass
#: through text files printed with 12 significant digits.
FILE_COST_RTOL = 1e-8


class CheckError(Exception):
    """A program output failed a correctness check."""


class Problem:
    """What the estimator was given for one trial, plus the truth."""

    def __init__(self, y, cell_centers, gamma, bs_position, wavelength,
                 sample_time, truth_p, truth_v):
        self.y = np.asarray(y, dtype=complex)
        self.q = np.asarray(cell_centers, dtype=float)
        self.k = 2.0 * np.pi / wavelength
        d_bs = np.sqrt(((np.asarray(bs_position, float)[None, :] - self.q)
                        ** 2).sum(axis=1))
        self.w = np.asarray(gamma) * np.exp(-1j * self.k * d_bs)[:, None]
        self.t = np.arange(self.w.shape[1]) * sample_time
        self.truth_p = np.asarray(truth_p, dtype=float)
        self.truth_v = np.asarray(truth_v, dtype=float)

    def cost(self, p, v):
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        pos = p[None, :] + self.t[:, None] * v[None, :]          # (L, 3)
        dist = np.sqrt(((pos[:, None, :] - self.q[None, :, :]) ** 2)
                       .sum(axis=2))                             # (L, M)
        a = np.exp(-1j * self.k * (dist - np.sqrt(p @ p)))
        h = (self.w.T * a).sum(axis=1)
        hy = np.vdot(h, self.y)
        return float(np.vdot(self.y, self.y).real
                     - abs(hy) ** 2 / np.vdot(h, h).real)

    def truth_cost(self):
        return self.cost(self.truth_p, self.truth_v)


def check_stages(problem, stages, ml_optimum, rtol=COST_RTOL):
    """Check one estimate trace; return final cost / cost at the truth.

    ``stages`` is a list of ``(stage, p, v, cost)`` rows as the program
    recorded them. Every recorded cost must match the independent model,
    costs must not rise from stage to stage, and, when ``ml_optimum`` is
    set, the final cost must not exceed the cost at the true (p, v): an
    estimator that reaches the ML optimum cannot do worse than the truth.
    """
    if not stages:
        raise CheckError("empty trace")
    for (s0, _, _, c0), (s1, _, _, c1) in zip(stages, stages[1:]):
        if not c1 <= c0:
            raise CheckError(f"cost rises from {s0} ({c0:.9g}) "
                             f"to {s1} ({c1:.9g})")
    for stage, p, v, cost in stages:
        ours = problem.cost(p, v)
        if not abs(ours - cost) <= rtol * abs(ours):
            raise CheckError(f"{stage} cost {cost:.12g} does not match the "
                             f"independent model ({ours:.12g})")
    final = stages[-1][3]
    truth = problem.truth_cost()
    if ml_optimum and not final <= truth * (1.0 + rtol):
        raise CheckError(f"final cost {final:.9g} above the cost at the "
                         f"truth {truth:.9g}")
    return final / truth


def check_printed_estimate(stdout, last_row):
    """``risloc single`` prints the last trace row, rounded to 6 digits."""
    fields = stdout.split()
    try:
        i, j = fields.index("p_hat"), fields.index("v_hat")
        printed = [float(x) for x in fields[i + 1:i + 4] + fields[j + 1:j + 4]]
    except (ValueError, IndexError):
        raise CheckError(f"no p_hat/v_hat in output {stdout!r}") from None
    # Six significant digits round by at most half a unit in the sixth.
    if len(printed) != len(last_row) or any(
            abs(a - b) > 5.000001e-6 * abs(b) for a, b in zip(printed,
                                                           last_row)):
        raise CheckError(f"printed estimate {printed} is not the last trace "
                         f"row {[float(x) for x in last_row]}")


def read_trace(path):
    """Rows ``(stage, p, v, cost)`` of a ``trace.txt`` written by the CLI."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            f = line.split()
            vals = [float(x) for x in f[1:8]]
            rows.append((f[0], np.array(vals[0:3]), np.array(vals[3:6]),
                         vals[6]))
    return rows


def read_snapshot_y(path):
    """The received samples of a ``snapshot.txt`` written by the CLI."""
    ys = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            _, re_y, im_y, _ = line.split()
            ys.append(complex(float(re_y), float(im_y)))
    return np.array(ys)
