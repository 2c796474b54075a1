"""A frozen copy of the distribution summary as it read profits, before
``metrics._summarize`` took the model's energies and negated only
scalars and cut-offs.

It negates the energies into a profit array, compares profits with the
optimum's cut-offs and sums weight times profit, so tests can check in
bits that reading the energies as they are changes no summary. The tie
narrowing, ``weighted_sum`` and the summary record are the package's:
they did not change.
"""

import numpy as np

from profitcover.metrics import DistributionSummary, lex_min_index, lex_min_of_mask
from profitcover.model import bitstring_of_index
from profitcover.qaoa import weighted_sum


def summarize_profits(kind, shots, indices, weights, profits, n, m_edges, opt_profit):
    """Summary of a distribution over the sorted, unique basis ``indices``
    (``None`` for every basis state, in order), from its profits."""
    full = indices is None

    def lex_min(mask):
        return lex_min_of_mask(mask) if full else lex_min_index(indices[mask], n)

    best_profit = float(np.max(profits))
    best_idx = lex_min(profits == best_profit)
    top_w = np.max(weights)
    likely_idx = lex_min(weights == top_w)
    likely_profit = float(profits[likely_idx if full
                                  else np.searchsorted(indices, likely_idx)])
    mean_profit = (weighted_sum(weights, profits) if full
                   else float(np.sum(weights * profits)))

    alpha = mass_opt = mass_90 = mass_80 = None
    if opt_profit is not None:
        mass_opt = float(np.sum(weights[profits == opt_profit]))
        if opt_profit > 0:
            alpha = best_profit / opt_profit
            mass_90 = float(np.sum(weights[profits >= -(-9 * opt_profit // 10)]))
            mass_80 = float(np.sum(weights[profits >= -(-4 * opt_profit // 5)]))
    return DistributionSummary(
        kind=kind,
        shots=shots,
        n_distinct=int(weights.size),
        best_bitstring=bitstring_of_index(best_idx, n),
        best_profit=best_profit,
        most_likely_bitstring=bitstring_of_index(likely_idx, n),
        most_likely_profit=likely_profit,
        most_likely_probability=float(top_w),
        weighted_average_profit=mean_profit,
        expected_cover_size=float(m_edges) - mean_profit,
        opt_profit=opt_profit,
        approx_ratio_best=alpha,
        mass_optimal=mass_opt,
        mass_90=mass_90,
        mass_80=mass_80,
    )
