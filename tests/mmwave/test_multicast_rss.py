"""The one multicast-beam rule against the inline forms it replaced.

``multicast_common_rss_dbm`` is the paper's §4.2 rule: the group rate is
pinned to its weakest member, so a caller keeps the better of the best
common codebook beam and the RSS-weighted multi-lobe beam.  The channel
rate provider, Fig. 3d and Fig. 3e each used to write that rule out inline;
the references below are those inline forms, kept verbatim so the shared
function must reproduce every float bit for bit.
"""

from functools import reduce

import numpy as np
import pytest

from repro.mmwave import (
    app_rate_mbps,
    bodies_from_positions,
    combine_weights,
    multicast_common_rss_dbm,
)

GROUPS = {
    "separated-2": [[1.2, 4.0, 1.5], [6.8, 4.5, 1.5]],
    "co-located-2": [[4.0, 5.0, 1.5], [4.2, 5.1, 1.5]],
    "separated-3": [[1.2, 4.0, 1.5], [6.8, 4.5, 1.5], [4.0, 8.5, 1.4]],
    "co-located-3": [[4.0, 5.0, 1.5], [4.2, 5.1, 1.5], [3.9, 5.3, 1.6]],
}
# A bystander between the AP and the room so the blocker sets matter.
BYSTANDER = [4.0, 2.5, 1.5]


def _positions(name):
    return [np.array(p, dtype=np.float64) for p in GROUPS[name]]


def _rates_reference(channel, codebook, positions, bodies_of):
    """``ChannelRateProvider.multicast_rate_mbps``'s inline RSS (dBm)."""
    weight_matrix = codebook.weight_matrix
    per_user_rss = np.stack(
        [
            channel.rss_matrix_dbm(weight_matrix, pos, bodies_of(u))
            for u, pos in enumerate(positions)
        ]
    )
    common = per_user_rss.min(axis=0)
    best_min = float(common.max())
    best_beams = [int(np.argmax(per_user_rss[i])) for i in range(len(positions))]
    combined = combine_weights(
        [codebook[b].weights for b in best_beams],
        [float(per_user_rss[i, b]) for i, b in enumerate(best_beams)],
    )
    combined_min = min(
        channel.rss_dbm(combined, pos, bodies_of(u))
        for u, pos in enumerate(positions)
    )
    return max(best_min, float(combined_min))


def _fig3d_reference(channel, codebook, positions):
    """Fig. 3d's inline (default, custom) common RSS (dBm), no blockers."""
    weight_matrix = codebook.weight_matrix
    per_user_rss = np.stack(
        [channel.rss_matrix_dbm(weight_matrix, pos) for pos in positions]
    )
    common = per_user_rss.min(axis=0)
    default_common = float(common.max())
    best_beams = [int(np.argmax(per_user_rss[i])) for i in range(len(positions))]
    combined = combine_weights(
        [codebook[b].weights for b in best_beams],
        [float(per_user_rss[i, b]) for i, b in enumerate(best_beams)],
    )
    combined_common = min(channel.rss_dbm(combined, pos) for pos in positions)
    return default_common, max(default_common, float(combined_common))


def _fig3e_reference(channel, codebook, positions):
    """Fig. 3e's inline (default, custom) multicast rates (Mbps)."""
    weight_matrix = codebook.weight_matrix
    per_user_beam_rss = []
    for pos in positions:
        rss_all = channel.rss_matrix_dbm(weight_matrix, pos)
        best = int(np.argmax(rss_all))
        per_user_beam_rss.append((best, float(rss_all[best])))
    common = reduce(
        np.minimum,
        [channel.rss_matrix_dbm(weight_matrix, pos) for pos in positions],
    )
    rate_default = app_rate_mbps(float(common.max()))
    combined = combine_weights(
        [codebook[b].weights for b, _ in per_user_beam_rss],
        [r for _, r in per_user_beam_rss],
    )
    custom_common = min(channel.rss_dbm(combined, p) for p in positions)
    rate_custom = max(rate_default, app_rate_mbps(float(custom_common)))
    return rate_default, rate_custom


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_matches_rate_provider_form_with_per_member_blockers(
    group, channel, small_codebook
):
    positions = _positions(group)
    everyone = np.stack(positions + [np.array(BYSTANDER)])

    def bodies_of(u):
        return bodies_from_positions(everyone, exclude=u)

    default, custom = multicast_common_rss_dbm(
        channel,
        small_codebook,
        positions,
        [bodies_of(u) for u in range(len(positions))],
    )
    assert max(default, custom) == _rates_reference(
        channel, small_codebook, positions, bodies_of
    )


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_matches_fig3d_form(group, channel, ideal_small_codebook):
    positions = _positions(group)
    default, custom = multicast_common_rss_dbm(
        channel, ideal_small_codebook, positions
    )
    assert (default, max(default, custom)) == _fig3d_reference(
        channel, ideal_small_codebook, positions
    )


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_matches_fig3e_form_in_rate_space(group, channel, ideal_small_codebook):
    positions = _positions(group)
    default, custom = multicast_common_rss_dbm(
        channel, ideal_small_codebook, positions
    )
    rates = (
        app_rate_mbps(default),
        max(app_rate_mbps(default), app_rate_mbps(custom)),
    )
    assert rates == _fig3e_reference(channel, ideal_small_codebook, positions)


def test_separated_pair_gains_from_the_multi_lobe_beam(
    channel, ideal_small_codebook
):
    default, custom = multicast_common_rss_dbm(
        channel, ideal_small_codebook, _positions("separated-2")
    )
    assert custom > default


def test_rejects_an_empty_group(channel, ideal_small_codebook):
    with pytest.raises(ValueError, match="at least one receiver"):
        multicast_common_rss_dbm(channel, ideal_small_codebook, [])


def test_rejects_a_blocker_list_of_the_wrong_length(channel, ideal_small_codebook):
    positions = _positions("separated-3")
    with pytest.raises(ValueError, match="one blocker tuple per receiver"):
        multicast_common_rss_dbm(
            channel, ideal_small_codebook, positions, [(), ()]
        )
