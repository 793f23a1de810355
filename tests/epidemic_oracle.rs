//! The dissemination checked against a closed form, not against itself.
//!
//! Gossip here is infect-and-die push: every node proposes each id once, to
//! f targets drawn uniformly from the other nodes. A node misses a packet
//! when none of the nodes that got it picked it, so as n grows the covered
//! fraction π solves π = 1 − e^{−fπ}, the giant component of a random
//! f-out graph (Kermarrec, Massoulié and Ganesh, IEEE TPDS 2003). Without
//! loss or capacity limits, a receiver's miss rate 1 − `delivery_ratio`
//! must match that prediction; below the threshold (f < 1) almost nothing
//! is covered.

use heap::analytics::fixed_point;
use heap::simnet::loss::LossModel;
use heap::workloads::{run_scenario, BandwidthDistribution, ProtocolChoice, Scale, Scenario};

const N: usize = 500;
const SEEDS: [u64; 3] = [1, 7, 42];

/// Mean over receivers of 1 − `delivery_ratio`, for standard gossip with
/// fanout `f` on an unconstrained, lossless network.
fn miss_rate(f: f64, seed: u64) -> f64 {
    let scenario = Scenario::new(
        format!("oracle/f={f}"),
        Scale::test().with_nodes(N).with_windows(4).with_seed(seed),
        BandwidthDistribution::unconstrained(),
        ProtocolChoice::Standard { fanout: f },
    )
    .with_loss(LossModel::none())
    .with_stragglers(0.0);
    let result = run_scenario(&scenario);
    let delivered: f64 = result
        .nodes
        .iter()
        .map(|r| r.metrics.delivery_ratio())
        .sum();
    1.0 - delivered / result.nodes.len() as f64
}

/// The predicted receiver miss rate at population `n`: e^{−fπ} with the
/// finite-population fanout. Each of the nπ covered nodes misses a given
/// node with probability 1 − f/(n − 1), so the miss is e^{−f_n π} with
/// f_n = −n·ln(1 − f/(n − 1)), and π = `fixed_point(f_n)`; the source is
/// always covered, which scales the receivers' miss by n/(n − 1). At n = 500
/// this lowers the prediction by 0.6 % (f = 1.5) to 3.4 % (f = 5) against
/// the infinite-population e^{−fπ}.
fn predicted_miss(f: f64, n: usize) -> f64 {
    let n = n as f64;
    let f_n = -n * (1.0 - f / (n - 1.0)).ln();
    n / (n - 1.0) * (-f_n * fixed_point(f_n)).exp()
}

/// The tolerance, relative to the predicted miss, of the mean miss over
/// [`SEEDS`]. Measured over 30 other seeds at n = 500, one run's miss
/// scatters around its mean by 1.1 %, 0.8 %, 1.2 % and 3.1 % (one standard
/// deviation) at f = 1.5, 2, 3 and 5 — the rarer the miss, the fewer the
/// events behind it — so the three-seed mean scatters by at most 1.8 %; and
/// that 30-seed mean sits 0.5 % to 1.1 % above the prediction. 4 % keeps
/// the worst row about two standard deviations inside the bound, while the
/// mutations this test exists for move the miss by far more: proposing
/// each id twice doubles the effective fanout (f = 1.5 then misses 6 %,
/// not 42 %).
const TOLERANCE: f64 = 0.04;

#[test]
fn supercritical_miss_rate_matches_the_fixed_point() {
    for f in [1.5, 2.0, 3.0, 5.0] {
        let misses: Vec<f64> = SEEDS.iter().map(|&seed| miss_rate(f, seed)).collect();
        let measured = misses.iter().sum::<f64>() / misses.len() as f64;
        let predicted = predicted_miss(f, N);
        let error = measured / predicted - 1.0;
        assert!(
            error.abs() <= TOLERANCE,
            "f = {f}: mean miss {measured:.5} (seeds {SEEDS:?}: {misses:.5?}) is {:+.1} % off \
             the predicted {predicted:.5}",
            100.0 * error
        );
    }
}

#[test]
fn subcritical_gossip_covers_almost_nothing() {
    assert_eq!(fixed_point(0.8), 0.0);
    for seed in SEEDS {
        let coverage = 1.0 - miss_rate(0.8, seed);
        assert!(
            coverage < 0.05,
            "seed {seed}: f = 0.8 covered {coverage:.4} of the receivers"
        );
    }
}
