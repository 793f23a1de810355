//! Link-latency models.
//!
//! The one-way propagation delay of a message is sampled when the message
//! leaves the sender's upload queue. The paper's testbed (PlanetLab) exhibits
//! wide-area latencies in the tens of milliseconds with noticeable jitter;
//! [`LatencyModel::planetlab_like`] provides a ready-made approximation while
//! the other constructors allow controlled experiments.

use crate::node::NodeId;
use crate::time::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the one-way network latency between two nodes is sampled.
///
/// # Examples
///
/// ```
/// use heap_simnet::latency::LatencyModel;
/// use heap_simnet::time::SimDuration;
/// use heap_simnet::node::NodeId;
/// use rand::SeedableRng;
///
/// let model = LatencyModel::uniform(SimDuration::from_millis(20), SimDuration::from_millis(80));
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let d = model.sample(&mut rng, NodeId::new(0), NodeId::new(1));
/// assert!(d >= SimDuration::from_millis(20) && d <= SimDuration::from_millis(80));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every message takes exactly the same time.
    Constant {
        /// The fixed one-way delay.
        delay: SimDuration,
    },
    /// Uniformly distributed delay in `[min, max]`.
    Uniform {
        /// Minimum one-way delay.
        min: SimDuration,
        /// Maximum one-way delay.
        max: SimDuration,
    },
    /// A base delay plus an exponentially distributed jitter term.
    ///
    /// This is a decent stand-in for wide-area paths: a propagation floor
    /// plus occasional queueing spikes.
    BaseplusExp {
        /// Propagation floor.
        base: SimDuration,
        /// Mean of the exponential jitter added on top of `base`.
        mean_jitter: SimDuration,
    },
}

impl LatencyModel {
    /// A constant-latency model.
    pub fn constant(delay: SimDuration) -> Self {
        LatencyModel::Constant { delay }
    }

    /// A uniform-latency model over `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn uniform(min: SimDuration, max: SimDuration) -> Self {
        // Precondition: sampling draws from `min..=max`.
        assert!(min <= max, "uniform latency requires min <= max");
        LatencyModel::Uniform { min, max }
    }

    /// Base delay plus exponential jitter.
    pub fn base_plus_exp(base: SimDuration, mean_jitter: SimDuration) -> Self {
        LatencyModel::BaseplusExp { base, mean_jitter }
    }

    /// A model approximating inter-PlanetLab-node paths: ~50 ms median
    /// one-way delay with occasional spikes (25 ms floor + exp(25 ms)).
    pub fn planetlab_like() -> Self {
        LatencyModel::BaseplusExp {
            base: SimDuration::from_millis(25),
            mean_jitter: SimDuration::from_millis(25),
        }
    }

    /// Samples the one-way delay for a message from `from` to `to`.
    ///
    /// The endpoints are accepted so that future models can be
    /// pairwise-dependent; the built-in models only use the RNG.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, _from: NodeId, _to: NodeId) -> SimDuration {
        match self {
            LatencyModel::Constant { delay } => *delay,
            LatencyModel::Uniform { min, max } => {
                if min == max {
                    *min
                } else {
                    SimDuration::from_micros(rng.gen_range(min.as_micros()..=max.as_micros()))
                }
            }
            LatencyModel::BaseplusExp { base, mean_jitter } => {
                // Inverse-CDF sampling of Exp(1/mean).
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let jitter = -u.ln() * mean_jitter.as_secs_f64();
                *base + SimDuration::from_secs_f64(jitter)
            }
        }
    }

    /// The smallest delay the model can produce (used for sanity checks).
    pub fn min_delay(&self) -> SimDuration {
        match self {
            LatencyModel::Constant { delay } => *delay,
            LatencyModel::Uniform { min, .. } => *min,
            LatencyModel::BaseplusExp { base, .. } => *base,
        }
    }
}

impl Default for LatencyModel {
    /// Defaults to [`LatencyModel::planetlab_like`].
    fn default() -> Self {
        LatencyModel::planetlab_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn constant_always_returns_delay() {
        let m = LatencyModel::constant(SimDuration::from_millis(42));
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(
                m.sample(&mut r, NodeId::new(0), NodeId::new(1)),
                SimDuration::from_millis(42)
            );
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let min = SimDuration::from_millis(10);
        let max = SimDuration::from_millis(50);
        let m = LatencyModel::uniform(min, max);
        let mut r = rng();
        let mut saw_low = false;
        let mut saw_high = false;
        for _ in 0..10_000 {
            let d = m.sample(&mut r, NodeId::new(0), NodeId::new(1));
            assert!(d >= min && d <= max);
            if d < SimDuration::from_millis(15) {
                saw_low = true;
            }
            if d > SimDuration::from_millis(45) {
                saw_high = true;
            }
        }
        assert!(
            saw_low && saw_high,
            "uniform samples should cover the range"
        );
    }

    #[test]
    fn uniform_degenerate_range() {
        let d = SimDuration::from_millis(33);
        let m = LatencyModel::uniform(d, d);
        assert_eq!(m.sample(&mut rng(), NodeId::new(0), NodeId::new(1)), d);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted_bounds() {
        let _ = LatencyModel::uniform(SimDuration::from_millis(2), SimDuration::from_millis(1));
    }

    #[test]
    fn base_plus_exp_mean_is_close() {
        let base = SimDuration::from_millis(25);
        let jitter = SimDuration::from_millis(25);
        let m = LatencyModel::base_plus_exp(base, jitter);
        let mut r = rng();
        let n = 50_000;
        let sum: f64 = (0..n)
            .map(|_| {
                m.sample(&mut r, NodeId::new(0), NodeId::new(1))
                    .as_secs_f64()
            })
            .sum();
        let mean = sum / n as f64;
        // Expected mean = 25ms + 25ms = 50ms; allow 10% tolerance.
        assert!((mean - 0.050).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn min_delay_matches_model() {
        assert_eq!(
            LatencyModel::constant(SimDuration::from_millis(5)).min_delay(),
            SimDuration::from_millis(5)
        );
        assert_eq!(
            LatencyModel::planetlab_like().min_delay(),
            SimDuration::from_millis(25)
        );
    }
}
