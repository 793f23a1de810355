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

/// A latency model compiled into its per-draw fast path.
///
/// [`LatencyModel::sample`] re-derives everything it needs on every call: the
/// uniform path recomputes the span, re-checks degeneracy and goes through the
/// rand shim's generic `i128`-widened range reduction; the exponential path
/// reconverts the mean to seconds. The simulator samples a latency for every
/// transmitted message, so that work is hoisted out of the loop: the model is
/// classified once at simulator construction and each draw is a single match
/// on a precomputed variant (mask, modulus or cached float constants).
///
/// Draw-for-draw equivalence with [`LatencyModel::sample`] — same RNG
/// consumption, bit-identical values — is pinned by unit tests here and by
/// the engine-vs-reference fingerprint tests in `tests/scheduler_core.rs`
/// (the reference core samples through [`LatencyModel::sample`]).
#[derive(Debug, Clone)]
pub(crate) enum LatencySampler {
    /// Fixed delay (also degenerate uniform ranges): no RNG draw.
    Constant(SimDuration),
    /// Uniform over a power-of-two span: one draw, masked.
    UniformPow2 {
        /// Lower bound in microseconds.
        min_micros: u64,
        /// `span - 1`, where `span` is a power of two.
        mask: u64,
    },
    /// Uniform over an arbitrary span: one draw, one `u64` modulo.
    UniformSpan {
        /// Lower bound in microseconds.
        min_micros: u64,
        /// Inclusive span `max - min + 1`.
        span: u64,
    },
    /// Base plus exponential jitter with the mean pre-converted to seconds.
    BasePlusExp {
        /// Propagation floor.
        base: SimDuration,
        /// Mean jitter in seconds.
        mean_secs: f64,
    },
}

impl LatencySampler {
    /// Classifies `model` into its fast path.
    pub(crate) fn new(model: &LatencyModel) -> Self {
        match model {
            LatencyModel::Constant { delay } => LatencySampler::Constant(*delay),
            LatencyModel::Uniform { min, max } => {
                if min == max {
                    return LatencySampler::Constant(*min);
                }
                let min_micros = min.as_micros();
                match (max.as_micros() - min_micros).checked_add(1) {
                    // The full-u64 span: `x % 2^64 == x == x & u64::MAX`.
                    None => LatencySampler::UniformPow2 {
                        min_micros,
                        mask: u64::MAX,
                    },
                    Some(span) if span.is_power_of_two() => LatencySampler::UniformPow2 {
                        min_micros,
                        mask: span - 1,
                    },
                    Some(span) => LatencySampler::UniformSpan { min_micros, span },
                }
            }
            LatencyModel::BaseplusExp { base, mean_jitter } => LatencySampler::BasePlusExp {
                base: *base,
                mean_secs: mean_jitter.as_secs_f64(),
            },
        }
    }

    /// Samples one delay. Consumes exactly the RNG values
    /// [`LatencyModel::sample`] would and returns the identical duration.
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match self {
            LatencySampler::Constant(d) => *d,
            LatencySampler::UniformPow2 { min_micros, mask } => {
                // `min + (x & mask)` is `min + x % span` for power-of-two
                // spans — the exact reduction the rand shim performs.
                SimDuration::from_micros(min_micros.wrapping_add(rng.next_u64() & mask))
            }
            LatencySampler::UniformSpan { min_micros, span } => {
                SimDuration::from_micros(min_micros + rng.next_u64() % span)
            }
            LatencySampler::BasePlusExp { base, mean_secs } => {
                // Identical to `rng.gen_range(f64::EPSILON..1.0)` in the rand
                // shim (53 mantissa bits scaled into the range), then the
                // inverse-CDF transform of LatencyModel::sample.
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let u = f64::EPSILON + unit * (1.0 - f64::EPSILON);
                *base + SimDuration::from_secs_f64(-u.ln() * mean_secs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};

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
    fn cached_sampler_is_draw_identical_to_model() {
        // Every model variant, including degenerate and power-of-two spans:
        // the compiled sampler must consume the same RNG values and return
        // bit-identical durations.
        let models = [
            LatencyModel::constant(SimDuration::from_millis(42)),
            LatencyModel::uniform(SimDuration::from_millis(7), SimDuration::from_millis(7)),
            // Power-of-two span: 2^18 µs.
            LatencyModel::uniform(
                SimDuration::from_micros(2_000),
                SimDuration::from_micros(2_000 + (1 << 18) - 1),
            ),
            // Arbitrary span.
            LatencyModel::uniform(SimDuration::from_millis(10), SimDuration::from_millis(73)),
            LatencyModel::planetlab_like(),
        ];
        for model in &models {
            let sampler = LatencySampler::new(model);
            let mut slow = rng();
            let mut fast = rng();
            for i in 0..10_000 {
                let a = model.sample(&mut slow, NodeId::new(0), NodeId::new(1));
                let b = sampler.sample(&mut fast);
                assert_eq!(a, b, "draw {i} diverged for {model:?}");
            }
            // RNG positions must agree too (same number of draws consumed).
            assert_eq!(slow.next_u64(), fast.next_u64(), "{model:?} desynced");
        }
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
