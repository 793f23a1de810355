//! Message-loss models.
//!
//! HEAP and the baseline gossip both ship their messages over UDP, so
//! messages can silently disappear. The simulator draws a loss decision per
//! message when it leaves the sender's upload queue. Besides independent
//! (Bernoulli) loss the crate provides a two-state Gilbert–Elliott model for
//! bursty loss, which is closer to what congested PlanetLab paths exhibit.

use crate::node::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Decides whether a given message is dropped by the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum LossModel {
    /// No message is ever lost.
    #[default]
    None,
    /// Each message is lost independently with probability `p`.
    Bernoulli {
        /// Per-message loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst-loss model.
    ///
    /// The channel alternates between a *good* state (loss probability
    /// `p_good`) and a *bad* state (loss probability `p_bad`), switching
    /// state after each message with the given transition probabilities.
    /// State is tracked per *sender*, which is where congestion-induced
    /// bursts originate in the streaming workload.
    GilbertElliott {
        /// Probability of moving good → bad after a message.
        p_good_to_bad: f64,
        /// Probability of moving bad → good after a message.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        p_good: f64,
        /// Loss probability while in the bad state.
        p_bad: f64,
    },
}

impl LossModel {
    /// A lossless network.
    pub fn none() -> Self {
        LossModel::None
    }

    /// Independent loss with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn bernoulli(p: f64) -> Self {
        // Precondition: `p` is drawn against as a probability.
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        LossModel::Bernoulli { p }
    }

    /// A mildly bursty model: 1% loss in the good state, 20% in the bad
    /// state, with an average burst length of 5 messages and ~5% of time
    /// spent in the bad state.
    pub fn bursty_default() -> Self {
        LossModel::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.2,
            p_good: 0.01,
            p_bad: 0.2,
        }
    }

    /// Returns `true` if this model can never lose a message.
    pub fn is_lossless(&self) -> bool {
        match self {
            LossModel::None => true,
            LossModel::Bernoulli { p } => *p == 0.0,
            LossModel::GilbertElliott { p_good, p_bad, .. } => *p_good == 0.0 && *p_bad == 0.0,
        }
    }
}

/// Per-simulation mutable state required by stateful loss models.
///
/// Keeps one channel state per sender for the Gilbert–Elliott model. The
/// state type is separate from [`LossModel`] so that the model itself stays
/// an immutable, serialisable configuration value. The simulator draws every
/// loss decision through [`LossState::is_lost`].
#[derive(Debug, Clone)]
pub struct LossState {
    /// `true` = the sender's channel is currently in the bad state.
    bad: Vec<bool>,
}

impl LossState {
    /// Creates the state `model` needs for `n` senders, all starting in the
    /// good state. Only the Gilbert–Elliott model keeps per-sender state;
    /// for the others this allocates nothing.
    pub fn new(model: &LossModel, n: usize) -> Self {
        let senders = match model {
            LossModel::GilbertElliott { .. } => n,
            LossModel::None | LossModel::Bernoulli { .. } => 0,
        };
        LossState {
            bad: vec![false; senders],
        }
    }

    /// Draws whether a message from `from` to `to` is lost and advances the
    /// channel state.
    #[inline]
    pub fn is_lost<R: Rng + ?Sized>(
        &mut self,
        model: &LossModel,
        rng: &mut R,
        from: NodeId,
        _to: NodeId,
    ) -> bool {
        match model {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.gen_bool(*p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                p_good,
                p_bad,
            } => {
                let idx = from.index();
                if idx >= self.bad.len() {
                    self.bad.resize(idx + 1, false);
                }
                let in_bad = self.bad[idx];
                let loss_p = if in_bad { *p_bad } else { *p_good };
                let lost = rng.gen_bool(loss_p);
                // Transition after the draw.
                let flip_p = if in_bad {
                    *p_bad_to_good
                } else {
                    *p_good_to_bad
                };
                if rng.gen_bool(flip_p) {
                    self.bad[idx] = !in_bad;
                }
                lost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn none_never_loses() {
        let model = LossModel::none();
        let mut state = LossState::new(&model, 4);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(!state.is_lost(&model, &mut r, NodeId::new(0), NodeId::new(1)));
        }
        assert!(model.is_lossless());
    }

    #[test]
    fn bernoulli_rate_is_close_to_p() {
        let model = LossModel::bernoulli(0.1);
        let mut state = LossState::new(&model, 1);
        let mut r = rng();
        let n = 100_000;
        let lost = (0..n)
            .filter(|_| state.is_lost(&model, &mut r, NodeId::new(0), NodeId::new(1)))
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
        assert!(!model.is_lossless());
        assert!(LossModel::bernoulli(0.0).is_lossless());
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn bernoulli_rejects_invalid_probability() {
        let _ = LossModel::bernoulli(1.5);
    }

    #[test]
    fn gilbert_elliott_long_run_rate_between_states() {
        let model = LossModel::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.2,
            p_good: 0.01,
            p_bad: 0.3,
        };
        let mut state = LossState::new(&model, 1);
        let mut r = rng();
        let n = 200_000;
        let lost = (0..n)
            .filter(|_| state.is_lost(&model, &mut r, NodeId::new(0), NodeId::new(1)))
            .count();
        let rate = lost as f64 / n as f64;
        // Stationary bad-state probability = 0.05/(0.05+0.2) = 0.2,
        // expected loss = 0.8*0.01 + 0.2*0.3 = 0.068.
        assert!((rate - 0.068).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_state_is_per_sender() {
        // Force sender 0 permanently into the bad state and make sure
        // sender 1 is unaffected.
        let model = LossModel::GilbertElliott {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            p_good: 0.0,
            p_bad: 1.0,
        };
        let mut state = LossState::new(&model, 2);
        let mut r = rng();
        // First message from node 0: good state, never lost, then flips to bad.
        assert!(!state.is_lost(&model, &mut r, NodeId::new(0), NodeId::new(1)));
        // Subsequent messages from node 0 are always lost.
        for _ in 0..10 {
            assert!(state.is_lost(&model, &mut r, NodeId::new(0), NodeId::new(1)));
        }
        // Node 1 still starts in the good state: its first message survives.
        assert!(!state.is_lost(&model, &mut r, NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn loss_state_grows_on_demand() {
        let model = LossModel::bursty_default();
        let mut state = LossState::new(&model, 1);
        let mut r = rng();
        // Index beyond the initial size must not panic.
        let _ = state.is_lost(&model, &mut r, NodeId::new(10), NodeId::new(0));
        assert!(state.bad.len() >= 11);
    }

    #[test]
    fn only_gilbert_elliott_allocates_sender_state() {
        let flags = |model: LossModel| LossState::new(&model, 100).bad.len();
        assert_eq!(flags(LossModel::none()), 0);
        assert_eq!(flags(LossModel::bernoulli(0.1)), 0);
        assert_eq!(flags(LossModel::bursty_default()), 100);
    }
}
