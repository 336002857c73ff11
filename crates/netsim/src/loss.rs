//! Packet-loss models.
//!
//! The paper "uses a uniform distribution of frame discard to generate
//! the packet loss pattern" — [`UniformLoss`]. A bursty Gilbert–Elliott
//! model and a scripted model (for reproducing Figure 6's hand-placed
//! loss events e1..e7) are provided as well; all models are seeded and
//! fully deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Decides, packet by packet, what the network drops. Implementations are
/// deterministic given their construction parameters: to replay a loss
/// pattern, build a second model from the same parameters and seed.
///
/// `Send` is a supertrait so channels built on boxed models can migrate
/// across threads — the serving layer (`pbpair-serve`) steps whole
/// sessions, channel included, on whichever worker of its fork–join
/// pool claims them.
pub trait LossModel: Send {
    /// Returns true if the next packet (in transmission order) is lost.
    fn next_lost(&mut self) -> bool;

    /// Advances frame time to `frame`. Stationary models ignore this;
    /// time-varying channels (the scenario zoo's mobility schedules) use
    /// it to switch phases. Callers invoke it once per frame slot before
    /// transmitting that slot's packets.
    fn on_frame(&mut self, _frame: u64) {}
}

/// A loss-free channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn next_lost(&mut self) -> bool {
        false
    }
}

/// Independent (Bernoulli) loss at a fixed rate — the paper's uniform
/// frame-discard pattern when applied at frame granularity.
#[derive(Debug, Clone)]
pub struct UniformLoss {
    rate: f64,
    rng: StdRng,
}

impl UniformLoss {
    /// Creates a uniform loss model.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0,1]");
        UniformLoss {
            rate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured loss rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl LossModel for UniformLoss {
    fn next_lost(&mut self) -> bool {
        self.rng.gen::<f64>() < self.rate
    }
}

/// Two-state Gilbert–Elliott bursty loss: a Good state with low loss and
/// a Bad state with high loss, with geometric sojourn times. Standard
/// model for 802.11 fading channels; used by the extension experiments.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    /// P(Good → Bad) per packet.
    p_gb: f64,
    /// P(Bad → Good) per packet.
    p_bg: f64,
    /// Loss probability while Good.
    loss_good: f64,
    /// Loss probability while Bad.
    loss_bad: f64,
    rng: StdRng,
    in_bad: bool,
}

impl GilbertElliott {
    /// Creates the model starting in the Good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64, seed: u64) -> Self {
        for (name, p) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1]");
        }
        GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            rng: StdRng::seed_from_u64(seed),
            in_bad: false,
        }
    }

    /// The long-run average loss rate of the chain.
    pub fn steady_state_loss(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_gb / (self.p_gb + self.p_bg);
        (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad
    }
}

/// One transition of a two-state (good/bad) Markov chain, the step every
/// bursty channel shares: draws one uniform from `rng`, enters the bad
/// state with probability `p_enter` or leaves it with probability
/// `p_leave`, and returns the new state.
pub(crate) fn markov_step(rng: &mut StdRng, bad: &mut bool, p_enter: f64, p_leave: f64) -> bool {
    let flip: f64 = rng.gen();
    if *bad {
        if flip < p_leave {
            *bad = false;
        }
    } else if flip < p_enter {
        *bad = true;
    }
    *bad
}

impl LossModel for GilbertElliott {
    fn next_lost(&mut self) -> bool {
        // Transition first, then sample loss in the new state.
        let p = if markov_step(&mut self.rng, &mut self.in_bad, self.p_gb, self.p_bg) {
            self.loss_bad
        } else {
            self.loss_good
        };
        self.rng.gen::<f64>() < p
    }
}

/// Hand-scripted losses by transmission index — how the Figure 6
/// experiment places its seven loss events e1..e7 at exact frames.
#[derive(Debug, Clone)]
pub struct ScriptedLoss {
    lost: BTreeSet<u64>,
    cursor: u64,
}

impl ScriptedLoss {
    /// Creates a model that drops exactly the given transmission indices
    /// (0-based).
    pub fn new<I: IntoIterator<Item = u64>>(lost: I) -> Self {
        ScriptedLoss {
            lost: lost.into_iter().collect(),
            cursor: 0,
        }
    }
}

impl LossModel for ScriptedLoss {
    fn next_lost(&mut self) -> bool {
        let lost = self.lost.contains(&self.cursor);
        self.cursor += 1;
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_loss_never_drops() {
        let mut m = NoLoss;
        assert!((0..1000).all(|_| !m.next_lost()));
    }

    #[test]
    fn uniform_loss_hits_configured_rate() {
        let mut m = UniformLoss::new(0.1, 42);
        let n = 200_000;
        let lost = (0..n).filter(|_| m.next_lost()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.005, "observed rate {rate}");
    }

    #[test]
    fn loss_models_replay_per_seed() {
        let pattern =
            |mut m: Box<dyn LossModel>| (0..300).map(|_| m.next_lost()).collect::<Vec<_>>();
        let uniform = || Box::new(UniformLoss::new(0.3, 7));
        let ge = || Box::new(GilbertElliott::new(0.05, 0.3, 0.01, 0.5, 7));
        assert_eq!(pattern(uniform()), pattern(uniform()));
        assert_eq!(pattern(ge()), pattern(ge()));
        assert_ne!(
            pattern(uniform()),
            pattern(Box::new(UniformLoss::new(0.3, 8))),
            "another seed, another pattern"
        );
    }

    #[test]
    fn uniform_extremes() {
        let mut never = UniformLoss::new(0.0, 1);
        assert!((0..100).all(|_| !never.next_lost()));
        let mut always = UniformLoss::new(1.0, 1);
        assert!((0..100).all(|_| always.next_lost()));
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn uniform_rejects_bad_rate() {
        let _ = UniformLoss::new(1.5, 0);
    }

    #[test]
    fn gilbert_elliott_matches_steady_state() {
        let mut m = GilbertElliott::new(0.05, 0.3, 0.01, 0.5, 9);
        let expected = m.steady_state_loss();
        let n = 400_000;
        let lost = (0..n).filter(|_| m.next_lost()).count();
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - expected).abs() < 0.01,
            "observed {rate}, steady state {expected}"
        );
    }

    #[test]
    fn gilbert_elliott_is_burstier_than_uniform() {
        // Compare mean burst length (consecutive losses) at matched rates.
        let burst_len = |mut m: Box<dyn LossModel>| {
            let mut bursts = Vec::new();
            let mut run = 0u32;
            for _ in 0..200_000 {
                if m.next_lost() {
                    run += 1;
                } else if run > 0 {
                    bursts.push(run);
                    run = 0;
                }
            }
            bursts.iter().map(|&b| b as f64).sum::<f64>() / bursts.len() as f64
        };
        let ge = GilbertElliott::new(0.02, 0.2, 0.0, 0.5, 3);
        let rate = ge.steady_state_loss();
        let uni = UniformLoss::new(rate, 3);
        let b_ge = burst_len(Box::new(ge));
        let b_uni = burst_len(Box::new(uni));
        assert!(
            b_ge > b_uni * 1.3,
            "GE bursts ({b_ge}) must exceed uniform bursts ({b_uni})"
        );
    }

    #[test]
    fn scripted_loss_drops_exact_indices() {
        let mut m = ScriptedLoss::new([2u64, 5, 6]);
        let pattern: Vec<bool> = (0..8).map(|_| m.next_lost()).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, false, false, true, true, false]
        );
        // A second model from the same script replays it from the start.
        let mut again = ScriptedLoss::new([2u64, 5, 6]);
        let replay: Vec<bool> = (0..8).map(|_| again.next_lost()).collect();
        assert_eq!(replay, pattern);
    }
}
