//! Joint intra/FEC redundancy control.
//!
//! PBPAIR's `Intra_Th` and a block erasure code spend the *same* bit and
//! energy budget on the *same* goal — bounding the visual damage a lossy
//! channel can do. The paper adapts only the intra side; this module
//! closes the loop on both: at every GOP boundary the controller reads
//!
//! * the receiver's feedback PLR,
//! * its erasure-burst-length estimate ([`pbpair_netsim::BurstEstimator`]
//!   riding the same feedback report), and
//! * the encoder's own `C^k` damage forecast (`1 − mean σ^{k−1}`: how
//!   much a lost packet is *expected* to hurt given current refresh
//!   state),
//!
//! and picks the (`Intra_Th`, parity shards) pair minimizing predicted
//! residual damage plus a small energy term, subject to a total-bytes
//! budget. Channel-aware: residual block loss is evaluated under a
//! two-state Markov erasure chain fitted to (PLR, burst length), so a
//! bursty channel buys deeper parity than a uniform one at the same PLR.
//!
//! Everything is pure `f64` arithmetic on the session's deterministic
//! state — decisions replay identically at any worker count.

use pbpair_netsim::FecSpec;

/// The `Intra_Th` operating points the controller may select. Spans the
/// paper's useful range; coarse on purpose — the degradation controller
/// works in fine steps, the joint controller in regimes.
const TH_GRID: [f64; 7] = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99];

/// Weight of the normalized energy term against predicted damage.
const ENERGY_LAMBDA: f64 = 0.01;

/// Floor on the `C^k` damage forecast inside the score. A freshly
/// refreshed picture forecasts near-zero damage, but acting on that
/// forecast by dropping protection *re-creates* the exposure the refresh
/// just paid for — the classic self-defeating feedback loop. The floor
/// keeps the loss term live (and the forecast still scales it above the
/// floor) so protection follows the channel, not the controller's own
/// success.
const DAMAGE_FLOOR: f64 = 0.25;

/// Slope of the propagation discount `1 − SLOPE·th`: how much raising
/// `Intra_Th` shrinks what one lost block corrupts. Deliberately gentle —
/// within the grid's range the measured PSNR spread between operating
/// points is small next to the spread between repaired and unrepaired
/// blocks, and an aggressive slope makes the controller buy `Intra_Th`
/// with bytes that repair more damage as parity.
const PROPAGATION_SLOPE: f64 = 0.35;

/// Configuration of the joint redundancy controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundancyConfig {
    /// Codec family to re-rate. Its `r` is only the starting point; the
    /// controller moves parity within `0..=max_parity` (0 = FEC off for
    /// that GOP). XOR is structurally capped at one parity shard.
    pub family: FecSpec,
    /// Upper bound on parity shards per block.
    pub max_parity: usize,
    /// Wire-bytes budget as a multiple of the unprotected stream at the
    /// session's base `Intra_Th`. Both levers draw on it: raising
    /// `Intra_Th` grows the encoded frame (intra MBs cost more bits) and
    /// parity multiplies whatever the encoder emits by `1 + r/k`, so the
    /// controller genuinely *splits* the frame bit budget between intra
    /// refresh and FEC rate. 1.0 means "no headroom": protection can
    /// only be bought by lowering `Intra_Th` below base — usually
    /// impossible within the grid — so FEC stays off.
    pub budget_ratio: f64,
    /// Decision cadence in frames (a "GOP" of the joint loop).
    pub gop: u64,
}

impl RedundancyConfig {
    /// A controller around `family` at the evaluation defaults:
    /// 25% byte overhead ceiling, re-decision every 8 frames.
    pub fn new(family: FecSpec) -> Self {
        RedundancyConfig {
            family,
            max_parity: 4,
            budget_ratio: 1.25,
            gop: 8,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.family.validate()?;
        if self.gop == 0 {
            return Err("redundancy: gop must be positive".into());
        }
        if self.budget_ratio < 1.0 {
            return Err(format!(
                "redundancy: budget_ratio {} cannot be below 1.0 (parity-free)",
                self.budget_ratio
            ));
        }
        if self.family.k().saturating_add(self.max_parity) > 255 {
            return Err(format!(
                "redundancy: k + max_parity = {} + {} exceeds GF(256) block bound",
                self.family.k(),
                self.max_parity
            ));
        }
        Ok(())
    }
}

/// One joint operating point: what the session applies until the next
/// GOP boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundancyDecision {
    /// `Intra_Th` for the coming GOP.
    pub intra_th: f64,
    /// Parity shards per block (0 = no FEC this GOP).
    pub parity: usize,
}

/// The controller. Feed it feedback ([`RedundancyController::on_feedback`])
/// as reports arrive and call [`RedundancyController::decide`] at GOP
/// boundaries; between boundaries the last decision stays in force.
#[derive(Debug, Clone)]
pub struct RedundancyController {
    cfg: RedundancyConfig,
    /// The session's anchor `Intra_Th` — the bit budget is quoted
    /// relative to the unprotected stream at this operating point.
    base_th: f64,
    /// Last feedback PLR (starts at the configured channel PLR).
    plr: f64,
    /// Last feedback mean erasure-burst length (packets).
    burst: f64,
    decision: RedundancyDecision,
}

impl RedundancyController {
    /// Builds a controller; `initial_plr` seeds the loop until the first
    /// feedback report, `base_th` is in force until the first decision.
    ///
    /// # Errors
    ///
    /// Propagates [`RedundancyConfig::validate`] failures.
    pub fn new(cfg: RedundancyConfig, initial_plr: f64, base_th: f64) -> Result<Self, String> {
        cfg.validate()?;
        Ok(RedundancyController {
            decision: RedundancyDecision {
                intra_th: base_th.clamp(0.0, 1.0),
                parity: cfg.family.r().min(cfg.max_parity),
            },
            base_th: base_th.clamp(0.0, 1.0),
            plr: initial_plr.clamp(0.0, 0.999),
            burst: 1.0,
            cfg,
        })
    }

    /// Decision cadence in frames.
    pub fn gop(&self) -> u64 {
        self.cfg.gop
    }

    /// The codec family being re-rated.
    pub fn family(&self) -> FecSpec {
        self.cfg.family
    }

    /// The decision currently in force.
    pub fn decision(&self) -> RedundancyDecision {
        self.decision
    }

    /// Updates the channel estimate from a receiver feedback report.
    pub fn on_feedback(&mut self, plr: f64, burst: f64) {
        self.plr = plr.clamp(0.0, 0.999);
        self.burst = burst.max(1.0);
    }

    /// Picks the joint operating point for the next GOP.
    /// `expected_damage` is the encoder's `C^k` forecast in `[0, 1]` —
    /// how much of the picture a loss is expected to corrupt given the
    /// current refresh state (`1 − mean σ^{k−1}`).
    ///
    /// Every `(Intra_Th, parity)` pair on the grid is priced three ways:
    /// wire bytes `norm_bytes(th) · (1 + r/k)` (hard budget), predicted
    /// residual damage `damage · (1 − SLOPE·th) · residual(plr, burst)`
    /// (intra refresh shrinks what a lost block corrupts; parity shrinks
    /// how often a block is lost), and a small normalized energy term
    /// (intra MBs skip motion estimation, so high `Intra_Th` *saves*
    /// encode energy; GF(256) parity work costs more than XOR parity).
    /// The feasible minimizer wins; if nothing on the grid fits the
    /// budget the previous decision stays in force.
    pub fn decide(&mut self, expected_damage: f64) -> RedundancyDecision {
        let damage = DAMAGE_FLOOR + (1.0 - DAMAGE_FLOOR) * expected_damage.clamp(0.0, 1.0);
        let k = self.cfg.family.k();
        let budget = self.cfg.budget_ratio * norm_bytes(self.base_th);
        let mut best = (f64::INFINITY, self.decision);
        for &th in TH_GRID.iter() {
            for r in 0..=self.cfg.max_parity {
                let spec = (r > 0).then(|| self.cfg.family.with_parity(r));
                // XOR is structurally r = 1: higher candidates collapse
                // onto the same spec and can only tie, never win.
                let eff_r = spec.map_or(0, |s| s.r());
                if eff_r != r {
                    continue;
                }
                let wire = norm_bytes(th) * (1.0 + eff_r as f64 / k as f64);
                if wire > budget + 1e-9 {
                    continue;
                }
                let n = k + eff_r;
                let cap = spec.map_or(0, erasure_capability);
                let residual = residual_block_loss(self.plr, self.burst, n, cap);
                let predicted = damage * (1.0 - PROPAGATION_SLOPE * th) * residual;
                let energy =
                    (1.0 - 0.5 * th) + per_parity_cost(&self.cfg.family) * eff_r as f64 / k as f64;
                let score = predicted + ENERGY_LAMBDA * energy;
                if score < best.0 {
                    best = (
                        score,
                        RedundancyDecision {
                            intra_th: th,
                            parity: eff_r,
                        },
                    );
                }
            }
        }
        self.decision = best.1;
        self.decision
    }
}

/// Encoded-frame bytes as a function of `Intra_Th`, normalized so the
/// number is comparable across candidates (intra MBs cost roughly twice
/// the bits of predicted MBs in this codec, so bytes grow ≈linearly in
/// the intra fraction).
fn norm_bytes(th: f64) -> f64 {
    0.6 + 0.6 * th
}

/// Erasures per block the family is guaranteed (RS against *any*
/// pattern of that weight; XOR) or likely (LT, which pays fountain
/// overhead) to repair.
fn erasure_capability(spec: FecSpec) -> usize {
    match spec {
        FecSpec::Rs { r, .. } => r,
        FecSpec::Xor { .. } => 1,
        FecSpec::Lt { r, .. } => r.saturating_sub(1),
    }
}

/// Normalized per-parity-shard processing cost (GF(256) families pay
/// table-lookup MACs; XOR pays single-cycle XORs).
fn per_parity_cost(family: &FecSpec) -> f64 {
    match family {
        FecSpec::Rs { .. } | FecSpec::Lt { .. } => 0.25,
        FecSpec::Xor { .. } => 0.05,
    }
}

/// Probability that more than `cap` of a block's `n` packets are erased,
/// under a two-state Markov (Gilbert) erasure chain with stationary loss
/// `plr` and mean burst length `burst` packets. `burst = 1` degenerates
/// to (slightly anti-correlated) near-independent losses; larger values
/// cluster erasures, which is exactly what defeats shallow parity.
pub fn residual_block_loss(plr: f64, burst: f64, n: usize, cap: usize) -> f64 {
    if plr <= 0.0 || cap >= n {
        return 0.0;
    }
    if plr >= 1.0 {
        return 1.0;
    }
    let l = burst.max(1.0);
    let p_bg = 1.0 / l;
    let p_gb = (plr / (l * (1.0 - plr))).min(1.0);
    // dp[c][s]: after t packets, probability of c erasures (saturated at
    // cap + 1) with the chain in state s (0 = good, 1 = bad). Start from
    // the stationary distribution.
    let sat = cap + 1;
    let mut dp = vec![[0.0f64; 2]; sat + 1];
    dp[0][0] = 1.0 - plr;
    dp[0][1] = plr;
    for _ in 0..n {
        let mut next = vec![[0.0f64; 2]; sat + 1];
        for (c, states) in dp.iter().enumerate() {
            for (s, &p) in states.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                let c2 = if s == 1 { (c + 1).min(sat) } else { c };
                let (to_good, to_bad) = if s == 1 {
                    (p_bg, 1.0 - p_bg)
                } else {
                    (1.0 - p_gb, p_gb)
                };
                next[c2][0] += p * to_good;
                next[c2][1] += p * to_bad;
            }
        }
        dp = next;
    }
    dp[sat][0] + dp[sat][1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs8() -> RedundancyConfig {
        RedundancyConfig {
            max_parity: 4,
            budget_ratio: 1.5,
            ..RedundancyConfig::new(FecSpec::Rs { k: 8, r: 2 })
        }
    }

    #[test]
    fn residual_is_monotone_in_capability_and_burst() {
        let a = residual_block_loss(0.10, 1.0, 10, 0);
        let b = residual_block_loss(0.10, 1.0, 10, 1);
        let c = residual_block_loss(0.10, 1.0, 10, 2);
        assert!(a > b && b > c, "{a} {b} {c}");
        // Clustered losses defeat shallow parity more often.
        assert!(residual_block_loss(0.10, 4.0, 10, 2) > residual_block_loss(0.10, 1.0, 10, 2));
        // Boundary behaviour.
        assert_eq!(residual_block_loss(0.0, 1.0, 10, 0), 0.0);
        assert_eq!(residual_block_loss(0.10, 2.0, 10, 10), 0.0);
        assert_eq!(residual_block_loss(1.0, 1.0, 10, 2), 1.0);
        // A probability, whatever the inputs.
        let p = residual_block_loss(0.37, 2.5, 12, 3);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn decisions_are_deterministic() {
        let mut a = RedundancyController::new(rs8(), 0.10, 0.9).unwrap();
        let mut b = RedundancyController::new(rs8(), 0.10, 0.9).unwrap();
        a.on_feedback(0.12, 3.0);
        b.on_feedback(0.12, 3.0);
        assert_eq!(a.decide(0.6), b.decide(0.6));
    }

    #[test]
    fn lossy_channels_keep_protection_engaged() {
        for burst in [1.1, 4.0] {
            let mut ctl = RedundancyController::new(rs8(), 0.10, 0.9).unwrap();
            ctl.on_feedback(0.10, burst);
            let d = ctl.decide(0.6);
            assert!(d.parity >= 1, "burst {burst}: parity {}", d.parity);
        }
        // Heavy clustered loss with a hot damage forecast buys depth.
        let mut ctl = RedundancyController::new(rs8(), 0.25, 0.9).unwrap();
        ctl.on_feedback(0.25, 3.0);
        assert!(ctl.decide(0.9).parity >= 2);
    }

    #[test]
    fn damage_forecast_scales_protection() {
        let mut ctl = RedundancyController::new(rs8(), 0.10, 0.9).unwrap();
        ctl.on_feedback(0.10, 2.0);
        let hot = ctl.decide(0.9);
        let cold = ctl.decide(0.02);
        assert!(hot.parity >= cold.parity);
    }

    #[test]
    fn plr_scales_protection() {
        let mut light = RedundancyController::new(rs8(), 0.02, 0.9).unwrap();
        light.on_feedback(0.02, 1.2);
        let mut heavy = RedundancyController::new(rs8(), 0.25, 0.9).unwrap();
        heavy.on_feedback(0.25, 1.2);
        assert!(heavy.decide(0.9).parity >= light.decide(0.9).parity);
    }

    #[test]
    fn clean_channel_turns_fec_off_and_relaxes_nothing_it_needs() {
        let mut ctl = RedundancyController::new(rs8(), 0.10, 0.9).unwrap();
        ctl.on_feedback(0.0, 1.0);
        let d = ctl.decide(0.8);
        assert_eq!(d.parity, 0, "no loss, no parity");
        // With damage moot, energy decides: the cheapest (highest) th.
        assert_eq!(d.intra_th, 0.99);
    }

    #[test]
    fn no_byte_headroom_means_no_parity() {
        let mut cfg = rs8();
        cfg.budget_ratio = 1.0;
        let mut ctl = RedundancyController::new(cfg, 0.2, 0.9).unwrap();
        ctl.on_feedback(0.2, 4.0);
        // Even under heavy clustered loss: the grid cannot drop Intra_Th
        // far enough below base to pay for a single parity shard.
        assert_eq!(ctl.decide(0.9).parity, 0);
    }

    #[test]
    fn every_decision_respects_the_wire_budget() {
        for (plr, burst, damage, ratio) in [
            (0.02, 1.0, 0.1, 1.2),
            (0.10, 1.5, 0.6, 1.25),
            (0.25, 4.0, 0.9, 1.2),
            (0.40, 6.0, 1.0, 1.5),
        ] {
            let mut cfg = rs8();
            cfg.budget_ratio = ratio;
            let mut ctl = RedundancyController::new(cfg, plr, 0.9).unwrap();
            ctl.on_feedback(plr, burst);
            let d = ctl.decide(damage);
            let wire = (0.6 + 0.6 * d.intra_th) * (1.0 + d.parity as f64 / 8.0);
            let budget = ratio * (0.6 + 0.6 * 0.9);
            assert!(
                wire <= budget + 1e-9,
                "plr {plr} burst {burst}: wire {wire} over budget {budget}"
            );
        }
    }

    #[test]
    fn parity_is_paid_for_by_lowering_intra_th() {
        // With headroom for parity only below base Intra_Th, choosing
        // protection must come with a lower operating point.
        let mut cfg = rs8();
        cfg.budget_ratio = 1.2; // r=2 at k=8 needs th ≤ 0.82 on the grid
        let mut ctl = RedundancyController::new(cfg, 0.25, 0.9).unwrap();
        ctl.on_feedback(0.25, 1.2);
        let d = ctl.decide(0.9);
        if d.parity >= 2 {
            assert!(d.intra_th <= 0.85, "th {} with r {}", d.intra_th, d.parity);
        }
        assert!(d.parity >= 1, "heavy loss must buy some protection");
    }

    #[test]
    fn xor_family_never_exceeds_its_single_parity() {
        let cfg = RedundancyConfig {
            budget_ratio: 2.0,
            ..RedundancyConfig::new(FecSpec::Xor { k: 4 })
        };
        let mut ctl = RedundancyController::new(cfg, 0.2, 0.9).unwrap();
        ctl.on_feedback(0.2, 3.0);
        assert!(ctl.decide(0.9).parity <= 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = RedundancyConfig::new(FecSpec::Rs { k: 8, r: 2 });
        cfg.gop = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = RedundancyConfig::new(FecSpec::Rs { k: 8, r: 2 });
        cfg.budget_ratio = 0.5;
        assert!(cfg.validate().is_err());
        let cfg = RedundancyConfig::new(FecSpec::Rs { k: 254, r: 1 });
        assert!(cfg.validate().is_err());
        assert!(RedundancyConfig::new(FecSpec::Xor { k: 0 })
            .validate()
            .is_err());
    }
}
