//! Workload shape: arrival rate, operation mix, contention, and fault
//! injection knobs.

/// The kinds of client operations the generator blends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read-modify-write (`add`) on a Zipf-sampled private key: the
    /// contention workload. Carries a read version, so concurrent
    /// writers to the same hot key produce MVCC aborts; on a
    /// BlockToLive-expired cold key the read fails at endorsement
    /// (expiry churn).
    PdcAdd,
    /// Blind `write` on a Zipf-sampled private key: refreshes hot keys
    /// (keeping them alive across the BTL horizon) and bumps versions
    /// under in-flight readers.
    PdcWrite,
    /// Public-state `put` on a per-client key: the uncontended baseline
    /// lane.
    Public,
    /// Public-state `put` on a key carrying a committed key-level
    /// (state-based) endorsement policy, so validation exercises the
    /// SBE path.
    Sbe,
}

/// Integer weights for the operation mix (0 disables a lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Weight of [`OpKind::PdcAdd`].
    pub pdc_add: u32,
    /// Weight of [`OpKind::PdcWrite`].
    pub pdc_write: u32,
    /// Weight of [`OpKind::Public`].
    pub public: u32,
    /// Weight of [`OpKind::Sbe`].
    pub sbe: u32,
}

impl OpMix {
    /// Sum of all lane weights.
    pub fn total(&self) -> u32 {
        self.pdc_add + self.pdc_write + self.public + self.sbe
    }

    /// Maps a draw in `0..total()` onto a lane.
    pub fn pick(&self, draw: u32) -> OpKind {
        debug_assert!(self.total() > 0, "op mix must have at least one lane");
        let mut edge = self.pdc_add;
        if draw < edge {
            return OpKind::PdcAdd;
        }
        edge += self.pdc_write;
        if draw < edge {
            return OpKind::PdcWrite;
        }
        edge += self.public;
        if draw < edge {
            return OpKind::Public;
        }
        OpKind::Sbe
    }

    /// The paper-experiment default: PDC-heavy with public and SBE side
    /// traffic.
    pub fn pdc_heavy() -> Self {
        OpMix {
            pdc_add: 40,
            pdc_write: 30,
            public: 20,
            sbe: 10,
        }
    }

    /// Pure public-state traffic (no private data, no contention lane).
    pub fn public_only() -> Self {
        OpMix {
            pdc_add: 0,
            pdc_write: 0,
            public: 100,
            sbe: 0,
        }
    }
}

/// Full configuration of one load point.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed: schedule, key draws, identity draws, and fault
    /// injection all derive from it.
    pub seed: u64,
    /// Extra peers added beyond the per-org anchors, alternating orgs.
    pub extra_peers: usize,
    /// Size of the virtual client-identity space ops draw from.
    pub virtual_clients: u64,
    /// Number of distinct private keys (the Zipf domain).
    pub key_space: usize,
    /// Zipf skew over the key space; 0 = uniform.
    pub zipf_skew: f64,
    /// Operation mix weights.
    pub mix: OpMix,
    /// Mean arrivals per logical tick (open loop: arrivals never wait
    /// for completions).
    pub offered_rate: f64,
    /// Ticks of offered load before the drain phase.
    pub ticks: u64,
    /// Scorer window length in ticks.
    pub window_ticks: u64,
    /// Orderer block-cut size; capacity is one block per tick.
    pub block_txs: usize,
    /// BlockToLive for the private collection (0 = never expire).
    pub block_to_live: u64,
    /// Probability an honest op loses its second endorsement (submitted
    /// anyway; fails endorsement policy at validation).
    pub endorser_failure_prob: f64,
    /// Fraction of arrivals replaced by a colluding non-member
    /// endorsement attack from the attack lab.
    pub adversarial_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 1,
            extra_peers: 0,
            virtual_clients: 1_000_000,
            key_space: 128,
            zipf_skew: 0.99,
            mix: OpMix::pdc_heavy(),
            offered_rate: 4.0,
            ticks: 200,
            window_ticks: 50,
            block_txs: 8,
            block_to_live: 0,
            endorser_failure_prob: 0.0,
            adversarial_fraction: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_pick_partitions_the_weight_range() {
        let mix = OpMix {
            pdc_add: 2,
            pdc_write: 3,
            public: 4,
            sbe: 1,
        };
        let kinds: Vec<OpKind> = (0..mix.total()).map(|d| mix.pick(d)).collect();
        assert_eq!(kinds.iter().filter(|k| **k == OpKind::PdcAdd).count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == OpKind::PdcWrite).count(), 3);
        assert_eq!(kinds.iter().filter(|k| **k == OpKind::Public).count(), 4);
        assert_eq!(kinds.iter().filter(|k| **k == OpKind::Sbe).count(), 1);
    }

    #[test]
    fn disabled_lanes_are_never_picked() {
        let mix = OpMix::public_only();
        for d in 0..mix.total() {
            assert_eq!(mix.pick(d), OpKind::Public);
        }
    }
}
