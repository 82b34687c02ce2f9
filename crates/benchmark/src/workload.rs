//! The five named workloads and their seeded operation streams.
//!
//! A workload is a network shape, a block size, an offered rate and an
//! operation mix. Every random draw (virtual client, key, lane) comes
//! from one [`StdRng`] seeded by the caller, so the program under test
//! only ever sees generated inputs and a seed names one exact stream.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Keys of the private collection that set-up seeds with a value.
pub const SEEDED_KEYS: usize = 128;
/// Virtual client identities operations are drawn from.
const VIRTUAL_CLIENTS: u64 = 1024;

/// What an operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Blind write of a private value (write-only rwset).
    PdcWrite,
    /// Read-modify-write of a private integer (conflicts under MVCC).
    PdcAdd,
    /// Blind write of a public key.
    PublicPut,
    /// Write of a public key that carries a key-level endorsement policy.
    SbePut,
    /// Query-only private read: one endorsement, never ordered.
    PdcQuery,
    /// Private read submitted as a transaction (ordered and validated).
    PdcReadTx,
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Position in the stream, from 0.
    pub seq: u64,
    pub kind: OpKind,
    /// Virtual client that issues it.
    pub vid: u64,
    /// Index of the key it touches, within the key space of its kind.
    pub key: u64,
}

/// The operation mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Private writes, each to a key of its own: nothing conflicts.
    DistinctWrites,
    /// 40 % add, 30 % write, 20 % public put, 10 % SBE put; Zipf 0.99
    /// over the seeded keys, so hot-key adds conflict.
    Contended,
    /// Private reads, uniform over the seeded keys: four query-only, then
    /// one read transaction.
    DefendedReads,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Channel organizations; each starts with one peer.
    pub orgs: &'static [&'static str],
    /// Organizations of the peers added after the channel is up.
    pub extra_peers: &'static [&'static str],
    pub block_txs: usize,
    /// Operations that become due each offer tick.
    pub offered_per_tick: f64,
    /// Offer ticks of one round.
    pub ticks: u64,
    /// All of the paper's defenses on (otherwise the original framework).
    pub hardened: bool,
    /// `Telemetry::new()` and a `Monitor` attached to the network.
    pub observed: bool,
    pub mix: Mix,
}

const MEMBERS: &[&str] = &["Org1MSP", "Org2MSP"];
const WITH_NON_MEMBER: &[&str] = &["Org1MSP", "Org2MSP", "Org3MSP"];

/// Round sizes give about one second of offered load per round on the
/// 2-core reference host; a run repeats whole rounds.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "wide_fanout",
        why: "8 peers commit every 500-tx block, so peer commit and gossip carry the run; concurrent commit or cheaper fan-out must show here",
        orgs: MEMBERS,
        extra_peers: &["Org1MSP", "Org2MSP", "Org1MSP", "Org2MSP", "Org1MSP", "Org2MSP"],
        block_txs: 500,
        offered_per_tick: 500.0,
        ticks: 40,
        hardened: false,
        observed: false,
        mix: Mix::DistinctWrites,
    },
    Spec {
        name: "narrow_pipeline",
        why: "same op stream on 2 peers, so client, endorse and orderer carry the run; a fan-out change must not move it",
        orgs: MEMBERS,
        extra_peers: &[],
        block_txs: 500,
        offered_per_tick: 500.0,
        ticks: 96,
        hardened: false,
        observed: false,
        mix: Mix::DistinctWrites,
    },
    Spec {
        name: "mixed_small_blocks",
        why: "10-tx blocks with telemetry and monitor on: per-block fixed costs dominate and hot-key adds make goodput differ from throughput",
        orgs: WITH_NON_MEMBER,
        extra_peers: MEMBERS,
        block_txs: 10,
        offered_per_tick: 8.0,
        ticks: 2000,
        hardened: true,
        observed: true,
        mix: Mix::Contended,
    },
    Spec {
        name: "read_defended",
        why: "private reads under Features 1 and 2: four ops in five never reach the orderer, so the execution side dominates and commit does little",
        orgs: WITH_NON_MEMBER,
        extra_peers: &[],
        block_txs: 100,
        offered_per_tick: 100.0,
        ticks: 1000,
        hardened: true,
        observed: false,
        mix: Mix::DefendedReads,
    },
    Spec {
        name: "mixed_overload",
        why: "the contended mix offered at 1.5x block-cut capacity: the only workload past the knee, where backlog, staleness and latency grow",
        orgs: WITH_NON_MEMBER,
        extra_peers: MEMBERS,
        block_txs: 10,
        offered_per_tick: 15.0,
        ticks: 800,
        hardened: true,
        observed: true,
        mix: Mix::Contended,
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Offer ticks of one round; `smoke` cuts the round to 2 %.
    pub fn offer_ticks(&self, smoke: bool) -> u64 {
        if smoke {
            (self.ticks / 50).max(2)
        } else {
            self.ticks
        }
    }

    /// Operations `ticks` offer ticks make due.
    pub fn ops_in(&self, ticks: u64) -> u64 {
        (self.offered_per_tick * ticks as f64).floor() as u64
    }

    /// Operations one round offers.
    pub fn ops(&self, smoke: bool) -> u64 {
        self.ops_in(self.offer_ticks(smoke))
    }
}

/// Zipf-distributed ranks over `0..n` by inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, skew: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(skew);
            cdf.push(acc);
        }
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        // 53 uniform mantissa bits, as `Rng::gen_bool` draws them.
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf
            .partition_point(|p| *p < unit)
            .min(self.cdf.len() - 1) as u64
    }
}

/// The seeded operation stream of one round.
pub struct OpGen {
    rng: StdRng,
    zipf: Zipf,
    mix: Mix,
    next_seq: u64,
}

impl OpGen {
    pub fn new(mix: Mix, seed: u64) -> Self {
        OpGen {
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(SEEDED_KEYS, 0.99),
            mix,
            next_seq: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let seq = self.next_seq;
        self.next_seq += 1;
        let vid = self.rng.gen_range(0..VIRTUAL_CLIENTS);
        let (kind, key) = match self.mix {
            Mix::DistinctWrites => (OpKind::PdcWrite, seq),
            Mix::Contended => {
                let lane = self.rng.gen_range(0..100u32);
                let key = self.zipf.sample(&mut self.rng);
                let kind = match lane {
                    0..=39 => OpKind::PdcAdd,
                    40..=69 => OpKind::PdcWrite,
                    70..=89 => OpKind::PublicPut,
                    _ => OpKind::SbePut,
                };
                (kind, key)
            }
            Mix::DefendedReads => {
                let key = self.rng.gen_range(0..SEEDED_KEYS as u64);
                // Every fifth read is a transaction, by position and not
                // by draw: what reaches the orderer each tick, and with it
                // every tick-denominated result, is then the same for
                // every seed.
                let kind = if seq % 5 == 4 {
                    OpKind::PdcReadTx
                } else {
                    OpKind::PdcQuery
                };
                (kind, key)
            }
        };
        Op {
            seq,
            kind,
            vid,
            key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_mix_shares_hold() {
        let draw = |seed| {
            let mut g = OpGen::new(Mix::Contended, seed);
            (0..20_000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        let share = |kind| a.iter().filter(|o| o.kind == kind).count() as f64 / a.len() as f64;
        assert!((share(OpKind::PdcAdd) - 0.4).abs() < 0.02);
        assert!((share(OpKind::SbePut) - 0.1).abs() < 0.02);
        let hottest = a.iter().filter(|o| o.key == 0).count() as f64 / a.len() as f64;
        assert!(
            hottest > 0.15 && hottest < 0.22,
            "Zipf 0.99 head: {hottest}"
        );
        assert!(a.iter().all(|o| o.key < SEEDED_KEYS as u64));
    }

    #[test]
    fn reads_are_four_fifths_queries() {
        let mut g = OpGen::new(Mix::DefendedReads, 1);
        let ops: Vec<Op> = (0..10_000).map(|_| g.next_op()).collect();
        let queries = ops.iter().filter(|o| o.kind == OpKind::PdcQuery).count();
        assert_eq!(queries, 8_000);
    }
}
