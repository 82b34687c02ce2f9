//! Raft safety under seeded fault schedules, with proposals every tick.
//!
//! Appends are pipelined: the leader sends an entry to every follower when
//! it is proposed and moves each follower's `next_index` past it before any
//! ack, so a lost append is repaired only by a rejection and the leader's
//! back-off. Each schedule drops messages, partitions and heals the cluster
//! once and crashes the leader once, and after every tick checks:
//!
//! * election safety: at most one leader per term, over the whole run;
//! * committed prefixes agree: every node's log up to its commit index, and
//!   every node's drained committed stream, is a prefix of one chain;
//! * leader completeness: a leader whose term is above the term in which an
//!   entry was seen committed holds that entry.

use fabric_raft::{Cluster, NodeId, Role};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Ticks of proposals and faults per schedule.
const TICKS: u64 = 300;
/// Healed, lossless ticks after them.
const HEAL: u64 = 200;

/// One seeded fault schedule, run at every cluster size and drop rate.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    seed: u64,
    /// Which nodes the partition cuts off (bit `i` is node `i + 1`).
    side_mask: u32,
    partition_at: u64,
    partition_for: u64,
    crash_leader_at: u64,
}

/// What the checks saw over one schedule.
#[derive(Debug, Default)]
struct Checked {
    /// Every entry some node has committed, in index order: its term, its
    /// command and the lowest term of a node seen holding it committed (at
    /// least the term of the leader that committed it).
    chain: Vec<(u64, Arc<[u8]>, u64)>,
    /// The leader of each term seen so far.
    leaders: BTreeMap<u64, NodeId>,
}

impl Checked {
    fn after_tick(&mut self, c: &Cluster, tick: u64) {
        for id in c.node_ids() {
            let node = c.node(id);
            if node.role() == Role::Leader {
                let leader = *self.leaders.entry(node.term()).or_insert(id);
                assert_eq!(
                    leader,
                    id,
                    "tick {tick}: two leaders in term {}",
                    node.term()
                );
            }
            let committed = &node.log()[..node.commit_index() as usize];
            for (i, entry) in committed.iter().enumerate() {
                match self.chain.get_mut(i) {
                    Some((term, command, seen_in)) => {
                        assert!(
                            *term == entry.term && *command == entry.command,
                            "tick {tick}: node {id} committed a different entry {}",
                            entry.index
                        );
                        *seen_in = (*seen_in).min(node.term());
                    }
                    None => {
                        self.chain
                            .push((entry.term, Arc::clone(&entry.command), node.term()));
                    }
                }
            }
            let drained = c.committed_since(id, 0);
            assert!(drained.len() <= self.chain.len());
            for (i, command) in drained.iter().enumerate() {
                assert_eq!(
                    command,
                    &self.chain[i].1,
                    "tick {tick}: node {id} drained a different entry {}",
                    i + 1
                );
            }
        }
        for id in c.node_ids() {
            let node = c.node(id);
            if node.role() != Role::Leader {
                continue;
            }
            for (i, (term, command, seen_in)) in self.chain.iter().enumerate() {
                if *seen_in >= node.term() {
                    continue;
                }
                let held = node.log().get(i);
                assert!(
                    held.is_some_and(|e| e.term == *term && e.command == *command),
                    "tick {tick}: leader {id} of term {} lacks committed entry {}",
                    node.term(),
                    i + 1
                );
            }
        }
    }
}

/// Runs `schedule` on `n` nodes at `drop_rate`, checking after every tick;
/// returns the number of rejected appends the leader repaired.
fn run(n: usize, drop_rate: f64, s: Schedule) -> u64 {
    let mut c = Cluster::new(n, s.seed);
    c.set_drop_rate(drop_rate);
    let mut checked = Checked::default();
    let mut crashed = false;
    // `TICKS` of faults and proposals, then `HEAL` healed and lossless ticks
    // in which the survivors elect a leader. The crash waits for a leader,
    // so it may fall into the healed ticks.
    for tick in 0..TICKS + HEAL {
        if tick == s.partition_at {
            let mask = 1 + s.side_mask % ((1 << n) - 2);
            let (side, rest): (Vec<NodeId>, Vec<NodeId>) = c
                .node_ids()
                .into_iter()
                .partition(|id| (mask >> (id - 1)) & 1 == 1);
            c.partition(&side, &rest);
        }
        if tick == s.partition_at + s.partition_for || tick == TICKS {
            c.heal();
        }
        if tick == TICKS {
            c.set_drop_rate(0.0);
        }
        if !crashed && tick >= s.crash_leader_at {
            if let Some(leader) = c.leader() {
                c.crash(leader);
                crashed = true;
            }
        }
        if let Some(leader) = c.leader().filter(|_| tick < TICKS) {
            let _ = c.propose(leader, tick.to_be_bytes().to_vec());
        }
        c.tick();
        checked.after_tick(&c, tick);
    }
    assert!(crashed, "the schedule crashed a leader");

    let leader = c.leader().expect("survivors elect a leader");
    let last = c.propose(leader, b"last".to_vec()).expect("leads");
    for tick in TICKS + HEAL..TICKS + HEAL + 3 {
        c.tick();
        checked.after_tick(&c, tick);
    }
    for id in c.node_ids() {
        assert_eq!(c.node(id).commit_index(), last, "node {id} caught up");
    }
    c.stats().append_repairs
}

// The vendored proptest seeds its generator from the test's name, so these
// 12 schedules (72 runs) are the same on every run: about two seconds in a
// debug build.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipelined_appends_stay_safe_under_loss_partition_and_crash(
        seed in 0u64..1_000_000,
        side_mask in 0u32..1_000,
        partition_at in 10u64..150,
        partition_for in 10u64..100,
        crash_leader_at in 20u64..250,
    ) {
        let schedule = Schedule { seed, side_mask, partition_at, partition_for, crash_leader_at };
        let mut repairs = 0;
        for n in [3, 5] {
            for drop_rate in [0.0, 0.1, 0.3] {
                repairs += run(n, drop_rate, schedule);
            }
        }
        // Lost appends are repaired, so the checks above saw the path.
        prop_assert!(repairs > 0, "no append was repaired ({schedule:?})");
    }
}
