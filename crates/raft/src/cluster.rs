//! Deterministic in-memory Raft cluster simulation.

use crate::message::{Envelope, Message, NodeId};
use crate::node::{NotLeader, RaftNode, Role};
use fabric_telemetry::{SpanGuard, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// Point-in-time transport and consensus statistics for a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Messages delivered to a live node since cluster creation.
    pub messages_delivered: u64,
    /// Messages lost to partitions, random drops, or crashed recipients.
    pub messages_dropped: u64,
    /// Appends a follower rejected and the leader answered by backing off
    /// its `next_index` and resending: how lost pipelined appends are
    /// repaired.
    pub append_repairs: u64,
    /// The highest term any live node has observed.
    pub term: u64,
    /// Live node count.
    pub live_nodes: usize,
}

/// An in-memory cluster: nodes plus a message queue with fault injection.
///
/// Message delivery is deterministic given the seed; faults are injected
/// with [`Cluster::set_drop_rate`] and [`Cluster::partition`].
#[derive(Debug)]
pub struct Cluster {
    nodes: BTreeMap<NodeId, RaftNode>,
    /// `raft{id}` per node, the node name its `raft.replicate` spans carry.
    node_names: BTreeMap<NodeId, Arc<str>>,
    queue: VecDeque<Envelope>,
    committed: BTreeMap<NodeId, Vec<Arc<[u8]>>>,
    /// Links currently severed, as ordered pairs `(from, to)`.
    severed: HashSet<(NodeId, NodeId)>,
    drop_rate: f64,
    rng: StdRng,
    messages_delivered: u64,
    messages_dropped: u64,
    append_repairs: u64,
    /// Optional tracing pipeline; `raft.replicate` spans measure propose →
    /// first-commit latency per log entry.
    telemetry: Option<Telemetry>,
    /// Open replicate spans keyed by log index, finished (dropped) once
    /// the index first surfaces as committed at any node.
    inflight: Vec<(u64, SpanGuard)>,
    /// Highest log index any node has surfaced as committed.
    max_committed_index: u64,
}

impl Cluster {
    /// Builds a cluster of `n` nodes with IDs `1..=n`.
    pub fn new(n: usize, seed: u64) -> Self {
        let ids: Vec<NodeId> = (1..=n as NodeId).collect();
        let mut nodes = BTreeMap::new();
        for &id in &ids {
            let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
            nodes.insert(id, RaftNode::new(id, peers, seed));
        }
        Cluster {
            nodes,
            node_names: ids
                .iter()
                .map(|&id| (id, Arc::from(format!("raft{id}"))))
                .collect(),
            queue: VecDeque::new(),
            committed: ids.iter().map(|&id| (id, Vec::new())).collect(),
            severed: HashSet::new(),
            drop_rate: 0.0,
            rng: StdRng::seed_from_u64(seed),
            messages_delivered: 0,
            messages_dropped: 0,
            append_repairs: 0,
            telemetry: None,
            inflight: Vec::new(),
            max_committed_index: 0,
        }
    }

    /// Attaches a telemetry pipeline; each successful proposal then opens
    /// a `raft.replicate` span that closes when the entry first commits.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Transport and consensus statistics since cluster creation.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            messages_delivered: self.messages_delivered,
            messages_dropped: self.messages_dropped,
            append_repairs: self.append_repairs,
            term: self.nodes.values().map(RaftNode::term).max().unwrap_or(0),
            live_nodes: self.nodes.len(),
        }
    }

    /// IDs of all nodes.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Sets a uniform message drop probability.
    pub fn set_drop_rate(&mut self, rate: f64) {
        self.drop_rate = rate;
    }

    /// Severs all links between `group_a` and `group_b` (both directions).
    pub fn partition(&mut self, group_a: &[NodeId], group_b: &[NodeId]) {
        for &a in group_a {
            for &b in group_b {
                self.severed.insert((a, b));
                self.severed.insert((b, a));
            }
        }
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        self.severed.clear();
    }

    /// Runs one tick on every node, then delivers every queued message:
    /// those sent since the last tick (by proposals, or as replies during
    /// its delivery) and those this tick's timers sent. Replies sent
    /// during this delivery wait for the next tick, so a message chain
    /// advances one hop per tick.
    pub fn tick(&mut self) {
        let mut outbound = Vec::new();
        for node in self.nodes.values_mut() {
            outbound.extend(node.tick());
        }
        self.enqueue(outbound);
        self.deliver_all();
        self.drain_committed();
    }

    /// Runs `n` ticks.
    pub fn run_ticks(&mut self, n: usize) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Ticks until some node is leader; returns its ID or `None` after
    /// `max_ticks`.
    pub fn run_until_leader(&mut self, max_ticks: usize) -> Option<NodeId> {
        for _ in 0..max_ticks {
            self.tick();
            if let Some(l) = self.leader() {
                return Some(l);
            }
        }
        None
    }

    /// The current leader with the highest term, if any.
    pub fn leader(&self) -> Option<NodeId> {
        self.nodes
            .values()
            .filter(|n| n.role() == Role::Leader)
            .max_by_key(|n| n.term())
            .map(|n| n.id())
    }

    /// Proposes a command at `node` and queues its appends to every
    /// follower; the next tick delivers them.
    ///
    /// # Errors
    ///
    /// [`NotLeader`] when `node` is not the leader.
    pub fn propose(
        &mut self,
        node: NodeId,
        command: impl Into<Arc<[u8]>>,
    ) -> Result<u64, NotLeader> {
        self.propose_with_trace(node, command, &[])
    }

    /// Proposes a command at `node` as [`Cluster::propose`] does, opening
    /// one `raft.replicate` span per trace id (or a single untraced span
    /// when `traces` is empty) that closes when the entry first surfaces
    /// as committed. The caller (the ordering service) passes the trace id
    /// of each transaction the command carries, so replication latency
    /// lands in every transaction's cross-node timeline.
    ///
    /// # Errors
    ///
    /// [`NotLeader`] when `node` is not the leader.
    pub fn propose_with_trace(
        &mut self,
        node: NodeId,
        command: impl Into<Arc<[u8]>>,
        traces: &[u64],
    ) -> Result<u64, NotLeader> {
        let n = self.nodes.get_mut(&node).expect("node exists");
        let (index, appends) = n.propose(command)?;
        self.enqueue(appends);
        if let Some(t) = &self.telemetry {
            let open = |trace_id: u64| {
                let mut span = t.span("raft.replicate");
                span.node(&self.node_names[&node]);
                span.field("index", index);
                span.trace(trace_id);
                span
            };
            if traces.is_empty() {
                self.inflight.push((index, open(0)));
            } else {
                for &trace_id in traces {
                    self.inflight.push((index, open(trace_id)));
                }
            }
        }
        Ok(index)
    }

    /// Commands committed at `node` so far, in order. Each command is a
    /// refcount bump on the bytes allocated at `propose` time, not a copy.
    pub fn committed(&self, node: NodeId) -> Vec<Arc<[u8]>> {
        self.committed.get(&node).cloned().unwrap_or_default()
    }

    /// Number of commands committed at `node` so far.
    pub fn committed_len(&self, node: NodeId) -> usize {
        self.committed.get(&node).map_or(0, Vec::len)
    }

    /// Commands committed at `node` from offset `from` onward, borrowed —
    /// so per-tick pollers do O(new entries) work instead of cloning the
    /// whole history. An out-of-range `from` (e.g. a cursor carried over to
    /// a node that has not caught up yet) yields an empty slice.
    pub fn committed_since(&self, node: NodeId, from: usize) -> &[Arc<[u8]>] {
        self.committed
            .get(&node)
            .map_or(&[][..], |log| &log[from.min(log.len())..])
    }

    /// Direct access to a node (tests and invariants).
    pub fn node(&self, id: NodeId) -> &RaftNode {
        &self.nodes[&id]
    }

    /// Crashes a node: removes it entirely (messages to it are dropped).
    pub fn crash(&mut self, id: NodeId) {
        self.nodes.remove(&id);
    }

    /// Compacts a node's log through its applied index, storing `data` as
    /// the application snapshot. Returns the discarded entry count.
    pub fn take_snapshot(&mut self, id: NodeId, data: Vec<u8>) -> usize {
        self.nodes
            .get_mut(&id)
            .expect("node exists")
            .take_snapshot(data)
    }

    /// Drains a leader-installed snapshot at `id`, if one arrived.
    pub fn take_installed_snapshot(&mut self, id: NodeId) -> Option<crate::message::Snapshot> {
        self.nodes
            .get_mut(&id)
            .and_then(|n| n.take_installed_snapshot())
    }

    fn enqueue(&mut self, envelopes: Vec<Envelope>) {
        for env in envelopes {
            self.queue.push_back(env);
        }
    }

    fn deliver_all(&mut self) {
        // Deliver everything queued at the start of this round; responses
        // generated during delivery go to the next round to avoid
        // unbounded cascades within one tick.
        let mut batch: Vec<Envelope> = self.queue.drain(..).collect();
        let mut next = Vec::new();
        for env in batch.drain(..) {
            if self.severed.contains(&(env.from, env.to)) {
                self.messages_dropped += 1;
                continue;
            }
            if self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate) {
                self.messages_dropped += 1;
                continue;
            }
            if let Some(node) = self.nodes.get_mut(&env.to) {
                self.messages_delivered += 1;
                let rejected = matches!(
                    env.message,
                    Message::AppendEntriesResponse { success: false, .. }
                );
                let replies = node.receive(env.from, env.message);
                if rejected && !replies.is_empty() {
                    self.append_repairs += 1;
                }
                next.extend(replies);
            } else {
                self.messages_dropped += 1;
            }
        }
        self.enqueue(next);
    }

    fn drain_committed(&mut self) {
        for (id, node) in &mut self.nodes {
            let newly = node.take_committed();
            let log = self.committed.entry(*id).or_default();
            for entry in newly {
                self.max_committed_index = self.max_committed_index.max(entry.index);
                log.push(entry.command);
            }
        }
        if !self.inflight.is_empty() {
            // Dropping a guard records the span: propose → first commit.
            let max = self.max_committed_index;
            self.inflight.retain(|(index, _)| *index > max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Committed commands at `node` as owned byte vectors, for comparison
    /// against `Vec<u8>` literals.
    fn bytes(c: &Cluster, node: NodeId) -> Vec<Vec<u8>> {
        c.committed(node).iter().map(|cmd| cmd.to_vec()).collect()
    }

    #[test]
    fn three_node_cluster_elects_and_replicates() {
        let mut c = Cluster::new(3, 1);
        let leader = c.run_until_leader(500).expect("leader elected");
        for i in 0..5u8 {
            c.propose(leader, vec![i]).unwrap();
        }
        c.run_ticks(30);
        for id in c.node_ids() {
            assert_eq!(
                bytes(&c, id),
                vec![vec![0], vec![1], vec![2], vec![3], vec![4]],
                "node {id}"
            );
        }
    }

    #[test]
    fn an_entry_commits_at_the_leader_after_two_ticks_and_everywhere_after_three() {
        // Proposed anywhere in the heartbeat cycle, an entry moves one hop
        // per tick: append, ack, commit index. A heartbeat-paced leader
        // would hold it until its next heartbeat, and its followers would
        // learn the commit one heartbeat later still.
        for phase in 0..crate::node::HEARTBEAT_INTERVAL as usize {
            let mut c = Cluster::new(3, 11);
            let leader = c.run_until_leader(500).expect("leader elected");
            c.run_ticks(10 + phase);
            let followers: Vec<NodeId> =
                c.node_ids().into_iter().filter(|&n| n != leader).collect();
            let delivered = c.stats().messages_delivered;
            let index = c.propose(leader, b"e".to_vec()).unwrap();
            // Sent, not delivered: nothing arrives in the tick it was sent.
            assert_eq!(c.stats().messages_delivered, delivered);
            for &f in &followers {
                assert!(c.node(f).log_len() < index, "phase {phase}");
            }

            c.tick(); // t+1: the appends arrive; the acks wait a tick.
            for &f in &followers {
                assert_eq!(c.node(f).log_len(), index, "phase {phase}");
            }
            assert!(c.node(leader).commit_index() < index, "phase {phase}");

            c.tick(); // t+2: the acks arrive and the leader commits.
            assert_eq!(c.committed_len(leader), index as usize, "phase {phase}");
            for &f in &followers {
                assert!(c.node(f).commit_index() < index, "phase {phase}");
            }

            c.tick(); // t+3: the new commit index arrives.
            for &f in &followers {
                assert_eq!(c.committed_len(f), index as usize, "phase {phase}");
            }
        }
    }

    #[test]
    fn committed_since_slices_from_cursor() {
        let mut c = Cluster::new(3, 1);
        let leader = c.run_until_leader(500).expect("leader elected");
        for i in 0..4u8 {
            c.propose(leader, vec![i]).unwrap();
        }
        c.run_ticks(30);
        assert_eq!(c.committed_len(leader), 4);
        assert_eq!(c.committed_since(leader, 0), c.committed(leader));
        assert_eq!(c.committed_since(leader, 3), &[Arc::from(&[3u8][..])][..]);
        assert!(c.committed_since(leader, 4).is_empty());
        // Out-of-range cursors (a cursor carried to a node that has not
        // caught up) and unknown nodes are empty, not panics.
        assert!(c.committed_since(leader, 99).is_empty());
        assert_eq!(c.committed_len(99), 0);
        assert!(c.committed_since(99, 0).is_empty());
    }

    #[test]
    fn leader_crash_triggers_new_election() {
        let mut c = Cluster::new(5, 2);
        let leader = c.run_until_leader(500).unwrap();
        c.propose(leader, b"before".to_vec()).unwrap();
        c.run_ticks(30);
        c.crash(leader);
        let new_leader = c.run_until_leader(500).expect("new leader");
        assert_ne!(new_leader, leader);
        c.propose(new_leader, b"after".to_vec()).unwrap();
        c.run_ticks(30);
        for id in c.node_ids() {
            assert_eq!(
                bytes(&c, id),
                vec![b"before".to_vec(), b"after".to_vec()],
                "node {id}"
            );
        }
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let mut c = Cluster::new(5, 3);
        let leader = c.run_until_leader(500).unwrap();
        // Cut the leader plus one node off from the other three.
        let others: Vec<NodeId> = c.node_ids().into_iter().filter(|&n| n != leader).collect();
        let follower_with_leader = others[0];
        let majority: Vec<NodeId> = others[1..].to_vec();
        c.partition(&[leader, follower_with_leader], &majority);
        // Old leader proposes into the minority side.
        let _ = c.propose(leader, b"lost".to_vec());
        c.run_ticks(100);
        // The majority side elected a new leader and can commit.
        let new_leader = c.leader().expect("majority side has a leader");
        assert!(majority.contains(&new_leader), "new leader from majority");
        c.propose(new_leader, b"won".to_vec()).unwrap();
        c.run_ticks(50);
        for &id in &majority {
            assert_eq!(bytes(&c, id), vec![b"won".to_vec()], "node {id}");
        }
        // Minority never committed the lost entry.
        assert!(c.committed(leader).is_empty());

        // After healing, the minority catches up and discards "lost".
        c.heal();
        c.run_ticks(100);
        for id in c.node_ids() {
            assert_eq!(bytes(&c, id), vec![b"won".to_vec()], "node {id}");
        }
    }

    #[test]
    fn survives_heavy_message_loss() {
        let mut c = Cluster::new(3, 4);
        c.set_drop_rate(0.3);
        let leader = c.run_until_leader(5000).expect("leader despite loss");
        let _ = c.propose(leader, b"x".to_vec());
        c.run_ticks(2000);
        // At least a majority eventually commits; with retransmission via
        // heartbeats all live nodes converge.
        let committed_count = c
            .node_ids()
            .iter()
            .filter(|&&id| bytes(&c, id) == vec![b"x".to_vec()])
            .count();
        assert!(committed_count >= 2, "only {committed_count} committed");
    }

    #[test]
    fn lagging_follower_catches_up_via_snapshot() {
        // Pre-vote keeps the cut-off follower from inflating its term, so
        // the leader survives the heal and the catch-up path is
        // deterministically InstallSnapshot (not re-election plus ordinary
        // replication from an uncompacted log).
        let mut c = Cluster::new(3, 6);
        let leader = c.run_until_leader(500).unwrap();
        // Cut one follower off.
        let lagging = c.node_ids().into_iter().find(|&n| n != leader).unwrap();
        let others: Vec<NodeId> = c.node_ids().into_iter().filter(|&n| n != lagging).collect();
        c.partition(&[lagging], &others);
        for i in 0..10u8 {
            c.propose(leader, vec![i]).unwrap();
        }
        c.run_ticks(50);
        // Compact the leader's log beyond what the follower has.
        let discarded = c.take_snapshot(leader, b"state@10".to_vec());
        assert_eq!(discarded, 10);
        assert_eq!(c.node(leader).snapshot_index(), 10);
        assert_eq!(c.node(leader).log_len(), 0);

        // More entries after the snapshot point.
        c.propose(leader, b"post".to_vec()).unwrap();
        c.run_ticks(30);

        // Heal: the follower must be restored via InstallSnapshot, then
        // replicate the post-snapshot entry normally.
        c.heal();
        c.run_ticks(100);
        let snap = c
            .take_installed_snapshot(lagging)
            .expect("snapshot was installed");
        assert_eq!(snap.last_included_index, 10);
        assert_eq!(snap.data, b"state@10");
        assert_eq!(c.node(lagging).snapshot_index(), 10);
        // The post-snapshot entry arrived through the normal path.
        assert_eq!(bytes(&c, lagging), vec![b"post".to_vec()]);
        // The healthy follower replicated everything normally and saw all 11.
        let healthy = others.into_iter().find(|&n| n != leader).unwrap();
        assert_eq!(c.committed(healthy).len(), 11);
    }

    #[test]
    fn pre_vote_prevents_term_inflation_by_partitioned_node() {
        let mut c = Cluster::new(5, 7);
        let leader = c.run_until_leader(1000).unwrap();
        let stable_term = c.node(leader).term();

        // Isolate one follower for a long time.
        let isolated = c.node_ids().into_iter().find(|&n| n != leader).unwrap();
        let rest: Vec<NodeId> = c
            .node_ids()
            .into_iter()
            .filter(|&n| n != isolated)
            .collect();
        c.partition(&[isolated], &rest);
        c.run_ticks(500);
        // With PreVote the isolated node never wins a pre-vote majority, so
        // its term stays put instead of climbing by hundreds.
        assert_eq!(c.node(isolated).term(), stable_term);

        // Healing does not depose the stable leader.
        c.heal();
        c.run_ticks(100);
        assert_eq!(c.leader(), Some(leader));
        assert_eq!(c.node(leader).term(), stable_term);
    }

    #[test]
    fn logs_are_prefix_consistent() {
        // Safety: committed logs at any two nodes are prefixes of each
        // other.
        let mut c = Cluster::new(5, 5);
        c.set_drop_rate(0.1);
        for round in 0..10u8 {
            if let Some(leader) = c.run_until_leader(1000) {
                let _ = c.propose(leader, vec![round]);
            }
            c.run_ticks(20);
        }
        c.set_drop_rate(0.0);
        c.run_ticks(200);
        let logs: Vec<Vec<Arc<[u8]>>> = c.node_ids().iter().map(|&id| c.committed(id)).collect();
        for a in &logs {
            for b in &logs {
                let n = a.len().min(b.len());
                assert_eq!(&a[..n], &b[..n], "diverging committed prefixes");
            }
        }
    }
}
