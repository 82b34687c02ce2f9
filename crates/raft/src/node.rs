//! The Raft state machine for one node.

use crate::message::{Envelope, LogEntry, Message, NodeId, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// A node's role in the current term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// Cluster leader for the current term.
    Leader,
}

/// Returned by [`RaftNode::propose`] when the node is not the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader;

impl fmt::Display for NotLeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("node is not the raft leader")
    }
}

impl std::error::Error for NotLeader {}

/// Election timeout bounds in ticks; each restart draws one uniformly.
const ELECTION_TIMEOUT_MIN: u64 = 10;
const ELECTION_TIMEOUT_MAX: u64 = 20;

/// Ticks between leader heartbeats. Entries do not wait for one: a
/// proposal is sent to every follower at once and a commit-index advance
/// is sent as soon as an ack makes it, so heartbeats only assert
/// leadership (holding off elections) and repair appends that were lost.
pub(crate) const HEARTBEAT_INTERVAL: u64 = 3;

/// The per-node Raft state machine.
///
/// Drive it with [`RaftNode::tick`] and [`RaftNode::receive`]; both return
/// outbound messages. Committed commands are drained with
/// [`RaftNode::take_committed`].
///
/// PreVote is always on, as in Fabric's etcdraft orderer: a follower whose
/// election timer fires first asks for pre-votes for the next term, and
/// only a majority of grants makes it a candidate. A node cut off from the
/// cluster therefore cannot inflate its term and depose a stable leader
/// when it returns.
#[derive(Debug)]
pub struct RaftNode {
    id: NodeId,
    peers: Vec<NodeId>,
    rng: StdRng,

    role: Role,
    current_term: u64,
    voted_for: Option<NodeId>,
    log: Vec<LogEntry>,
    commit_index: u64,
    last_applied: u64,

    /// Candidate state: votes received this term.
    votes: HashSet<NodeId>,
    /// Pre-vote state: grants received for the prospective campaign.
    pre_votes: HashSet<NodeId>,
    /// Index of the last entry compacted into the snapshot (0 = none).
    snapshot_index: u64,
    /// Term of that entry.
    snapshot_term: u64,
    /// The local snapshot, when one was taken or installed.
    snapshot: Option<Snapshot>,
    /// A snapshot installed from the leader, awaiting application pickup.
    pending_installed: Option<Snapshot>,
    /// Leader state: next index to send each follower. Advanced past
    /// every entry as soon as it is sent (pipelined appends); a rejection
    /// backs it off to the follower's hint.
    next_index: BTreeMap<NodeId, u64>,
    /// Leader state: highest index known replicated at each follower.
    match_index: BTreeMap<NodeId, u64>,

    ticks_since_reset: u64,
    election_deadline: u64,
}

impl RaftNode {
    /// Creates a follower with a seeded RNG for reproducible timeouts.
    pub fn new(id: NodeId, peers: Vec<NodeId>, seed: u64) -> Self {
        let mut node = RaftNode {
            id,
            peers,
            rng: StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9e3779b97f4a7c15)),
            role: Role::Follower,
            current_term: 0,
            voted_for: None,
            log: Vec::new(),
            commit_index: 0,
            last_applied: 0,
            votes: HashSet::new(),
            pre_votes: HashSet::new(),
            snapshot_index: 0,
            snapshot_term: 0,
            snapshot: None,
            pending_installed: None,
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            ticks_since_reset: 0,
            election_deadline: 0,
        };
        node.reset_election_timer();
        node
    }

    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.current_term
    }

    /// Highest committed log index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Number of entries in the log.
    pub fn log_len(&self) -> u64 {
        self.log.len() as u64
    }

    /// The full log (tests and invariant checks).
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    fn reset_election_timer(&mut self) {
        self.ticks_since_reset = 0;
        self.election_deadline = self
            .rng
            .gen_range(ELECTION_TIMEOUT_MIN..=ELECTION_TIMEOUT_MAX);
    }

    fn last_log_index(&self) -> u64 {
        self.snapshot_index + self.log.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log
            .last()
            .map(|e| e.term)
            .unwrap_or(self.snapshot_term)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else if index == self.snapshot_index {
            self.snapshot_term
        } else if index < self.snapshot_index {
            // Compacted away; only queried for consistency checks that the
            // snapshot already guarantees.
            self.snapshot_term
        } else {
            self.log
                .get((index - self.snapshot_index) as usize - 1)
                .map(|e| e.term)
                .unwrap_or(0)
        }
    }

    /// The entry at a 1-based log index, if not compacted.
    fn entry_at(&self, index: u64) -> Option<&LogEntry> {
        if index <= self.snapshot_index {
            None
        } else {
            self.log.get((index - self.snapshot_index) as usize - 1)
        }
    }

    fn majority(&self) -> usize {
        self.peers.len().div_ceil(2) + 1
    }

    fn become_follower(&mut self, term: u64) {
        self.role = Role::Follower;
        self.current_term = term;
        self.voted_for = None;
        self.votes.clear();
        self.reset_election_timer();
    }

    fn become_candidate(&mut self) -> Vec<Envelope> {
        self.role = Role::Candidate;
        self.current_term += 1;
        self.voted_for = Some(self.id);
        self.votes.clear();
        self.votes.insert(self.id);
        self.reset_election_timer();
        if self.votes.len() >= self.majority() {
            // Single-node cluster: win immediately.
            return self.become_leader();
        }
        let msg = Message::RequestVote {
            term: self.current_term,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        };
        self.broadcast(msg)
    }

    fn become_leader(&mut self) -> Vec<Envelope> {
        self.role = Role::Leader;
        self.next_index.clear();
        self.match_index.clear();
        let next = self.last_log_index() + 1;
        for &p in &self.peers {
            self.next_index.insert(p, next);
            self.match_index.insert(p, 0);
        }
        self.ticks_since_reset = 0;
        // Immediate heartbeat to assert leadership.
        self.append_entries_to_all()
    }

    fn broadcast(&self, message: Message) -> Vec<Envelope> {
        self.peers
            .iter()
            .map(|&to| Envelope {
                from: self.id,
                to,
                message: message.clone(),
            })
            .collect()
    }

    /// The message that brings `to` up to the end of the log: an
    /// `AppendEntries` carrying every entry from its `next_index` on, after
    /// which `next_index` points past the last one sent (the follower is
    /// assumed to take them; a rejection backs it off), or the snapshot
    /// when those entries were compacted.
    fn append_entries_to(&mut self, to: NodeId) -> Envelope {
        let next = *self.next_index.get(&to).unwrap_or(&1);
        if next <= self.snapshot_index {
            // The entries the follower needs were compacted: ship the
            // snapshot instead (§7).
            if let Some(snapshot) = &self.snapshot {
                return Envelope {
                    from: self.id,
                    to,
                    message: Message::InstallSnapshot {
                        term: self.current_term,
                        snapshot: snapshot.clone(),
                    },
                };
            }
        }
        let prev_log_index = next.max(self.snapshot_index + 1) - 1;
        let prev_log_term = self.term_at(prev_log_index);
        let entries: Vec<LogEntry> = self
            .log
            .iter()
            .skip((prev_log_index - self.snapshot_index) as usize)
            .cloned()
            .collect();
        self.next_index.insert(to, self.last_log_index() + 1);
        Envelope {
            from: self.id,
            to,
            message: Message::AppendEntries {
                term: self.current_term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit: self.commit_index,
            },
        }
    }

    fn append_entries_to_all(&mut self) -> Vec<Envelope> {
        (0..self.peers.len())
            .map(|i| self.append_entries_to(self.peers[i]))
            .collect()
    }

    /// Advances one logical tick; returns messages to send.
    pub fn tick(&mut self) -> Vec<Envelope> {
        self.ticks_since_reset += 1;
        match self.role {
            Role::Leader => {
                if self.ticks_since_reset >= HEARTBEAT_INTERVAL {
                    self.ticks_since_reset = 0;
                    self.append_entries_to_all()
                } else {
                    Vec::new()
                }
            }
            Role::Follower | Role::Candidate => {
                if self.ticks_since_reset >= self.election_deadline {
                    if self.role == Role::Follower {
                        self.start_pre_vote()
                    } else {
                        self.become_candidate()
                    }
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Appends a command to the leader's log and returns its index with
    /// the `AppendEntries` that replicate it to every follower now, not
    /// at the next heartbeat. The command bytes are `Arc`-shared from here
    /// on: replication to followers and the committed stream reuse this
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`NotLeader`] when this node is not the current leader; the caller
    /// should retry against the leader.
    pub fn propose(
        &mut self,
        command: impl Into<std::sync::Arc<[u8]>>,
    ) -> Result<(u64, Vec<Envelope>), NotLeader> {
        if self.role != Role::Leader {
            return Err(NotLeader);
        }
        let index = self.last_log_index() + 1;
        self.log.push(LogEntry {
            term: self.current_term,
            index,
            command: command.into(),
        });
        // Single-node cluster commits immediately.
        self.advance_commit_index();
        Ok((index, self.append_entries_to_all()))
    }

    /// Handles one inbound message; returns messages to send.
    pub fn receive(&mut self, from: NodeId, message: Message) -> Vec<Envelope> {
        match message {
            Message::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, last_log_index, last_log_term),
            Message::RequestVoteResponse { term, granted } => {
                self.on_vote_response(from, term, granted)
            }
            Message::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => self.on_append_entries(
                from,
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            ),
            Message::AppendEntriesResponse {
                term,
                success,
                match_index,
            } => self.on_append_response(from, term, success, match_index),
            Message::PreVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_pre_vote(from, term, last_log_index, last_log_term),
            Message::PreVoteResponse { term, granted } => {
                self.on_pre_vote_response(from, term, granted)
            }
            Message::InstallSnapshot { term, snapshot } => {
                self.on_install_snapshot(from, term, snapshot)
            }
            Message::InstallSnapshotResponse {
                term,
                last_included_index,
            } => self.on_install_snapshot_response(from, term, last_included_index),
        }
    }

    fn start_pre_vote(&mut self) -> Vec<Envelope> {
        self.reset_election_timer();
        self.pre_votes.clear();
        self.pre_votes.insert(self.id);
        if self.pre_votes.len() >= self.majority() {
            return self.become_candidate();
        }
        let msg = Message::PreVote {
            term: self.current_term + 1,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        };
        self.broadcast(msg)
    }

    fn on_pre_vote(
        &mut self,
        from: NodeId,
        term: u64,
        last_log_index: u64,
        last_log_term: u64,
    ) -> Vec<Envelope> {
        // Grant without changing any durable state: terms and votes are
        // untouched, which is the whole point of PreVote.
        let up_to_date = last_log_term > self.last_log_term()
            || (last_log_term == self.last_log_term() && last_log_index >= self.last_log_index());
        let granted = term > self.current_term && up_to_date;
        vec![Envelope {
            from: self.id,
            to: from,
            message: Message::PreVoteResponse {
                term: self.current_term,
                granted,
            },
        }]
    }

    fn on_pre_vote_response(&mut self, from: NodeId, term: u64, granted: bool) -> Vec<Envelope> {
        if term > self.current_term {
            self.become_follower(term);
            return Vec::new();
        }
        if self.role != Role::Follower || !granted {
            return Vec::new();
        }
        self.pre_votes.insert(from);
        if self.pre_votes.len() >= self.majority() {
            self.pre_votes.clear();
            return self.become_candidate();
        }
        Vec::new()
    }

    fn on_install_snapshot(
        &mut self,
        from: NodeId,
        term: u64,
        snapshot: Snapshot,
    ) -> Vec<Envelope> {
        if term > self.current_term || (term == self.current_term && self.role == Role::Candidate) {
            self.become_follower(term);
        }
        if term < self.current_term {
            return vec![Envelope {
                from: self.id,
                to: from,
                message: Message::InstallSnapshotResponse {
                    term: self.current_term,
                    last_included_index: 0,
                },
            }];
        }
        self.reset_election_timer();
        let last_included_index = snapshot.last_included_index;
        if last_included_index > self.snapshot_index {
            if last_included_index >= self.last_log_index() {
                // Snapshot supersedes the entire log.
                self.log.clear();
            } else {
                // Keep the suffix past the snapshot.
                let keep_from = (last_included_index - self.snapshot_index) as usize;
                self.log.drain(..keep_from);
            }
            self.snapshot_index = last_included_index;
            self.snapshot_term = snapshot.last_included_term;
            self.commit_index = self.commit_index.max(last_included_index);
            self.last_applied = self.last_applied.max(last_included_index);
            self.snapshot = Some(snapshot.clone());
            self.pending_installed = Some(snapshot);
        }
        vec![Envelope {
            from: self.id,
            to: from,
            message: Message::InstallSnapshotResponse {
                term: self.current_term,
                last_included_index: self.snapshot_index,
            },
        }]
    }

    fn on_install_snapshot_response(
        &mut self,
        from: NodeId,
        term: u64,
        last_included_index: u64,
    ) -> Vec<Envelope> {
        if term > self.current_term {
            self.become_follower(term);
            return Vec::new();
        }
        if self.role != Role::Leader {
            return Vec::new();
        }
        if last_included_index > 0 {
            self.match_index.insert(from, last_included_index);
            self.next_index.insert(from, last_included_index + 1);
        }
        Vec::new()
    }

    /// Compacts the log through `last_applied`, storing `data` as the
    /// application snapshot. Returns the number of discarded entries.
    /// No-op when nothing new is applied.
    pub fn take_snapshot(&mut self, data: Vec<u8>) -> usize {
        if self.last_applied <= self.snapshot_index {
            return 0;
        }
        let upto = self.last_applied;
        let discard = (upto - self.snapshot_index) as usize;
        let term = self.term_at(upto);
        self.log.drain(..discard);
        self.snapshot_index = upto;
        self.snapshot_term = term;
        self.snapshot = Some(Snapshot {
            last_included_index: upto,
            last_included_term: term,
            data,
        });
        discard
    }

    /// A snapshot installed from the leader since the last call, if any.
    /// The application must restore its state from it, because the
    /// individual commands it covers will never appear in
    /// [`RaftNode::take_committed`].
    pub fn take_installed_snapshot(&mut self) -> Option<Snapshot> {
        self.pending_installed.take()
    }

    /// Index of the last entry compacted into the local snapshot.
    pub fn snapshot_index(&self) -> u64 {
        self.snapshot_index
    }

    fn on_request_vote(
        &mut self,
        from: NodeId,
        term: u64,
        last_log_index: u64,
        last_log_term: u64,
    ) -> Vec<Envelope> {
        if term > self.current_term {
            self.become_follower(term);
        }
        let up_to_date = last_log_term > self.last_log_term()
            || (last_log_term == self.last_log_term() && last_log_index >= self.last_log_index());
        let granted =
            term == self.current_term && up_to_date && self.voted_for.is_none_or(|v| v == from);
        if granted {
            self.voted_for = Some(from);
            self.reset_election_timer();
        }
        vec![Envelope {
            from: self.id,
            to: from,
            message: Message::RequestVoteResponse {
                term: self.current_term,
                granted,
            },
        }]
    }

    fn on_vote_response(&mut self, from: NodeId, term: u64, granted: bool) -> Vec<Envelope> {
        if term > self.current_term {
            self.become_follower(term);
            return Vec::new();
        }
        if self.role != Role::Candidate || term != self.current_term || !granted {
            return Vec::new();
        }
        self.votes.insert(from);
        if self.votes.len() >= self.majority() {
            return self.become_leader();
        }
        Vec::new()
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_entries(
        &mut self,
        from: NodeId,
        term: u64,
        prev_log_index: u64,
        prev_log_term: u64,
        entries: Vec<LogEntry>,
        leader_commit: u64,
    ) -> Vec<Envelope> {
        if term > self.current_term || (term == self.current_term && self.role == Role::Candidate) {
            self.become_follower(term);
        }
        let reply = |node: &Self, success: bool, match_index: u64| {
            vec![Envelope {
                from: node.id,
                to: from,
                message: Message::AppendEntriesResponse {
                    term: node.current_term,
                    success,
                    match_index,
                },
            }]
        };
        if term < self.current_term {
            return reply(self, false, 0);
        }
        // Valid leader for this term.
        self.reset_election_timer();
        // Log consistency check.
        if prev_log_index > self.last_log_index() || self.term_at(prev_log_index) != prev_log_term {
            // Hint: back off to our log length.
            return reply(
                self,
                false,
                self.last_log_index().min(prev_log_index.saturating_sub(1)),
            );
        }
        // Append, truncating conflicts (positions are snapshot-relative).
        let entries_len = entries.len() as u64;
        for entry in entries {
            if entry.index <= self.snapshot_index {
                continue; // Already covered by the snapshot.
            }
            let pos = (entry.index - self.snapshot_index) as usize - 1;
            if pos < self.log.len() {
                if self.log[pos].term != entry.term {
                    self.log.truncate(pos);
                    self.log.push(entry);
                }
            } else {
                self.log.push(entry);
            }
        }
        // Only what this message proved matches the leader may commit or
        // be acknowledged: a tail past it may be a deposed leader's.
        let last_new = prev_log_index + entries_len;
        if leader_commit > self.commit_index {
            self.commit_index = leader_commit.min(last_new);
        }
        reply(self, true, last_new)
    }

    fn on_append_response(
        &mut self,
        from: NodeId,
        term: u64,
        success: bool,
        match_index: u64,
    ) -> Vec<Envelope> {
        if term > self.current_term {
            self.become_follower(term);
            return Vec::new();
        }
        if self.role != Role::Leader || term != self.current_term {
            return Vec::new();
        }
        if success {
            // Acks of pipelined appends arrive in order but after later
            // entries were sent, so neither index moves backwards.
            let matched = self.match_index.entry(from).or_insert(0);
            *matched = (*matched).max(match_index);
            let next = self.next_index.entry(from).or_insert(1);
            *next = (*next).max(match_index + 1);
            let committed = self.commit_index;
            self.advance_commit_index();
            if self.commit_index > committed {
                // Tell the followers now rather than at the next heartbeat.
                self.append_entries_to_all()
            } else {
                Vec::new()
            }
        } else {
            // Back off and retry immediately.
            let next = self.next_index.entry(from).or_insert(1);
            *next = (*next - 1).max(1).min(match_index + 1).max(1);
            vec![self.append_entries_to(from)]
        }
    }

    fn advance_commit_index(&mut self) {
        // Find the highest index replicated on a majority with an entry
        // from the current term (§5.4.2: only current-term entries commit
        // by counting).
        for idx in (self.commit_index + 1..=self.last_log_index()).rev() {
            if self.term_at(idx) != self.current_term {
                continue;
            }
            let replicas = 1 + self.match_index.values().filter(|&&m| m >= idx).count();
            if replicas >= self.majority() {
                self.commit_index = idx;
                break;
            }
        }
    }

    /// Drains commands committed since the last call, in log order.
    pub fn take_committed(&mut self) -> Vec<LogEntry> {
        let mut out = Vec::new();
        while self.last_applied < self.commit_index {
            self.last_applied += 1;
            if let Some(entry) = self.entry_at(self.last_applied) {
                out.push(entry.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_elects_itself_and_commits() {
        let mut n = RaftNode::new(1, vec![], 7);
        // Tick until the election fires.
        for _ in 0..25 {
            n.tick();
        }
        assert_eq!(n.role(), Role::Leader);
        let (index, out) = n.propose(b"cmd".to_vec()).unwrap();
        assert_eq!((index, out.len()), (1, 0));
        assert_eq!(n.commit_index(), 1);
        let committed = n.take_committed();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].command.as_ref(), b"cmd");
        // Draining again yields nothing.
        assert!(n.take_committed().is_empty());
    }

    #[test]
    fn follower_rejects_propose() {
        let mut n = RaftNode::new(1, vec![2, 3], 7);
        assert_eq!(n.propose(b"x".to_vec()), Err(NotLeader));
    }

    #[test]
    fn vote_granted_once_per_term() {
        let mut n = RaftNode::new(1, vec![2, 3], 7);
        let out = n.receive(
            2,
            Message::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        assert!(matches!(
            out[0].message,
            Message::RequestVoteResponse { granted: true, .. }
        ));
        // A different candidate in the same term is refused.
        let out = n.receive(
            3,
            Message::RequestVote {
                term: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        assert!(matches!(
            out[0].message,
            Message::RequestVoteResponse { granted: false, .. }
        ));
    }

    #[test]
    fn stale_term_vote_rejected() {
        let mut n = RaftNode::new(1, vec![2, 3], 7);
        n.become_follower(5);
        let out = n.receive(
            2,
            Message::RequestVote {
                term: 3,
                last_log_index: 10,
                last_log_term: 3,
            },
        );
        assert!(matches!(
            out[0].message,
            Message::RequestVoteResponse { granted: false, .. }
        ));
    }

    #[test]
    fn outdated_log_denied_vote() {
        let mut n = RaftNode::new(1, vec![2, 3], 7);
        n.log.push(LogEntry {
            term: 2,
            index: 1,
            command: Vec::new().into(),
        });
        n.current_term = 2;
        let out = n.receive(
            2,
            Message::RequestVote {
                term: 3,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        assert!(matches!(
            out[0].message,
            Message::RequestVoteResponse { granted: false, .. }
        ));
    }

    #[test]
    fn append_entries_truncates_conflicts() {
        let mut n = RaftNode::new(1, vec![2], 7);
        n.become_follower(1);
        // Initial entries from leader term 1.
        n.receive(
            2,
            Message::AppendEntries {
                term: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![
                    LogEntry {
                        term: 1,
                        index: 1,
                        command: b"a".to_vec().into(),
                    },
                    LogEntry {
                        term: 1,
                        index: 2,
                        command: b"b".to_vec().into(),
                    },
                ],
                leader_commit: 0,
            },
        );
        assert_eq!(n.log_len(), 2);
        // New leader at term 2 overwrites index 2.
        n.receive(
            2,
            Message::AppendEntries {
                term: 2,
                prev_log_index: 1,
                prev_log_term: 1,
                entries: vec![LogEntry {
                    term: 2,
                    index: 2,
                    command: b"c".to_vec().into(),
                }],
                leader_commit: 2,
            },
        );
        assert_eq!(n.log_len(), 2);
        assert_eq!(n.log()[1].command.as_ref(), b"c");
        assert_eq!(n.commit_index(), 2);
    }

    #[test]
    fn an_append_acks_only_what_it_matched() {
        // Entries 1–3 from a leader of term 1 that was deposed before
        // entry 3 reached a majority.
        let mut n = RaftNode::new(1, vec![2, 3], 7);
        let entry = |term, index| LogEntry {
            term,
            index,
            command: vec![index as u8].into(),
        };
        n.receive(
            2,
            Message::AppendEntries {
                term: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![entry(1, 1), entry(1, 2), entry(1, 3)],
                leader_commit: 0,
            },
        );
        // The term-2 leader holds entries 1 and 2 only. Its heartbeat
        // matches them, so entry 3 stays a stale tail the heartbeat did
        // not vouch for: acking it would let the leader count this node
        // for its own, different entry 3.
        let out = n.receive(
            3,
            Message::AppendEntries {
                term: 2,
                prev_log_index: 2,
                prev_log_term: 1,
                entries: vec![],
                leader_commit: 2,
            },
        );
        assert_eq!(
            out[0].message,
            Message::AppendEntriesResponse {
                term: 2,
                success: true,
                match_index: 2,
            }
        );
        assert_eq!(n.commit_index(), 2);
    }

    /// Delivers every envelope in `out` and returns the replies: one hop.
    fn hop(nodes: &mut BTreeMap<NodeId, RaftNode>, out: Vec<Envelope>) -> Vec<Envelope> {
        out.into_iter()
            .flat_map(|e| nodes.get_mut(&e.to).unwrap().receive(e.from, e.message))
            .collect()
    }

    #[test]
    fn a_quiet_cluster_learns_a_commit_without_waiting_for_a_heartbeat() {
        // Three nodes driven by hand. No `tick()` runs after the election,
        // so no timer fires: only the append and the commit index sent on
        // the ack can move the entry.
        let mut nodes: BTreeMap<NodeId, RaftNode> = (1..=3)
            .map(|id| {
                (
                    id,
                    RaftNode::new(id, (1..=3).filter(|&p| p != id).collect(), 12),
                )
            })
            .collect();
        let mut out = Vec::new();
        while out.is_empty() {
            out = nodes.get_mut(&1).unwrap().tick();
        }
        while !out.is_empty() {
            out = hop(&mut nodes, out);
        }
        assert_eq!(nodes[&1].role(), Role::Leader);

        let (index, appends) = nodes
            .get_mut(&1)
            .unwrap()
            .propose(b"quiet".to_vec())
            .unwrap();
        assert!(
            appends.len() == 2
                && appends.iter().all(|e| matches!(
                    &e.message,
                    Message::AppendEntries { entries, .. } if entries.len() == 1
                ))
        );
        let acks = hop(&mut nodes, appends);
        assert!(
            acks.len() == 2
                && acks.iter().all(|e| matches!(
                    e.message,
                    Message::AppendEntriesResponse { success: true, .. }
                ))
        );
        let commits = hop(&mut nodes, acks);
        assert!(
            commits.len() == 2
                && commits.iter().all(|e| matches!(
                    &e.message,
                    Message::AppendEntries { entries, leader_commit, .. }
                        if entries.is_empty() && *leader_commit == index
                ))
        );
        hop(&mut nodes, commits);
        // Two appends, two acks, two commit indexes: no heartbeat.
        for (id, node) in &mut nodes {
            let committed: Vec<Vec<u8>> = node
                .take_committed()
                .iter()
                .map(|e| e.command.to_vec())
                .collect();
            assert_eq!(committed, vec![b"quiet".to_vec()], "node {id}");
        }
    }

    #[test]
    fn append_with_gap_fails_consistency_check() {
        let mut n = RaftNode::new(1, vec![2], 7);
        let out = n.receive(
            2,
            Message::AppendEntries {
                term: 1,
                prev_log_index: 5,
                prev_log_term: 1,
                entries: vec![],
                leader_commit: 0,
            },
        );
        assert!(matches!(
            out[0].message,
            Message::AppendEntriesResponse { success: false, .. }
        ));
    }
}
