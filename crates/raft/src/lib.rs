//! A from-scratch Raft consensus implementation.
//!
//! Hyperledger Fabric's ordering service runs Raft (paper §II-A2); this
//! crate provides that substrate for the simulator. It implements leader
//! election, log replication and commit-index advancement from the Raft
//! paper ("In Search of an Understandable Consensus Algorithm", Ongaro &
//! Ousterhout, USENIX ATC 2014), in a deterministic tick-driven style:
//!
//! * [`RaftNode::tick`] advances timers (election timeout, heartbeats);
//! * [`RaftNode::receive`] processes one message;
//! * [`RaftNode::propose`] appends a command at the leader;
//! * all three return the messages to send, so any transport can carry
//!   them. A proposal's appends go to every follower at once, as in
//!   etcd/raft, rather than waiting for the next heartbeat.
//!
//! [`Cluster`] is an in-memory transport with message-drop and partition
//! injection, used by the tests and by the ordering service when run in
//! simulation.
//!
//! # Examples
//!
//! ```
//! use fabric_raft::Cluster;
//!
//! let mut cluster = Cluster::new(3, 42);
//! let leader = cluster.run_until_leader(1000).expect("a leader is elected");
//! cluster.propose(leader, b"block-1".to_vec()).unwrap();
//! cluster.run_ticks(50);
//! // All nodes committed the entry (each command is `Arc`-shared with
//! // the bytes allocated at propose time, never deep-copied).
//! for node in cluster.node_ids() {
//!     let committed = cluster.committed(node);
//!     assert_eq!(committed.len(), 1);
//!     assert_eq!(committed[0].as_ref(), b"block-1");
//! }
//! ```

mod cluster;
mod message;
mod node;

pub use cluster::{Cluster, ClusterStats};
pub use message::{Envelope, LogEntry, Message, NodeId, Snapshot};
pub use node::{NotLeader, RaftNode, Role};
