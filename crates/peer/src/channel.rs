//! Channel-level policy configuration shared by all peers of a channel,
//! and the per-channel commit lanes of the sharded commit scheduler.

use crate::commit::{BlockCommitOutcome, CommitError};
use crate::node::Peer;
use fabric_policy::SignaturePolicy;
use fabric_types::{Block, OrgId, PvtDataPackage, TxId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The per-organization sub-policies an implicitMeta endorsement policy
/// (e.g. `MAJORITY Endorsement`) resolves against, from the channel
/// configuration (`configtx.yaml`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelPolicies {
    orgs: BTreeMap<OrgId, SignaturePolicy>,
}

impl ChannelPolicies {
    /// Builds the Fabric default: each org's `Endorsement` sub-policy is
    /// `OR('<org>.peer')` — any peer of the org can endorse for it.
    pub fn default_for(orgs: &[OrgId]) -> Self {
        let mut map = BTreeMap::new();
        for org in orgs {
            let expr = format!("OR('{}.peer')", org.as_str());
            map.insert(
                org.clone(),
                SignaturePolicy::parse(&expr).expect("generated policy parses"),
            );
        }
        ChannelPolicies { orgs: map }
    }

    /// Overrides one organization's sub-policy.
    pub fn set_org_policy(&mut self, org: OrgId, policy: SignaturePolicy) {
        self.orgs.insert(org, policy);
    }

    /// The per-org sub-policy map used by implicitMeta evaluation.
    pub fn org_policies(&self) -> &BTreeMap<OrgId, SignaturePolicy> {
        &self.orgs
    }

    /// The participating organizations.
    pub fn orgs(&self) -> impl Iterator<Item = &OrgId> {
        self.orgs.keys()
    }

    /// Number of participating organizations.
    pub fn len(&self) -> usize {
        self.orgs.len()
    }

    /// Whether no organizations are configured.
    pub fn is_empty(&self) -> bool {
        self.orgs.is_empty()
    }
}

/// One channel's share of a sharded commit: the committing peer, its
/// ordered block stream, and the private-data provider backing it.
///
/// Channels are independent by construction — separate ledgers, separate
/// chains, no shared mutable state — which is what makes committing them
/// on separate cores sound. Each lane runs its stream through
/// [`Peer::process_blocks_overlapped`], so within a lane the cross-block
/// overlap applies too.
/// Boxed private-data provider carried by a [`CommitLane`].
type LaneProvider<'a> = Box<dyn FnMut(&TxId) -> Option<Arc<PvtDataPackage>> + Send + 'a>;

pub struct CommitLane<'a> {
    peer: &'a mut Peer,
    blocks: Vec<Block>,
    provider: LaneProvider<'a>,
}

impl<'a> CommitLane<'a> {
    /// A lane committing `blocks` (consecutive, in order) on `peer`,
    /// pulling plaintext private data from `provider`.
    pub fn new(
        peer: &'a mut Peer,
        blocks: Vec<Block>,
        provider: impl FnMut(&TxId) -> Option<Arc<PvtDataPackage>> + Send + 'a,
    ) -> Self {
        CommitLane {
            peer,
            blocks,
            provider: Box::new(provider),
        }
    }

    /// Commits this lane's stream; same contract as
    /// [`Peer::process_blocks_overlapped`].
    fn run(mut self) -> Result<Vec<BlockCommitOutcome>, CommitError> {
        self.peer
            .process_blocks_overlapped(self.blocks, &mut *self.provider)
    }
}

impl std::fmt::Debug for CommitLane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitLane")
            .field("peer", self.peer.gossip_id())
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

/// Shards a multi-channel commit across per-channel lanes, one scoped
/// thread per lane when the host has the cores for it. Lanes never share
/// ledger state, so per-lane results are bit-identical to committing the
/// lanes one after another.
///
/// # Examples
///
/// ```
/// use fabric_peer::{ChannelPolicies, CommitLane, Peer, ShardedScheduler};
/// use fabric_crypto::Keypair;
/// use fabric_types::{Block, DefenseConfig, OrgId};
///
/// let orgs = vec![OrgId::new("Org1MSP")];
/// let make_peer = |name: &str, ch: &str, seed| {
///     Peer::new(
///         name,
///         "Org1MSP",
///         ch,
///         ChannelPolicies::default_for(&orgs),
///         Keypair::generate_from_seed(seed),
///         DefenseConfig::original(),
///     )
/// };
/// let mut a = make_peer("peer0.org1", "ch-a", 1);
/// let mut b = make_peer("peer1.org1", "ch-b", 2);
/// let block_for = |p: &Peer| vec![Block::new(0, p.block_store().tip_hash(), vec![])];
/// let (blocks_a, blocks_b) = (block_for(&a), block_for(&b));
/// let lanes = vec![
///     CommitLane::new(&mut a, blocks_a, |_| None),
///     CommitLane::new(&mut b, blocks_b, |_| None),
/// ];
/// let results = ShardedScheduler::new(lanes).commit();
/// assert!(results.iter().all(|r| r.is_ok()));
/// assert_eq!(a.block_store().height(), 1);
/// assert_eq!(b.block_store().height(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedScheduler<'a> {
    lanes: Vec<CommitLane<'a>>,
}

impl<'a> ShardedScheduler<'a> {
    /// A scheduler over the given lanes.
    pub fn new(lanes: Vec<CommitLane<'a>>) -> Self {
        ShardedScheduler { lanes }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the scheduler has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Commits every lane, in parallel when more than one hardware thread
    /// is available, and returns per-lane results in lane order.
    pub fn commit(self) -> Vec<Result<Vec<BlockCommitOutcome>, CommitError>> {
        if self.lanes.len() < 2 || crate::host_cores() < 2 {
            return self.lanes.into_iter().map(CommitLane::run).collect();
        }
        let mut results: Vec<Option<Result<Vec<BlockCommitOutcome>, CommitError>>> =
            (0..self.lanes.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (lane, slot) in self.lanes.into_iter().zip(results.iter_mut()) {
                scope.spawn(move || *slot = Some(lane.run()));
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every lane thread ran to completion"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::Keypair;
    use fabric_types::{DefenseConfig, Identity, Role};

    #[test]
    fn default_sub_policy_accepts_any_org_peer() {
        let orgs = vec![OrgId::new("Org1MSP"), OrgId::new("Org2MSP")];
        let policies = ChannelPolicies::default_for(&orgs);
        assert_eq!(policies.len(), 2);
        let p1 = Identity::new(
            "Org1MSP",
            Role::Peer,
            Keypair::generate_from_seed(1).public_key(),
        );
        assert!(policies.org_policies()[&orgs[0]].satisfied_by(std::slice::from_ref(&p1)));
        assert!(!policies.org_policies()[&orgs[1]].satisfied_by(&[p1]));
    }

    fn lane_peer(name: &str, channel: &str, seed: u64) -> Peer {
        let orgs = vec![OrgId::new("Org1MSP")];
        Peer::new(
            name,
            "Org1MSP",
            channel,
            ChannelPolicies::default_for(&orgs),
            Keypair::generate_from_seed(seed),
            DefenseConfig::original(),
        )
    }

    fn empty_stream(peer: &Peer, blocks: usize) -> Vec<Block> {
        let mut prev = peer.block_store().tip_hash();
        let mut out = Vec::with_capacity(blocks);
        for n in 0..blocks {
            let b = Block::new(peer.block_store().height() + n as u64, prev, vec![]);
            prev = b.hash();
            out.push(b);
        }
        out
    }

    #[test]
    fn sharded_lanes_commit_independently() {
        let mut a = lane_peer("peer0.org1", "ch-a", 11);
        let mut b = lane_peer("peer1.org1", "ch-b", 12);
        let (sa, sb) = (empty_stream(&a, 3), empty_stream(&b, 2));
        let lanes = vec![
            CommitLane::new(&mut a, sa, |_| None),
            CommitLane::new(&mut b, sb, |_| None),
        ];
        let sched = ShardedScheduler::new(lanes);
        assert_eq!(sched.len(), 2);
        let results = sched.commit();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].as_ref().unwrap().len(), 3);
        assert_eq!(results[1].as_ref().unwrap().len(), 2);
        assert_eq!(a.block_store().height(), 3);
        assert_eq!(b.block_store().height(), 2);
    }

    #[test]
    fn failing_lane_reports_error_without_poisoning_others() {
        let mut a = lane_peer("peer0.org1", "ch-a", 13);
        let mut b = lane_peer("peer1.org1", "ch-b", 14);
        let sa = empty_stream(&a, 2);
        // A stream that does not chain onto lane b's (empty) ledger.
        let bogus = vec![Block::new(7, fabric_crypto::sha256(b"bogus"), vec![])];
        let lanes = vec![
            CommitLane::new(&mut a, sa, |_| None),
            CommitLane::new(&mut b, bogus, |_| None),
        ];
        let results = ShardedScheduler::new(lanes).commit();
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert_eq!(a.block_store().height(), 2);
        assert_eq!(b.block_store().height(), 0);
    }
}
