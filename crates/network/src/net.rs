//! The running network: the three-phase transaction workflow end to end.

use crate::builder::org_name_tag;
use crate::error::NetworkError;
use fabric_chaincode::{ChaincodeDefinition, ChaincodeHandle};
use fabric_client::Client;
use fabric_gossip::{GossipHub, PeerId};
use fabric_monitor::{Monitor, NodeSample};
use fabric_orderer::OrderingService;
use fabric_peer::{BlockCommitOutcome, CommitError, Peer};
use fabric_telemetry::Histogram;
use fabric_types::{
    Block, ChaincodeId, ChannelId, CollectionName, CollectionPvtRwSet, OrgId, Proposal,
    ProposalResponse, PvtDataPackage, Transaction, TxId, TxValidationCode,
};
use fabric_wire::IdMap;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// The result of a committed transaction submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The transaction ID.
    pub tx_id: TxId,
    /// The validation code the peers agreed on.
    pub validation_code: TxValidationCode,
    /// The plaintext chaincode response payload returned to the client.
    pub payload: Vec<u8>,
}

/// The blocks one peer refused to commit, as seen by the network's
/// delivery; see [`FabricNetwork::commit_errors`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerCommitErrors {
    /// Delivered blocks the peer returned an error for.
    pub count: u64,
    /// Number of the most recent such block, and why it was refused.
    pub last: (u64, CommitError),
}

/// Whom one endorser pushes private data to, per chaincode and collection
/// it has installed: the other peers whose org is a member, in name order.
type PushRecipients = HashMap<ChaincodeId, HashMap<CollectionName, Vec<PeerId>>>;

/// Resolves `endorser`'s [`PushRecipients`] among `peers` from the member
/// sets of its installed definitions.
fn push_recipients(endorser: &Peer, peers: &BTreeMap<String, Peer>) -> PushRecipients {
    let members_of = |member_orgs: &BTreeSet<OrgId>| -> Vec<PeerId> {
        peers
            .values()
            .filter(|p| p.gossip_id() != endorser.gossip_id() && member_orgs.contains(p.org()))
            .map(|p| p.gossip_id().clone())
            .collect()
    };
    endorser
        .chaincodes()
        .map(|installed| {
            let definition = &installed.definition;
            let per_collection = definition.collections().filter_map(|cfg| {
                let member_orgs = definition.members(&cfg.name)?;
                Some((cfg.name.clone(), members_of(member_orgs)))
            });
            (definition.id.clone(), per_collection.collect())
        })
        .collect()
}

/// The part of an endorser's private simulation result that a commit can
/// apply: the collections it wrote. A member peer applies plaintext only
/// for written collections, and private reads are committed as hashes in
/// the public rwset, as in Fabric, whose private simulation result holds
/// writes only. `None` when nothing was written.
fn written_part(mut pkg: PvtDataPackage) -> Option<PvtDataPackage> {
    let wrote = |c: &CollectionPvtRwSet| !c.rwset.writes.is_empty();
    if !pkg.collections.iter().all(wrote) {
        (pkg.namespaces, pkg.collections) = pkg
            .namespaces
            .into_iter()
            .zip(pkg.collections)
            .filter(|(_, c)| wrote(c))
            .unzip();
    }
    (!pkg.collections.is_empty()).then_some(pkg)
}

/// The attached [`Monitor`] with what its per-tick evaluation reads,
/// resolved once instead of by name every tick.
struct MonitorTick {
    monitor: Monitor,
    /// `fabric_commit_block_seconds`: the commit pipeline is shared
    /// across peers in-process, so its p99 is a network-wide signal
    /// sampled once per tick. `None` when no peer registered it.
    commit_block: Option<Histogram>,
    /// One row per peer in name order, then the orderer's; only the
    /// numbers change from tick to tick.
    samples: Vec<NodeSample>,
}

/// One peer's result for a delivered block.
type PeerOutcome = Result<BlockCommitOutcome, CommitError>;

/// Block size, in transactions × peers, from which delivery forks: about
/// 16 ms of serial commit on the reference host, twice the measured
/// break-even (DESIGN.md §8), so that 10- to 128-transaction blocks and
/// 2-peer networks stay on the calling thread, where a fork only costs.
const FORK_MIN_TX_PEERS: usize = 4_000;

/// Hardware threads available to this process, resolved on first use and
/// fixed for the process's life. Block delivery reads this every block
/// instead of asking the OS again: the query is a syscall costing tens of
/// microseconds, more than a small block's whole validation.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1)
    })
}

/// How many workers commit a block: a function of the block and the
/// host, not a setting. One when the block is too small to repay a fork,
/// and one when the peers share a telemetry pipeline — its audit log
/// and span sink are totally ordered streams that concurrent peers would
/// interleave.
fn delivery_workers(block_txs: usize, peers: usize, cores: usize, shared_telemetry: bool) -> usize {
    if shared_telemetry || block_txs * peers < FORK_MIN_TX_PEERS {
        1
    } else {
        cores.min(peers).max(1)
    }
}

/// A complete in-process Fabric network for one channel.
pub struct FabricNetwork {
    channel: ChannelId,
    orgs: Vec<OrgId>,
    peers: BTreeMap<String, Peer>,
    /// Keyed by shared name: the `client.submit` span names its node
    /// with the key.
    clients: BTreeMap<Arc<str>, Client>,
    orderer: OrderingService,
    gossip: GossipHub,
    events: Vec<(TxId, fabric_types::ChaincodeEvent)>,
    /// Chaincodes deployed uniformly (replayed onto late-joining peers).
    deployed: Vec<(ChaincodeDefinition, ChaincodeHandle)>,
    /// Private writes of disseminated transactions, as held persistently
    /// by member peers, kept unless a block commits the transaction
    /// without it being valid; the source of truth Fabric's reconciliation
    /// protocol queries when a peer joins late or lost data. Packages are
    /// shared with the gossip layer — one allocation per dissemination.
    pvt_archive: IdMap<TxId, Arc<PvtDataPackage>>,
    /// Streaming alert engine driven one evaluation tick per network tick.
    monitor: Option<MonitorTick>,
    /// Peer names in map order, cached so per-block delivery does not
    /// re-collect them; rebuilt when the peer set changes.
    cached_peer_names: Vec<String>,
    /// Gossip IDs in the same order, cached for the same reason.
    cached_gossip_ids: Vec<PeerId>,
    /// Push recipients by endorsing peer, resolved from the member sets
    /// of each peer's installed definitions, so that dissemination builds
    /// no list per package; rebuilt with the lists above.
    cached_recipients: BTreeMap<String, PushRecipients>,
    /// Set by [`FabricNetwork::peer_mut`], through which a caller may have
    /// installed a chaincode: the caches are rebuilt before the next use.
    peer_caches_stale: bool,
    /// Delivered blocks a peer refused, by peer name; peers that never
    /// refused one have no entry.
    commit_errors: BTreeMap<String, PeerCommitErrors>,
    /// The builder's seed, mixed into the keys of peers added later.
    seed: u64,
}

impl std::fmt::Debug for FabricNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricNetwork")
            .field("channel", &self.channel)
            .field("orgs", &self.orgs)
            .field("peers", &self.peer_names())
            .field("deployed_chaincodes", &self.deployed.len())
            .finish_non_exhaustive()
    }
}

impl FabricNetwork {
    pub(crate) fn from_parts(
        channel: ChannelId,
        orgs: Vec<OrgId>,
        peers: BTreeMap<String, Peer>,
        clients: BTreeMap<Arc<str>, Client>,
        orderer: OrderingService,
        gossip: GossipHub,
        seed: u64,
    ) -> Self {
        let mut net = FabricNetwork {
            channel,
            orgs,
            peers,
            clients,
            orderer,
            gossip,
            events: Vec::new(),
            deployed: Vec::new(),
            pvt_archive: IdMap::default(),
            monitor: None,
            cached_peer_names: Vec::new(),
            cached_gossip_ids: Vec::new(),
            cached_recipients: BTreeMap::new(),
            peer_caches_stale: false,
            commit_errors: BTreeMap::new(),
            seed,
        };
        net.refresh_peer_caches();
        net
    }

    /// Rebuilds the cached peer-name/gossip-id/recipient lists. Must be
    /// called after any change to the peer set or to a peer's chaincodes.
    fn refresh_peer_caches(&mut self) {
        self.cached_peer_names = self.peers.keys().cloned().collect();
        self.cached_gossip_ids = self.peers.values().map(|p| p.gossip_id().clone()).collect();
        self.cached_recipients = self
            .peers
            .iter()
            .map(|(name, endorser)| (name.clone(), push_recipients(endorser, &self.peers)))
            .collect();
        if let Some(tick) = self.monitor.as_mut() {
            let rows = self.cached_peer_names.iter().map(String::as_str);
            tick.samples = rows
                .chain(["orderer"])
                .map(|node| NodeSample {
                    node: node.to_string(),
                    ..NodeSample::default()
                })
                .collect();
        }
        self.peer_caches_stale = false;
    }

    pub(crate) fn attach_monitor(&mut self, monitor: Monitor) {
        let commit_block = monitor
            .telemetry()
            .metrics()
            .find_histogram("fabric_commit_block_seconds", &[]);
        self.monitor = Some(MonitorTick {
            monitor,
            commit_block,
            samples: Vec::new(),
        });
        self.refresh_peer_caches();
    }

    /// The streaming monitor attached via `NetworkBuilder::with_monitor`,
    /// if any.
    pub fn monitor(&self) -> Option<&Monitor> {
        self.monitor.as_ref().map(|m| &m.monitor)
    }

    /// The channel name.
    pub fn channel(&self) -> &ChannelId {
        &self.channel
    }

    /// Participating organizations.
    pub fn orgs(&self) -> &[OrgId] {
        &self.orgs
    }

    /// The chaincode definitions deployed on this channel, in deployment
    /// order — the artifacts configuration auditors (e.g. `fabric-lint`)
    /// inspect together with [`orgs`](Self::orgs).
    pub fn deployed_definitions(&self) -> Vec<&ChaincodeDefinition> {
        self.deployed.iter().map(|(d, _)| d).collect()
    }

    /// Peer names in deterministic order.
    pub fn peer_names(&self) -> Vec<String> {
        self.peers.keys().cloned().collect()
    }

    /// Client names in deterministic order.
    pub fn client_names(&self) -> Vec<String> {
        self.clients.keys().map(|name| name.to_string()).collect()
    }

    /// Read access to a peer.
    ///
    /// # Panics
    ///
    /// Panics when the peer does not exist (use in tests/experiments).
    pub fn peer(&self, name: &str) -> &Peer {
        &self.peers[name]
    }

    /// Mutable access to a peer (e.g. to flip defenses or install a
    /// malicious chaincode variant).
    pub fn peer_mut(&mut self, name: &str) -> &mut Peer {
        self.peer_caches_stale = true;
        self.peers.get_mut(name).expect("unknown peer")
    }

    /// Mutable access to a client.
    pub fn client_mut(&mut self, name: &str) -> &mut Client {
        self.clients.get_mut(name).expect("unknown client")
    }

    /// The gossip hub (fault injection in tests).
    pub fn gossip_mut(&mut self) -> &mut GossipHub {
        &mut self.gossip
    }

    /// The shared telemetry pipeline attached via
    /// `NetworkBuilder::with_telemetry`, if any.
    pub fn telemetry(&self) -> Option<&fabric_telemetry::Telemetry> {
        self.orderer
            .telemetry()
            .or_else(|| self.peers.values().find_map(|p| p.telemetry()))
    }

    /// Crashes one Raft orderer node (fault injection). The ordering
    /// service keeps working while a quorum survives.
    pub fn crash_orderer(&mut self, node: u64) {
        self.orderer.crash_orderer(node);
    }

    /// Ticks the ordering service until its Raft cluster has a leader
    /// again (e.g. after crashes). Returns whether one was found.
    pub fn wait_for_orderer(&mut self, max_ticks: usize) -> bool {
        self.orderer.run_until_ready(max_ticks)
    }

    /// Service discovery: computes a minimal set of peer names whose
    /// endorsements satisfy the chaincode-level endorsement policy of
    /// `chaincode`, given the peers currently on the channel. Returns
    /// `None` when the policy is unsatisfiable (or the chaincode unknown).
    pub fn discover_endorsers(&self, chaincode: &str) -> Option<Vec<String>> {
        let cc = ChaincodeId::new(chaincode);
        let any_peer = self.peers.values().next()?;
        let definition = &any_peer.chaincode(&cc)?.definition;
        let policy = definition.endorsement();
        let identities: Vec<fabric_types::Identity> =
            self.peers.values().map(|p| p.identity().clone()).collect();
        let channel = any_peer.channel_policies();
        let plan = fabric_policy::minimal_endorsement_set_for(policy, channel, &identities)?;
        let names = plan
            .iter()
            .filter_map(|id| {
                self.peers
                    .iter()
                    .find(|(_, p)| p.identity().public_key == id.public_key)
                    .map(|(name, _)| name.clone())
            })
            .collect();
        Some(names)
    }

    /// Installs a chaincode definition with the same implementation on
    /// every peer (the honest deployment).
    ///
    /// # Panics
    ///
    /// Panics with the [`DefinitionError`](fabric_chaincode::DefinitionError)
    /// when the channel cannot run the definition (see
    /// [`Peer::install_chaincode`]). Every peer shares the channel's
    /// policies, so the first peer refuses it and no peer installs it.
    pub fn deploy_chaincode(&mut self, definition: ChaincodeDefinition, handle: ChaincodeHandle) {
        for peer in self.peers.values_mut() {
            if let Err(error) = peer.install_chaincode(definition.clone(), handle.clone()) {
                panic!("cannot deploy {}: {error}", definition.id);
            }
        }
        self.deployed.push((definition, handle));
        self.refresh_peer_caches();
    }

    /// Installs a per-peer implementation (Fabric's customizable-chaincode
    /// feature: orgs may extend the logic, and malicious orgs abuse this).
    ///
    /// # Panics
    ///
    /// Panics when `peer` is unknown, and with the
    /// [`DefinitionError`](fabric_chaincode::DefinitionError) when the
    /// channel cannot run the definition (see [`Peer::install_chaincode`]).
    pub fn install_custom_chaincode(
        &mut self,
        peer: &str,
        definition: ChaincodeDefinition,
        handle: ChaincodeHandle,
    ) {
        let id = definition.id.clone();
        if let Err(error) = self.peer_mut(peer).install_chaincode(definition, handle) {
            panic!("cannot install {id} on {peer}: {error}");
        }
    }

    /// Endorses a proposal at the named peer and disseminates the private
    /// collections the simulation wrote to their member peers (Fig. 2,
    /// steps 7–9). A simulation that only read private data, a query
    /// included, disseminates nothing: its reads travel as hashes in the
    /// public rwset, and no commit applies a collection it did not write.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Endorse`] when the peer refuses,
    /// [`NetworkError::DisseminationFailed`] when a written collection's
    /// `RequiredPeerCount` could not be met.
    pub fn endorse(
        &mut self,
        peer_name: &str,
        proposal: &Proposal,
    ) -> Result<ProposalResponse, NetworkError> {
        let peer = self
            .peers
            .get(peer_name)
            .ok_or_else(|| NetworkError::UnknownPeer(peer_name.to_string()))?;
        let (response, pvt) = peer
            .endorse(proposal)
            .map_err(|error| NetworkError::Endorse {
                peer: peer_name.to_string(),
                error,
            })?;
        if let Some(pkg) = pvt.and_then(written_part) {
            self.disseminate(peer_name, proposal, pkg)?;
        }
        Ok(response)
    }

    fn disseminate(
        &mut self,
        endorser: &str,
        proposal: &Proposal,
        pkg: PvtDataPackage,
    ) -> Result<(), NetworkError> {
        if self.peer_caches_stale {
            self.refresh_peer_caches();
        }
        let peer = &self.peers[endorser];
        let endorser_id = peer.gossip_id();
        // One shared allocation serves the endorser's transient store, the
        // durable archive, and every push recipient below.
        let pkg = Arc::new(pkg);
        self.gossip.store_local(endorser_id, Arc::clone(&pkg));
        // Push to every peer whose org is a member of a written collection.
        let installed = peer.chaincode(&proposal.chaincode);
        let recipients = self
            .cached_recipients
            .get(endorser)
            .and_then(|r| r.get(&proposal.chaincode));
        for pvt in &pkg.collections {
            let members = recipients
                .and_then(|r| r.get(&pvt.collection))
                .map_or(&[][..], Vec::as_slice);
            let delivered = self.gossip.push(endorser_id, members, Arc::clone(&pkg));
            let required = installed
                .and_then(|i| i.definition.collection(&pvt.collection))
                .map_or(0, |cfg| cfg.required_peer_count);
            if (delivered as u32) < required {
                return Err(NetworkError::DisseminationFailed {
                    collection: pvt.collection.to_string(),
                    delivered,
                    required,
                });
            }
        }
        // Member peers persist the private data of an endorsement that
        // disseminated; the archive models that durable store for late
        // reconciliation.
        self.pvt_archive.insert(pkg.tx_id.clone(), pkg);
        Ok(())
    }

    /// Submits an assembled transaction for ordering.
    pub fn submit(&mut self, tx: Transaction) {
        self.orderer.submit(tx);
    }

    /// Advances the network `ticks` steps: the ordering service runs, and
    /// every cut block is delivered to and processed by every peer.
    pub fn advance(&mut self, ticks: usize) {
        for _ in 0..ticks {
            self.orderer.tick();
            for block in self.orderer.take_blocks() {
                let workers = delivery_workers(
                    block.transactions.len(),
                    self.peers.len(),
                    host_cores(),
                    self.telemetry().is_some(),
                );
                let outcomes = self.deliver(&block, workers);
                self.record_outcomes(&block, outcomes);
            }
            self.observe_monitor_tick();
        }
    }

    /// One monitor evaluation per network tick: drain the audit events
    /// this tick produced and score every node's health from the same
    /// state the tick left behind.
    fn observe_monitor_tick(&mut self) {
        let Some(tick) = self.monitor.as_mut() else {
            return;
        };
        let ordered_height = self.orderer.ordered_height();
        let commit_p99 = tick.commit_block.as_ref().and_then(|h| h.quantile(0.99));
        let (orderer, peers) = tick.samples.split_last_mut().expect("the orderer's row");
        for (sample, peer) in peers.iter_mut().zip(self.peers.values()) {
            sample.committed_height = peer.block_store().height();
            sample.ordered_height = ordered_height;
            sample.gossip_pending = self.gossip.transient_len(peer.gossip_id()) as u64;
            sample.stage_p99_seconds = commit_p99;
        }
        orderer.committed_height = ordered_height;
        orderer.ordered_height = ordered_height;
        orderer.backlog = self.orderer.pending_len() as u64;
        tick.monitor.observe_tick(&tick.samples);
    }

    /// Delivers one block to every peer in one fork–join, then purges the
    /// block's transactions from the transient stores. Workers claim the
    /// name-ordered peers one at a time from a shared cursor — the calling
    /// thread is a worker, so one worker spawns nothing and walks the
    /// peers in order — and results are put back in name order. While
    /// peers commit the hub is only read: a fetch takes the peer's own
    /// transient copy, else the first holder's package.
    fn deliver(&mut self, block: &Block, workers: usize) -> Vec<PeerOutcome> {
        let gossip = &self.gossip;
        let ids = self.cached_gossip_ids.as_slice();
        let cursor = Mutex::new(ids.iter().zip(self.peers.values_mut()).enumerate());
        let work = || {
            let mut done = Vec::new();
            loop {
                let next = cursor.lock().expect("a commit worker panicked").next();
                let Some((p, (own, peer))) = next else {
                    return done;
                };
                let mut provider = |tx_id: &TxId| {
                    gossip
                        .get_shared(own, tx_id)
                        .or_else(|| gossip.first_holder(own, tx_id, ids))
                };
                // One refcount bump: all peers validate the same storage,
                // and divergent outcomes would be a consensus bug, surfaced
                // by the integration tests.
                done.push((p, peer.process_block(block.clone(), &mut provider)));
            }
        };
        let mut done = std::thread::scope(|scope| {
            let others: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut done = work();
            for worker in others {
                done.extend(worker.join().expect("a commit worker panicked"));
            }
            done
        });
        done.sort_unstable_by_key(|(p, _)| *p);
        // Transient data for committed transactions is no longer needed;
        // one sweep over the registered stores purges the whole block.
        self.gossip
            .purge_committed(block.transactions.iter().map(|tx| &tx.tx_id));
        done.into_iter().map(|(_, outcome)| outcome).collect()
    }

    /// Folds a block's per-peer results into what the network keeps: the
    /// event stream, the refused-block record and the private-data archive.
    fn record_outcomes(&mut self, block: &Block, outcomes: Vec<PeerOutcome>) {
        self.prune_archive(block, &outcomes);
        for (p, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                // Event listeners are fed once per block (from the first
                // peer; all honest peers deliver identical event streams).
                Ok(outcome) if p == 0 => self.events.extend(outcome.events),
                Ok(_) => {}
                Err(error) => self.record_commit_error(p, block.header.number, error),
            }
        }
    }

    /// Drops the archived private data of every transaction this block
    /// committed with no peer marking it `Valid`. Fabric's ledger keeps
    /// private data for valid transactions only, and a replaying peer
    /// applies nothing else. A `DuplicateTxId` keeps the entry, which
    /// belongs to the transaction that first used the id; a block no peer
    /// committed drops nothing.
    fn prune_archive(&mut self, block: &Block, outcomes: &[PeerOutcome]) {
        if self.pvt_archive.is_empty() {
            return;
        }
        let keeps =
            |code: TxValidationCode| code.is_valid() || code == TxValidationCode::DuplicateTxId;
        for (i, tx) in block.transactions.iter().enumerate() {
            let mut codes = outcomes
                .iter()
                .filter_map(|outcome| outcome.as_ref().ok())
                .map(|outcome| outcome.validation_codes[i]);
            if codes.next().is_some_and(|code| !keeps(code)) && !codes.any(keeps) {
                self.pvt_archive.remove(&tx.tx_id);
            }
        }
    }

    fn record_commit_error(&mut self, peer: usize, block: u64, error: CommitError) {
        let name = &self.cached_peer_names[peer];
        if let Some(telemetry) = self.telemetry() {
            telemetry
                .metrics()
                .counter(
                    "fabric_commit_errors_total",
                    "Delivered blocks a peer refused to commit",
                    &[("peer", name), ("kind", error.kind())],
                )
                .inc();
        }
        let seen = self
            .commit_errors
            .entry(name.clone())
            .or_insert_with(|| PeerCommitErrors {
                count: 0,
                last: (block, error.clone()),
            });
        seen.count += 1;
        seen.last = (block, error);
    }

    /// Delivered blocks that peers refused to commit (today: blocks that
    /// did not chain onto the peer's ledger), by peer name. A peer absent
    /// from the map has refused none.
    pub fn commit_errors(&self) -> &BTreeMap<String, PeerCommitErrors> {
        &self.commit_errors
    }

    /// The validation code of a committed transaction, read from the first
    /// peer's ledger (all honest peers agree).
    pub fn transaction_status(&self, tx_id: &TxId) -> Option<TxValidationCode> {
        let peer = self.peers.values().next()?;
        let (_, code) = peer.block_store().transaction(tx_id)?;
        code
    }

    /// Full three-phase submission: create proposal at `client`, endorse at
    /// `endorsing_peers`, assemble, order, and wait for commit.
    ///
    /// `args` are string arguments; `transient` carries private values.
    ///
    /// # Errors
    ///
    /// Any endorsement/assembly failure, or [`NetworkError::NotCommitted`]
    /// if the transaction does not commit within the tick budget.
    pub fn submit_transaction(
        &mut self,
        client: &str,
        chaincode: &str,
        function: &str,
        args: &[&str],
        transient: &[(&str, &[u8])],
        endorsing_peers: &[&str],
    ) -> Result<SubmitOutcome, NetworkError> {
        let channel = self.channel.clone();
        let client_ref = self
            .clients
            .get_mut(client)
            .ok_or_else(|| NetworkError::UnknownClient(client.to_string()))?;
        let proposal = client_ref.create_proposal(
            channel,
            ChaincodeId::new(chaincode),
            function,
            args.iter().map(|a| a.as_bytes().to_vec()).collect(),
            transient
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_vec()))
                .collect(),
        );
        // The whole client-observed submission, from proposal to commit
        // confirmation, keyed to the transaction's trace.
        let _submit_span = self.telemetry().map(|t| {
            let mut s = t.span("client.submit");
            s.trace(fabric_telemetry::trace_id(proposal.tx_id.as_str()));
            let (name, _) = self.clients.get_key_value(client).expect("checked above");
            s.node(name);
            s.field("chaincode", proposal.chaincode.as_arc());
            s.field("function", Box::<str>::from(function));
            s
        });

        let mut responses = Vec::new();
        for peer in endorsing_peers {
            responses.push(self.endorse(peer, &proposal)?);
        }
        let client_ref = self.clients.get(client).expect("checked above");
        let (tx, payload) = client_ref.assemble_transaction(&proposal, &responses)?;
        let tx_id = tx.tx_id.clone();
        self.submit(tx);

        for _ in 0..200 {
            self.advance(1);
            if let Some(code) = self.transaction_status(&tx_id) {
                return Ok(SubmitOutcome {
                    tx_id,
                    validation_code: code,
                    payload,
                });
            }
        }
        Err(NetworkError::NotCommitted)
    }

    /// Adds a new peer for an existing channel organization *after* the
    /// channel has been running: the peer is bootstrapped by replaying the
    /// full block history from an existing peer, reconciling private data
    /// (for collections its org is a member of) from the member archive.
    /// Returns the new peer's name (`peer<N>.<org>`).
    ///
    /// # Panics
    ///
    /// Panics when `org` is not part of the channel or no peer exists yet.
    pub fn add_peer(&mut self, org: &str) -> String {
        let org_id = OrgId::new(org);
        assert!(
            self.orgs.contains(&org_id),
            "{org} is not an organization of this channel"
        );
        let short = org.to_ascii_lowercase().trim_end_matches("msp").to_string();
        let index = self.peers.values().filter(|p| p.org() == &org_id).count();
        let name = format!("peer{index}.{short}");

        let template = self.peers.values().next().expect("channel has peers");
        let policies = template.channel_policies().clone();
        let defense = template.defense();
        let telemetry = template.telemetry().cloned();
        let channel = self.channel.clone();
        let blocks: Vec<fabric_types::Block> = template.block_store().iter().cloned().collect();

        let mut peer = Peer::new(
            name.clone(),
            org_id,
            channel,
            policies,
            fabric_crypto::Keypair::generate_from_seed(
                self.seed ^ 0x9ee7 ^ (index as u64) << 32 ^ blocks.len() as u64 ^ org_name_tag(org),
            ),
            defense,
        );
        if let Some(t) = telemetry {
            peer.set_telemetry(t);
        }
        for (definition, handle) in &self.deployed {
            peer.install_chaincode(definition.clone(), handle.clone())
                .expect("the channel accepted this definition at deploy");
        }
        // Replay the chain; the archive serves plaintext private data for
        // collections the new peer's org belongs to.
        let archive = &self.pvt_archive;
        let mut provider = |tx_id: &TxId| archive.get(tx_id).map(Arc::clone);
        for block in blocks {
            peer.process_block(block, &mut provider)
                .expect("replaying a valid chain succeeds");
        }
        self.gossip.register(peer.gossip_id().clone());
        self.peers.insert(name.clone(), peer);
        self.refresh_peer_caches();
        name
    }

    /// Drains chaincode events of validated transactions observed since
    /// the last call, in commit order (the block event service a client
    /// SDK would subscribe to).
    pub fn drain_events(&mut self) -> Vec<(TxId, fabric_types::ChaincodeEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Query-only invocation ("evaluate"): endorse at one peer and return
    /// the payload without creating a transaction.
    ///
    /// # Errors
    ///
    /// Endorsement failures; see [`NetworkError`].
    pub fn evaluate_transaction(
        &mut self,
        client: &str,
        peer: &str,
        chaincode: &str,
        function: &str,
        args: &[&str],
    ) -> Result<Vec<u8>, NetworkError> {
        let channel = self.channel.clone();
        let client_ref = self
            .clients
            .get_mut(client)
            .ok_or_else(|| NetworkError::UnknownClient(client.to_string()))?;
        let proposal = client_ref.create_proposal(
            channel,
            ChaincodeId::new(chaincode),
            function,
            args.iter().map(|a| a.as_bytes().to_vec()).collect(),
            BTreeMap::new(),
        );
        let response = self.endorse(peer, &proposal)?;
        Ok(response.payload.response.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use fabric_chaincode::samples::{AssetTransfer, Guard, GuardedPdc};
    use fabric_types::{CollectionConfig, CollectionName, DefenseConfig};
    use std::sync::Arc;

    fn public_net() -> FabricNetwork {
        let mut net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
            .seed(11)
            .build();
        net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
        net
    }

    use fabric_chaincode::ChaincodeDefinition;

    fn pdc_net(defense: DefenseConfig) -> FabricNetwork {
        let mut net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
            .seed(12)
            .defense(defense)
            .build();
        let def =
            ChaincodeDefinition::new("guarded").with_collection(CollectionConfig::membership_of(
                "PDC1",
                &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
            ));
        // org1: value < 15; org2: value > 10; org3: unconstrained.
        net.install_custom_chaincode(
            "peer0.org1",
            def.clone(),
            Arc::new(GuardedPdc::new(
                "PDC1",
                Guard::LessThan(15),
                Guard::LessThan(15),
            )),
        );
        net.install_custom_chaincode(
            "peer0.org2",
            def.clone(),
            Arc::new(GuardedPdc::new(
                "PDC1",
                Guard::GreaterThan(10),
                Guard::GreaterThan(10),
            )),
        );
        net.install_custom_chaincode(
            "peer0.org3",
            def,
            Arc::new(GuardedPdc::unconstrained("PDC1")),
        );
        net
    }

    #[test]
    fn public_transaction_full_workflow() {
        let mut net = public_net();
        let outcome = net
            .submit_transaction(
                "client0.org1",
                "assets",
                "CreateAsset",
                &["a1", "red", "alice", "100"],
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .unwrap();
        assert!(outcome.validation_code.is_valid());
        // All peers hold the asset.
        for p in ["peer0.org1", "peer0.org2", "peer0.org3"] {
            assert!(net
                .peer(p)
                .world_state()
                .get_public(&"assets".into(), "a1")
                .is_some());
        }
        // Query sees it.
        let payload = net
            .evaluate_transaction("client0.org1", "peer0.org3", "assets", "ReadAsset", &["a1"])
            .unwrap();
        assert!(!payload.is_empty());
    }

    #[test]
    fn pdc_write_commits_plaintext_only_at_members() {
        let mut net = pdc_net(DefenseConfig::original());
        // Honest flow: endorse at both PDC members (12 satisfies both
        // org1's <15 and org2's >10).
        let outcome = net
            .submit_transaction(
                "client0.org1",
                "guarded",
                "write",
                &["k1", "12"],
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .unwrap();
        assert!(outcome.validation_code.is_valid());
        let ns = ChaincodeId::new("guarded");
        let col = CollectionName::new("PDC1");
        assert_eq!(
            net.peer("peer0.org1")
                .world_state()
                .get_private(&ns, &col, "k1")
                .unwrap()
                .value,
            b"12"
        );
        assert_eq!(
            net.peer("peer0.org2")
                .world_state()
                .get_private(&ns, &col, "k1")
                .unwrap()
                .value,
            b"12"
        );
        // Non-member org3: hashes only.
        assert!(net
            .peer("peer0.org3")
            .world_state()
            .get_private(&ns, &col, "k1")
            .is_none());
        assert!(net
            .peer("peer0.org3")
            .world_state()
            .get_private_hash(&ns, &col, "k1")
            .is_some());
    }

    #[test]
    fn pdc_read_roundtrip_via_member() {
        let mut net = pdc_net(DefenseConfig::original());
        net.submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["k1", "12"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
        let payload = net
            .evaluate_transaction("client0.org1", "peer0.org1", "guarded", "read", &["k1"])
            .unwrap();
        assert_eq!(payload, b"12");
        // Non-member endorser refuses the read (Use Case 1).
        let err = net
            .evaluate_transaction("client0.org1", "peer0.org3", "guarded", "read", &["k1"])
            .unwrap_err();
        assert!(matches!(err, NetworkError::Endorse { .. }));
    }

    #[test]
    fn gossip_loss_recovered_by_pull() {
        let mut net = pdc_net(DefenseConfig::original());
        // Lose every gossip push; the commit-time pull reconciles from the
        // endorser's transient store.
        net.gossip_mut().set_drop_rate(1.0);
        let outcome = net
            .submit_transaction(
                "client0.org1",
                "guarded",
                "write",
                &["k1", "12"],
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .unwrap();
        assert!(outcome.validation_code.is_valid());
        let ns = ChaincodeId::new("guarded");
        let col = CollectionName::new("PDC1");
        for p in ["peer0.org1", "peer0.org2"] {
            assert_eq!(
                net.peer(p)
                    .world_state()
                    .get_private(&ns, &col, "k1")
                    .unwrap()
                    .value,
                b"12",
                "{p} should have reconciled plaintext"
            );
        }
    }

    /// Org1 and Org2 are PDC1's members, Org3 is not; every peer runs the
    /// unconstrained sample.
    fn unconstrained_pdc_net(seed: u64, required_peer_count: u32) -> FabricNetwork {
        let mut net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
            .seed(seed)
            .build();
        let members = [OrgId::new("Org1MSP"), OrgId::new("Org2MSP")];
        let cfg = CollectionConfig::membership_of("PDC1", &members)
            .with_required_peer_count(required_peer_count);
        let def = ChaincodeDefinition::new("guarded").with_collection(cfg);
        net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));
        net
    }

    const MEMBERS: [&str; 2] = ["peer0.org1", "peer0.org2"];

    #[test]
    fn required_peer_count_enforced() {
        let mut net = unconstrained_pdc_net(13, 1);
        net.gossip_mut().set_drop_rate(1.0);
        let err = net
            .submit_transaction(
                "client0.org1",
                "guarded",
                "write",
                &["k1", "1"],
                &[],
                &MEMBERS,
            )
            .unwrap_err();
        assert!(matches!(err, NetworkError::DisseminationFailed { .. }));
        // The refused endorsement is not archived; the endorser keeps its
        // own transient copy, as a Fabric endorser does.
        assert!(net.pvt_archive.is_empty());
        let endorser = net.peer("peer0.org1").gossip_id();
        assert_eq!(net.gossip.transient_len(endorser), 1);
    }

    #[test]
    fn required_peer_count_binds_writes_not_reads() {
        let mut net = unconstrained_pdc_net(18, 1);
        let submit = |net: &mut FabricNetwork, function: &str, args: &[&str]| {
            net.submit_transaction("client0.org1", "guarded", function, args, &[], &MEMBERS)
        };
        submit(&mut net, "write", &["k1", "12"]).unwrap();
        net.gossip_mut().set_drop_rate(1.0);
        let read = submit(&mut net, "read", &["k1"]).unwrap();
        assert_eq!(read.validation_code, TxValidationCode::Valid);
        let err = submit(&mut net, "write", &["k2", "1"]).unwrap_err();
        assert!(matches!(err, NetworkError::DisseminationFailed { .. }));
    }

    #[test]
    fn reads_and_queries_leave_no_private_data_behind() {
        let mut net = unconstrained_pdc_net(16, 0);
        net.submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["k1", "12"],
            &[],
            &MEMBERS,
        )
        .unwrap();
        let (delivered, archived) = (net.gossip.delivered_total(), net.pvt_archive.len());

        let read = net
            .submit_transaction("client0.org1", "guarded", "read", &["k1"], &[], &MEMBERS)
            .unwrap();
        let query = net
            .evaluate_transaction("client0.org1", "peer0.org2", "guarded", "read", &["k1"])
            .unwrap();
        assert_eq!(read.payload, b"12");
        assert_eq!(query, b"12");

        for peer in net.peers.values() {
            assert_eq!(net.gossip.transient_len(peer.gossip_id()), 0);
            let (_, code) = peer.block_store().transaction(&read.tx_id).unwrap();
            assert_eq!(code, Some(TxValidationCode::Valid), "{}", peer.gossip_id());
        }
        assert_eq!(net.gossip.delivered_total(), delivered);
        assert_eq!(net.pvt_archive.len(), archived);
        assert!(!net.pvt_archive.contains_key(&read.tx_id));
    }

    #[test]
    fn archive_keeps_only_what_committed_valid() {
        let (mut net, blocks, _) = staged_blocks(3, 0.0);
        let archived =
            |net: &FabricNetwork, tx: &Transaction| net.pvt_archive.contains_key(&tx.tx_id);
        assert!(blocks
            .iter()
            .flat_map(|b| b.transactions.iter())
            .all(|tx| archived(&net, tx)));
        for block in &blocks {
            let outcomes = net.deliver(block, 1);
            net.record_outcomes(block, outcomes);
        }

        // Valid, valid, MVCC conflict, policy failure, valid, and two
        // duplicates of valid writes: one in this block, one in block 0.
        let kept = [true, true, false, false, true, true, true];
        for (tx, kept) in blocks[1].transactions.iter().zip(kept) {
            assert_eq!(archived(&net, tx), kept, "{}", tx.tx_id);
        }
        assert!(archived(&net, &blocks[0].transactions[0]));
        assert!(blocks[2].transactions.iter().all(|tx| archived(&net, tx)));
    }

    #[test]
    fn unknown_names_error() {
        let mut net = public_net();
        assert!(matches!(
            net.submit_transaction("ghost", "assets", "f", &[], &[], &["peer0.org1"]),
            Err(NetworkError::UnknownClient(_))
        ));
        assert!(matches!(
            net.submit_transaction("client0.org1", "assets", "f", &[], &[], &["ghost"]),
            Err(NetworkError::UnknownPeer(_))
        ));
    }

    #[test]
    fn business_rule_blocks_endorsement_at_honest_victim() {
        let mut net = pdc_net(DefenseConfig::original());
        // Writing 5 violates org2's >10 rule: org2 refuses to endorse.
        let err = net
            .submit_transaction(
                "client0.org1",
                "guarded",
                "write",
                &["k1", "5"],
                &[],
                &["peer0.org1", "peer0.org2"],
            )
            .unwrap_err();
        assert!(matches!(err, NetworkError::Endorse { .. }));
    }

    /// A network of `peers` peers (Org1 and Org2 are PDC1's members, Org3
    /// is not) with `hot` seeded, plus hand-cut blocks of 1, 7 and 600
    /// transactions whose private data went through the hub at
    /// `drop_rate`, and the id of one more endorsed write that no block
    /// orders. Everything is seeded, so two calls stage identical
    /// networks, hubs and blocks.
    fn staged_blocks(peers: usize, drop_rate: f64) -> (FabricNetwork, Vec<Block>, TxId) {
        let orgs = ["Org1MSP", "Org2MSP", "Org3MSP"];
        let mut net = NetworkBuilder::new("ch1").orgs(&orgs).seed(17).build();
        let members = [OrgId::new("Org1MSP"), OrgId::new("Org2MSP")];
        let def = ChaincodeDefinition::new("guarded").with_collection(
            CollectionConfig::membership_of("PDC1", &members)
                .with_endorsement_policy("AND('Org1MSP.peer','Org2MSP.peer')"),
        );
        net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));
        net.submit_transaction(
            "client0.org1",
            "guarded",
            "write",
            &["hot", "1"],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .unwrap();
        for extra in 0..peers - orgs.len() {
            net.add_peer(orgs[extra % orgs.len()]);
        }
        net.gossip_mut().set_drop_rate(drop_rate);

        let mut client = Client::new(
            "Org1MSP",
            fabric_crypto::Keypair::generate_from_seed(0x5eed),
            DefenseConfig::original(),
        );
        let mut tx = |net: &mut FabricNetwork, function: &str, key: &str, endorsers: &[&str]| {
            let proposal = client.create_proposal(
                net.channel().clone(),
                ChaincodeId::new("guarded"),
                function,
                vec![key.as_bytes().to_vec(), b"2".to_vec()],
                BTreeMap::new(),
            );
            let responses: Vec<_> = endorsers
                .iter()
                .map(|peer| net.endorse(peer, &proposal).unwrap())
                .collect();
            client
                .assemble_transaction(&proposal, &responses)
                .unwrap()
                .0
        };
        let both = ["peer0.org1", "peer0.org2"];
        let first = tx(&mut net, "write", "k0", &both);
        let repeated = tx(&mut net, "write", "k3", &both);
        let mixed = vec![
            tx(&mut net, "write", "k1", &both),
            tx(&mut net, "add", "hot", &both),
            // Read `hot` at the same version as the add before it.
            tx(&mut net, "add", "hot", &both),
            // One endorsement misses the collection's AND policy.
            tx(&mut net, "write", "k2", &both[..1]),
            repeated.clone(),
            repeated,
            // Already in the first block.
            first.clone(),
        ];
        let bulk: Vec<Transaction> = (0..600)
            .map(|i| tx(&mut net, "write", &format!("bulk{i}"), &both))
            .collect();
        let unordered = tx(&mut net, "write", "unordered", &both).tx_id;

        let store = net.peer("peer0.org1").block_store();
        let (mut number, mut previous) = (store.height(), store.tip_hash());
        let blocks = [vec![first], mixed, bulk]
            .into_iter()
            .map(|txs| {
                let block = Block::new(number, previous, txs);
                (number, previous) = (number + 1, block.hash());
                block
            })
            .collect();
        (net, blocks, unordered)
    }

    /// Everything delivery leaves behind that a caller can see.
    #[derive(Debug, PartialEq)]
    struct Delivered {
        /// Per block per peer: validity vector, `missing_private_data`
        /// and events, or the refusal.
        outcomes: Vec<Vec<PeerOutcome>>,
        /// Per peer: tip hash, state digest, the stored validity vectors.
        ledgers: Vec<(
            fabric_crypto::Hash256,
            fabric_crypto::Hash256,
            Vec<Vec<TxValidationCode>>,
        )>,
        events: Vec<(TxId, fabric_types::ChaincodeEvent)>,
        /// Per peer: the staged transactions its transient store holds.
        transient: Vec<Vec<TxId>>,
        /// The hub's push totals: delivered, dropped.
        pushes: (u64, u64),
        /// The archived transactions with their packages, by id.
        archive: Vec<(TxId, PvtDataPackage)>,
    }

    fn observe(
        net: &mut FabricNetwork,
        blocks: &[Block],
        unordered: &TxId,
        outcomes: Vec<Vec<PeerOutcome>>,
    ) -> Delivered {
        for (block, per_peer) in blocks.iter().zip(&outcomes) {
            net.record_outcomes(block, per_peer.clone());
        }
        let ledgers = net
            .peers
            .values()
            .map(|peer| {
                let store = peer.block_store();
                let codes = blocks
                    .iter()
                    .map(|b| {
                        let stored = store.block(b.header.number).expect("committed");
                        stored.metadata.validation_codes.clone()
                    })
                    .collect();
                (store.tip_hash(), peer.world_state().digest(), codes)
            })
            .collect();
        let staged: Vec<&TxId> = blocks
            .iter()
            .flat_map(|b| b.transactions.iter().map(|tx| &tx.tx_id))
            .chain([unordered])
            .collect();
        let transient = net
            .cached_gossip_ids
            .iter()
            .map(|id| {
                let held = staged.iter().filter(|tx| net.gossip.get(id, tx).is_some());
                held.map(|tx| (*tx).clone()).collect()
            })
            .collect();
        let mut archive: Vec<_> = net
            .pvt_archive
            .iter()
            .map(|(tx, pkg)| (tx.clone(), (**pkg).clone()))
            .collect();
        archive.sort_by(|a, b| a.0.cmp(&b.0));
        Delivered {
            outcomes,
            ledgers,
            events: net.drain_events(),
            transient,
            pushes: (net.gossip.delivered_total(), net.gossip.dropped_total()),
            archive,
        }
    }

    /// Serial delivery: block by block, peer by peer, each fetch pulling
    /// through the hub at once (a copy into the requester's store) and
    /// each block purged before the next. Kept as the oracle.
    fn serial_reference(net: &mut FabricNetwork, blocks: &[Block]) -> Vec<Vec<PeerOutcome>> {
        let mut outcomes = Vec::new();
        for block in blocks {
            let mut per_peer = Vec::new();
            for (i, peer) in net.peers.values_mut().enumerate() {
                let (gossip, ids) = (&mut net.gossip, &net.cached_gossip_ids);
                let mut provider = |tx_id: &TxId| {
                    gossip
                        .get_shared(&ids[i], tx_id)
                        .or_else(|| gossip.pull(&ids[i], tx_id, ids))
                };
                per_peer.push(peer.process_block(block.clone(), &mut provider));
            }
            outcomes.push(per_peer);
            net.gossip
                .purge_committed(block.transactions.iter().map(|tx| &tx.tx_id));
        }
        outcomes
    }

    /// Whether some member peer lacks the package of a transaction that
    /// commits valid, so that delivering it takes a fetch from another
    /// peer's store.
    fn a_member_must_fetch(
        net: &FabricNetwork,
        blocks: &[Block],
        codes: &[Vec<TxValidationCode>],
    ) -> bool {
        let members: Vec<&PeerId> = net
            .peers
            .values()
            .filter(|p| p.org().as_str() != "Org3MSP")
            .map(Peer::gossip_id)
            .collect();
        let mut valid = blocks.iter().zip(codes).flat_map(|(block, codes)| {
            let txs = block.transactions.iter().zip(codes);
            txs.filter(|(_, code)| code.is_valid())
                .map(|(tx, _)| &tx.tx_id)
        });
        valid.any(|tx| members.iter().any(|m| net.gossip.get(m, tx).is_none()))
    }

    #[test]
    fn any_worker_count_delivers_what_serial_delivery_did() {
        for peers in [3, 5, 8] {
            for drop_rate in [0.0, 0.5, 1.0] {
                let (mut net, blocks, unordered) = staged_blocks(peers, drop_rate);
                let outcomes = serial_reference(&mut net, &blocks);
                let expected = observe(&mut net, &blocks, &unordered, outcomes);

                // The stage really holds the mix it claims.
                let codes = &expected.ledgers[0].2;
                assert_eq!(codes[0], [TxValidationCode::Valid]);
                assert_eq!(
                    codes[1],
                    [
                        TxValidationCode::Valid,
                        TxValidationCode::Valid,
                        TxValidationCode::MvccReadConflict,
                        TxValidationCode::EndorsementPolicyFailure,
                        TxValidationCode::Valid,
                        TxValidationCode::DuplicateTxId,
                        TxValidationCode::DuplicateTxId,
                    ]
                );
                assert_eq!(codes[2].len(), 600);
                // Both of three peers' members endorsed; beyond that a lost
                // push leaves a member that must fetch.
                let (fresh, _, _) = staged_blocks(peers, drop_rate);
                assert_eq!(
                    a_member_must_fetch(&fresh, &blocks, codes),
                    peers > 3 && drop_rate > 0.0
                );
                // Only the write no block ordered is left in transient
                // stores, at least at the endorsers that stored it.
                for held in &expected.transient {
                    assert!(held.iter().all(|tx| *tx == unordered));
                }
                assert!(expected.transient.iter().any(|held| !held.is_empty()));

                for workers in [1, 2, 3] {
                    let (mut net, blocks, unordered) = staged_blocks(peers, drop_rate);
                    let outcomes = blocks.iter().map(|b| net.deliver(b, workers)).collect();
                    let got = observe(&mut net, &blocks, &unordered, outcomes);
                    assert_eq!(
                        got, expected,
                        "{peers} peers, drop rate {drop_rate}, {workers} worker(s)"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_count_follows_tick_size_cores_and_telemetry() {
        // 8 peers × 500 transactions reaches the constant; one less does not.
        assert_eq!(delivery_workers(500, 8, 2, false), 2);
        assert_eq!(delivery_workers(499, 8, 2, false), 1);
        assert_eq!(delivery_workers(1_000_000, 8, 2, true), 1);
        assert_eq!(delivery_workers(1_000_000, 1, 16, false), 1);
        assert_eq!(delivery_workers(1_000_000, 8, 1, false), 1);
        // Never more workers than peers or cores.
        assert_eq!(delivery_workers(1_000_000, 3, 16, false), 3);
        assert_eq!(delivery_workers(1_000_000, 8, 4, false), 4);
    }

    #[test]
    fn refused_block_is_counted_for_that_peer_only() {
        let telemetry = fabric_telemetry::Telemetry::new();
        let mut net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
            .seed(11)
            .with_telemetry(telemetry.clone())
            .build();
        net.deploy_chaincode(ChaincodeDefinition::new("assets"), Arc::new(AssetTransfer));
        // peer0.org2 runs one (empty) block ahead of the channel, so the
        // orderer's next block does not chain onto its ledger.
        let ahead = net.peer_mut("peer0.org2");
        let store = ahead.block_store();
        let stray = Block::new(store.height(), store.tip_hash(), Vec::new());
        let refused_number = stray.header.number;
        ahead.process_block(stray, &mut |_| None).unwrap();
        assert!(net.commit_errors().is_empty());

        let outcome = net
            .submit_transaction(
                "client0.org1",
                "assets",
                "CreateAsset",
                &["a1", "red", "alice", "100"],
                &[],
                &["peer0.org1", "peer0.org3"],
            )
            .unwrap();
        assert!(outcome.validation_code.is_valid());

        let errors = net.commit_errors();
        assert_eq!(errors.keys().collect::<Vec<_>>(), ["peer0.org2"]);
        let refused = &errors["peer0.org2"];
        assert_eq!(refused.count, 1);
        assert_eq!(refused.last.0, refused_number);
        assert_eq!(refused.last.1.kind(), "non_sequential_number");
        for committed in ["peer0.org1", "peer0.org3"] {
            let held = net.peer(committed).world_state();
            assert!(held.get_public(&"assets".into(), "a1").is_some());
        }
        let counter = telemetry.metrics().counter(
            "fabric_commit_errors_total",
            "",
            &[("peer", "peer0.org2"), ("kind", "non_sequential_number")],
        );
        assert_eq!(counter.get(), 1);
    }

    #[test]
    fn dissemination_reaches_exactly_the_definitions_members() {
        let cfg = CollectionConfig::membership_of(
            "PDC1",
            &[OrgId::new("Org1MSP"), OrgId::new("Org3MSP")],
        );
        let mut net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
            .seed(14)
            .build();
        let def = ChaincodeDefinition::new("guarded").with_collection(cfg);
        net.deploy_chaincode(def.clone(), Arc::new(GuardedPdc::unconstrained("PDC1")));
        for org in ["Org1MSP", "Org2MSP", "Org3MSP"] {
            net.add_peer(org);
        }
        let proposal = net.client_mut("client0.org1").create_proposal(
            "ch1",
            "guarded",
            "write",
            vec![b"k".to_vec(), b"1".to_vec()],
            BTreeMap::new(),
        );
        net.endorse("peer0.org1", &proposal).unwrap();

        let col = CollectionName::new("PDC1");
        let selected: Vec<&PeerId> = net
            .peers
            .values()
            .filter(|p| p.gossip_id().as_str() != "peer0.org1")
            .filter(|p| def.org_is_member(p.org(), &col))
            .map(Peer::gossip_id)
            .collect();
        assert_eq!(selected.len(), 3);
        let holders: Vec<&PeerId> = net
            .peers
            .values()
            .map(Peer::gossip_id)
            .filter(|id| net.gossip.get(id, &proposal.tx_id).is_some())
            .filter(|id| id.as_str() != "peer0.org1")
            .collect();
        assert_eq!(holders, selected);
        let pushes = (net.gossip.delivered_total(), net.gossip.dropped_total());
        assert_eq!(pushes, (3, 0));
    }

    #[test]
    fn required_peer_count_counts_compiled_members_lost_pushes() {
        let mut net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
            .seed(15)
            .build();
        let members = [OrgId::new("Org1MSP"), OrgId::new("Org3MSP")];
        let cfg = CollectionConfig::membership_of("PDC1", &members).with_required_peer_count(1);
        let def = ChaincodeDefinition::new("guarded").with_collection(cfg);
        net.deploy_chaincode(def, Arc::new(GuardedPdc::unconstrained("PDC1")));
        net.gossip_mut().set_drop_rate(1.0);
        let proposal = net.client_mut("client0.org1").create_proposal(
            "ch1",
            "guarded",
            "write",
            vec![b"k".to_vec(), b"1".to_vec()],
            BTreeMap::new(),
        );
        let err = net.endorse("peer0.org1", &proposal).unwrap_err();
        let NetworkError::DisseminationFailed {
            delivered,
            required,
            ..
        } = err
        else {
            panic!("expected DisseminationFailed, got {err:?}");
        };
        assert_eq!((delivered, required), (0, 1));
        // The one member peer besides the endorser was tried, and lost.
        assert_eq!(net.gossip.dropped_total(), 1);
    }

    #[test]
    fn added_peers_never_share_a_signing_key() {
        let mut net = NetworkBuilder::new("ch1")
            .orgs(&["Org1MSP", "Org2MSP", "Org3MSP"])
            .seed(5)
            .build();
        // Same org index and chain height in every org, twice over.
        for _ in 0..2 {
            for org in ["Org1MSP", "Org2MSP", "Org3MSP"] {
                net.add_peer(org);
            }
        }
        let keys: BTreeSet<_> = net
            .peers
            .values()
            .map(|p| p.identity().public_key)
            .collect();
        assert_eq!(keys.len(), 9);
    }

    #[test]
    fn added_peers_take_the_network_seed() {
        let added_key = |seed: u64| {
            let mut net = NetworkBuilder::new("ch1")
                .orgs(&["Org1MSP", "Org2MSP"])
                .seed(seed)
                .build();
            let name = net.add_peer("Org1MSP");
            net.peer(&name).identity().public_key
        };
        assert_ne!(added_key(5), added_key(99));
    }
}
