//! The system under test. Every call into the program's crates is in
//! this file, so a change to the program's surface is answered here and
//! nowhere else in the benchmark.
//!
//! Two pipelines run the same operations:
//!
//! * [`Blackbox`] drives a live [`FabricNetwork`] through `endorse`,
//!   `submit` and `advance`. The end-to-end metrics come from it.
//! * [`Composed`] takes the peers of an identically built network and
//!   performs what `FabricNetwork::{endorse, advance, deliver_block}`
//!   perform, call by call and in the same order, with a span around
//!   each call into a layer. The per-layer ledger comes from it, and for
//!   one seed both end on the same chain tip and state digests.

use crate::trace::{Call, Tracer, INHERIT_ID};
use crate::workload::{Mix, Op, OpKind, Spec, SEEDED_KEYS};
use fabric_chaincode::samples::{GuardedPdc, SbeDemo};
use fabric_chaincode::ChaincodeDefinition;
use fabric_client::Client;
use fabric_crypto::{sha256, Hash256, Keypair};
use fabric_gossip::{GossipHub, PeerId};
use fabric_monitor::{Monitor, NodeSample};
use fabric_network::{FabricNetwork, NetworkBuilder};
use fabric_orderer::{BatchConfig, OrderingService};
use fabric_peer::Peer;
use fabric_raft::Cluster;
use fabric_telemetry::Telemetry;
use fabric_types::{
    Block, ChaincodeId, CollectionConfig, CollectionName, DefenseConfig, OrgId, PayloadCommitment,
    Proposal, ProposalResponse, PvtDataPackage, Transaction, TxId, TxValidationCode,
};
use fabric_wire::{Decode, Encode};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

const CHANNEL: &str = "bench";
/// Namespace of the private-data chaincode ([`GuardedPdc`]).
const NS_PDC: &str = "benchpdc";
/// Namespace of the public / state-based-endorsement chaincode ([`SbeDemo`]).
const NS_PUBLIC: &str = "benchpub";
const COLLECTION: &str = "BENCHPDC";
/// Collection-level endorsement policy, also the key-level policy of
/// every SBE key.
const MEMBER_POLICY: &str = "AND('Org1MSP.peer','Org2MSP.peer')";
const ENDORSERS: [&str; 2] = ["peer0.org1", "peer0.org2"];
const SBE_KEYS: u64 = 8;
const PUBLIC_KEYS: u64 = 64;
const ORDERERS: usize = 3;
/// Seeds the program's own randomness (identities, Raft election
/// timeouts, gossip). Fixed, so that the tick schedule is a property of
/// the program and not of the run's seed: `--seed` draws the inputs only.
const NETWORK_SEED: u64 = 1;
/// Keypair-seed bases, disjoint from the builder's peer and client seeds.
const CLIENT_IDENTITIES: u64 = 1 << 32;
const SEEDER_IDENTITY: u64 = 1 << 33;

/// The operations both pipelines support. The span hooks do nothing on
/// the black box, which is measured from outside only.
pub trait Pipeline {
    fn enter(&mut self, _call: Call, _id: u64) {}
    fn exit(&mut self) {}
    /// Set-up is over: forget what was recorded so far.
    fn begin_measurement(&mut self) {}
    /// Endorses at the named peer and disseminates private data, or
    /// `None` when the peer refuses.
    fn endorse(&mut self, peer: &str, proposal: &Proposal) -> Option<ProposalResponse>;
    fn submit(&mut self, tx: Transaction);
    /// One tick: the orderer runs and every cut block is committed by
    /// every peer.
    fn tick(&mut self);
    /// Peers in name order; the first one is where commits are read.
    fn peers(&self) -> Vec<&Peer>;
    fn first_peer(&self) -> &Peer;
}

fn defense(spec: &Spec) -> DefenseConfig {
    if spec.hardened {
        DefenseConfig::hardened()
    } else {
        DefenseConfig::original()
    }
}

/// Builds the network, deploys both chaincodes and adds the extra peers.
/// No state is committed yet.
fn deploy(spec: &Spec, observed: bool) -> FabricNetwork {
    let mut builder = NetworkBuilder::new(CHANNEL)
        .orgs(spec.orgs)
        .seed(NETWORK_SEED)
        .defense(defense(spec))
        .batch(BatchConfig {
            max_message_count: spec.block_txs,
            batch_timeout_ticks: 2,
        });
    if observed {
        // The builder adopts the monitor's pipeline for every node.
        builder = builder.with_monitor(Monitor::new(&Telemetry::new()));
    }
    let mut net = builder.build();
    let collection = CollectionConfig::membership_of(
        COLLECTION,
        &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
    )
    .with_member_only_read(false)
    .with_endorsement_policy(MEMBER_POLICY);
    net.deploy_chaincode(
        ChaincodeDefinition::new(NS_PDC).with_collection(collection),
        Arc::new(GuardedPdc::unconstrained(COLLECTION)),
    );
    net.deploy_chaincode(ChaincodeDefinition::new(NS_PUBLIC), Arc::new(SbeDemo));
    for org in spec.extra_peers {
        net.add_peer(org);
    }
    net
}

/// The value set-up commits under seeded key `index`.
fn seeded_value(index: u64) -> Vec<u8> {
    (1000 + index).to_string().into_bytes()
}

fn seeded_key(index: u64) -> String {
    format!("k{index}")
}

/// Namespace, function and arguments of one set-up transaction.
type Invocation = (&'static str, &'static str, Vec<Vec<u8>>);

/// Submits the invocations and ticks until all of them committed valid.
fn commit_all<P: Pipeline>(p: &mut P, seeder: &mut Client, invocations: Vec<Invocation>) {
    let from = height(p);
    let expected = invocations.len();
    for (ns, function, args) in invocations {
        let proposal = seeder.create_proposal(CHANNEL, ns, function, args, BTreeMap::new());
        let responses: Vec<ProposalResponse> = ENDORSERS
            .iter()
            .map(|peer| p.endorse(peer, &proposal).expect("seed endorsement"))
            .collect();
        let (tx, _) = seeder
            .assemble_transaction(&proposal, &responses)
            .expect("seed assembly");
        p.submit(tx);
    }
    for _ in 0..10_000 {
        p.tick();
        let mut valid = 0;
        committed_since(p, from, |_, code| valid += usize::from(code.is_valid()));
        if valid == expected {
            return;
        }
    }
    panic!("seed transactions must commit valid");
}

/// Commits the initial state through the pipeline itself: every seeded
/// private key holds an integer, and (where the mix uses them) every SBE
/// key exists and then, one block later, carries its key-level policy.
fn seed_state<P: Pipeline>(p: &mut P, spec: &Spec) {
    let mut seeder = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(SEEDER_IDENTITY),
        defense(spec),
    );
    let sbe_keys = |function: &'static str, arg: &[u8]| -> Vec<Invocation> {
        (0..SBE_KEYS)
            .map(|j| {
                let args = vec![format!("sbe{j}").into_bytes(), arg.to_vec()];
                (NS_PUBLIC, function, args)
            })
            .collect()
    };
    let contended = spec.mix == Mix::Contended;
    let mut state: Vec<Invocation> = (0..SEEDED_KEYS as u64)
        .map(|i| {
            let args = vec![seeded_key(i).into_bytes(), seeded_value(i)];
            (NS_PDC, "write", args)
        })
        .collect();
    if contended {
        state.extend(sbe_keys("put", b"1"));
    }
    commit_all(p, &mut seeder, state);
    if contended {
        // Policies go into a later block than the puts, so SBE validation
        // runs against committed parameters.
        commit_all(
            p,
            &mut seeder,
            sbe_keys("set_policy", MEMBER_POLICY.as_bytes()),
        );
    }
}

/// What became of one offered operation.
pub enum Offered {
    /// Endorsed, assembled and handed to the orderer.
    Submitted(TxId),
    /// A query: answered by one endorser, never ordered.
    Answered { correct: bool },
    /// An endorser refused or assembly failed.
    Rejected,
}

/// Turns one generated operation into calls on the pipeline: proposal,
/// endorsement(s), and for everything but a query, assembly and submit.
/// `nonce` must be unique within the run.
pub fn offer<P: Pipeline>(p: &mut P, spec: &Spec, op: &Op, nonce: u64) -> Offered {
    p.enter(Call::ClientPropose, INHERIT_ID);
    let (ns, function, args): (&str, &str, Vec<Vec<u8>>) = match op.kind {
        OpKind::PdcWrite => {
            let key = if spec.mix == Mix::DistinctWrites {
                format!("w{}", op.key)
            } else {
                seeded_key(op.key)
            };
            (NS_PDC, "write", vec![key.into_bytes(), b"7".to_vec()])
        }
        OpKind::PdcAdd => (
            NS_PDC,
            "add",
            vec![seeded_key(op.key).into_bytes(), b"1".to_vec()],
        ),
        OpKind::PublicPut => (
            NS_PUBLIC,
            "put",
            vec![
                format!("pub{}", op.vid % PUBLIC_KEYS).into_bytes(),
                b"1".to_vec(),
            ],
        ),
        OpKind::SbePut => (
            NS_PUBLIC,
            "put",
            vec![
                format!("sbe{}", op.key % SBE_KEYS).into_bytes(),
                b"1".to_vec(),
            ],
        ),
        OpKind::PdcQuery | OpKind::PdcReadTx => {
            (NS_PDC, "read", vec![seeded_key(op.key).into_bytes()])
        }
    };
    let org = if op.vid.is_multiple_of(2) {
        "Org1MSP"
    } else {
        "Org2MSP"
    };
    let client = Client::new(
        org,
        Keypair::generate_from_seed(CLIENT_IDENTITIES + op.vid),
        defense(spec),
    );
    let proposal = Proposal::new(
        CHANNEL,
        ns,
        function,
        args,
        BTreeMap::new(),
        client.identity().clone(),
        nonce,
    );
    p.exit();

    if op.kind == OpKind::PdcQuery {
        let member = ENDORSERS[(op.vid % 2) as usize];
        return match p.endorse(member, &proposal) {
            Some(r) => Offered::Answered {
                correct: r.payload.response.payload == seeded_value(op.key),
            },
            None => Offered::Rejected,
        };
    }
    let mut responses = Vec::with_capacity(ENDORSERS.len());
    for peer in ENDORSERS {
        match p.endorse(peer, &proposal) {
            Some(r) => responses.push(r),
            None => return Offered::Rejected,
        }
    }
    p.enter(Call::ClientAssemble, INHERIT_ID);
    let assembled = client.assemble_transaction(&proposal, &responses);
    p.exit();
    match assembled {
        Ok((tx, _)) => {
            let tx_id = tx.tx_id.clone();
            p.submit(tx);
            Offered::Submitted(tx_id)
        }
        Err(_) => Offered::Rejected,
    }
}

/// Calls `each` with the id and validation code of every transaction in
/// the blocks the first peer holds from height `from` on, and returns the
/// first peer's height.
pub fn committed_since<P: Pipeline>(
    p: &P,
    from: u64,
    mut each: impl FnMut(&TxId, TxValidationCode),
) -> u64 {
    let store = p.first_peer().block_store();
    let height = store.height();
    for block in (from..height).filter_map(|n| store.block(n)) {
        for (tx, code) in block.validated_transactions() {
            each(&tx.tx_id, code);
        }
    }
    height
}

/// The first peer's chain height.
pub fn height<P: Pipeline>(p: &P) -> u64 {
    p.first_peer().block_store().height()
}

/// The live network, driven only through its public workflow calls.
pub struct Blackbox {
    net: FabricNetwork,
    names: Vec<String>,
}

impl Blackbox {
    /// Builds, deploys and seeds. The wall time of this call is `setup_s`.
    pub fn setup(spec: &Spec) -> Self {
        let net = deploy(spec, spec.observed);
        let names = net.peer_names();
        let mut sut = Blackbox { net, names };
        seed_state(&mut sut, spec);
        sut
    }
}

impl Pipeline for Blackbox {
    fn endorse(&mut self, peer: &str, proposal: &Proposal) -> Option<ProposalResponse> {
        self.net.endorse(peer, proposal).ok()
    }

    fn submit(&mut self, tx: Transaction) {
        self.net.submit(tx);
    }

    fn tick(&mut self) {
        self.net.advance(1);
    }

    fn peers(&self) -> Vec<&Peer> {
        self.names.iter().map(|n| self.net.peer(n)).collect()
    }

    fn first_peer(&self) -> &Peer {
        self.net.peer(&self.names[0])
    }
}

/// Counts the composition takes at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub endorse_rejected: u64,
    pub fetches: u64,
    pub pulls: u64,
    pub transient_peak: u64,
    pub pending_peak: u64,
    pub blocks: u64,
    pub block_txs: u64,
    pub delivering_ticks: u64,
    /// `Err(CommitError)` returned by a peer (the network drops these).
    pub commit_errors: u64,
    pub missing_pvt: u64,
    pub valid: u64,
    pub mvcc_conflict: u64,
    pub invalid_other: u64,
    /// Per block: slowest peer's commit time over the mean.
    pub peer_skew: Vec<f64>,
    /// Per peer per block: commit time without gossip fetches, ns.
    pub process_block_ns: Vec<u64>,
}

/// The pipeline composed from public calls into each layer.
pub struct Composed {
    peers: Vec<Peer>,
    ids: Vec<PeerId>,
    orderer: OrderingService,
    gossip: GossipHub,
    /// The network's durable private-data archive: written on every
    /// dissemination and never read here, but it keeps every package
    /// alive, and so shapes the memory the run touches.
    pvt_archive: HashMap<TxId, Arc<PvtDataPackage>>,
    monitor: Option<Monitor>,
    tick_no: u64,
    pub tracer: Tracer,
    pub counts: Counts,
}

impl Composed {
    /// Builds the same network [`Blackbox::setup`] builds, takes its
    /// (still empty) peers, and seeds the state through the composition.
    /// `observed` can differ from the workload's to price observability.
    pub fn setup(spec: &Spec, observed: bool, keep_spans: usize) -> Self {
        let net = deploy(spec, observed);
        let peers: Vec<Peer> = net
            .peer_names()
            .iter()
            .map(|n| net.peer(n).clone())
            .collect();
        let ids: Vec<PeerId> = peers.iter().map(|p| p.gossip_id().clone()).collect();
        let mut gossip = GossipHub::new(NETWORK_SEED);
        for id in &ids {
            gossip.register(id.clone());
        }
        let mut orderer = OrderingService::new(
            ORDERERS,
            NETWORK_SEED,
            BatchConfig {
                max_message_count: spec.block_txs,
                batch_timeout_ticks: 2,
            },
        );
        if let Some(t) = net.telemetry() {
            orderer.set_telemetry(t.clone());
        }
        orderer.run_until_ready(10_000);
        let mut sut = Composed {
            peers,
            ids,
            orderer,
            gossip,
            pvt_archive: HashMap::new(),
            monitor: net.monitor().cloned(),
            tick_no: 0,
            tracer: Tracer::new(keep_spans),
            counts: Counts::default(),
        };
        seed_state(&mut sut, spec);
        sut
    }

    /// As `FabricNetwork::deliver_block`: every peer in name order gets a
    /// clone of the block and commits it, fetching private data from its
    /// transient store or by pull; then the block's packages are purged.
    fn deliver(&mut self, block: Block) {
        let number = block.header.number;
        self.counts.blocks += 1;
        self.counts.block_txs += block.transactions.len() as u64;
        let mut slowest = 0u64;
        let mut total = 0u64;
        for (i, peer) in self.peers.iter_mut().enumerate() {
            self.tracer.enter(Call::NetworkFanout, number);
            let delivered = block.clone();
            self.tracer.exit();

            let gossip = &mut self.gossip;
            let (own, all) = (&self.ids[i], &self.ids);
            let (mut fetch_ns, mut fetches, mut pulls) = (0u64, 0u64, 0u64);
            self.tracer.enter(Call::PeerProcessBlock, number);
            let outcome = peer.process_block(delivered, &mut |tx_id: &TxId| {
                let start = Instant::now();
                let mut found = gossip.get_shared(own, tx_id);
                if found.is_none() {
                    pulls += 1;
                    found = gossip.pull(own, tx_id, all);
                }
                fetches += 1;
                fetch_ns += start.elapsed().as_nanos() as u64;
                found
            });
            self.tracer.leaf(Call::GossipFetch, fetch_ns, fetches);
            let commit_ns = self.tracer.exit().saturating_sub(fetch_ns);

            self.counts.fetches += fetches;
            self.counts.pulls += pulls;
            self.counts.process_block_ns.push(commit_ns);
            slowest = slowest.max(commit_ns);
            total += commit_ns;
            match outcome {
                Ok(outcome) => {
                    self.counts.missing_pvt += outcome.missing_private_data.len() as u64;
                    if i == 0 {
                        for code in &outcome.validation_codes {
                            match code {
                                TxValidationCode::Valid => self.counts.valid += 1,
                                TxValidationCode::MvccReadConflict => {
                                    self.counts.mvcc_conflict += 1
                                }
                                _ => self.counts.invalid_other += 1,
                            }
                        }
                    }
                }
                Err(_) => self.counts.commit_errors += 1,
            }
        }
        if total > 0 {
            let mean = total as f64 / self.peers.len() as f64;
            self.counts.peer_skew.push(slowest as f64 / mean);
        }
        self.tracer.enter(Call::GossipPurge, number);
        self.gossip
            .purge_committed(block.transactions.iter().map(|tx| &tx.tx_id));
        self.tracer.exit();
    }
}

impl Pipeline for Composed {
    fn enter(&mut self, call: Call, id: u64) {
        self.tracer.enter(call, id);
    }

    fn exit(&mut self) {
        self.tracer.exit();
    }

    fn begin_measurement(&mut self) {
        self.tracer.reset();
        self.counts = Counts::default();
    }

    /// As `FabricNetwork::endorse` and its `disseminate`.
    fn endorse(&mut self, peer: &str, proposal: &Proposal) -> Option<ProposalResponse> {
        let i = self.ids.iter().position(|id| id.as_str() == peer)?;
        self.tracer.enter(Call::PeerEndorse, INHERIT_ID);
        let result = self.peers[i].endorse(proposal);
        self.tracer.exit();
        let Ok((response, pvt)) = result else {
            self.counts.endorse_rejected += 1;
            return None;
        };
        if let Some(pkg) = pvt {
            self.tracer.enter(Call::GossipDisseminate, INHERIT_ID);
            let pkg = Arc::new(pkg);
            let endorser = &self.ids[i];
            self.gossip.store_local(endorser, Arc::clone(&pkg));
            self.pvt_archive.insert(pkg.tx_id.clone(), Arc::clone(&pkg));
            let definition = self.peers[i]
                .chaincode(&proposal.chaincode)
                .map(|cc| cc.definition.clone());
            if let Some(definition) = definition {
                for pvt in &pkg.collections {
                    let members: Vec<PeerId> = self
                        .peers
                        .iter()
                        .filter(|p| {
                            p.gossip_id() != endorser
                                && definition.org_is_member(p.org(), &pvt.collection)
                        })
                        .map(|p| p.gossip_id().clone())
                        .collect();
                    self.gossip.push(endorser, &members, Arc::clone(&pkg));
                }
            }
            self.tracer.exit();
        }
        Some(response)
    }

    fn submit(&mut self, tx: Transaction) {
        self.tracer.enter(Call::OrdererSubmit, INHERIT_ID);
        self.orderer.submit(tx);
        self.tracer.exit();
    }

    /// As one iteration of `FabricNetwork::advance`.
    fn tick(&mut self) {
        self.tick_no += 1;
        self.tracer.enter(Call::OrdererTick, self.tick_no);
        self.orderer.tick();
        self.tracer.exit();
        self.tracer.enter(Call::OrdererTakeBlocks, self.tick_no);
        let blocks = self.orderer.take_blocks();
        self.tracer.exit();
        self.counts.pending_peak = self
            .counts
            .pending_peak
            .max(self.orderer.pending_len() as u64);
        if !blocks.is_empty() {
            self.counts.delivering_ticks += 1;
        }
        for block in blocks {
            self.deliver(block);
        }
        let transient = self
            .ids
            .iter()
            .map(|id| self.gossip.transient_len(id) as u64)
            .max()
            .unwrap_or(0);
        self.counts.transient_peak = self.counts.transient_peak.max(transient);
        if let Some(monitor) = &self.monitor {
            self.tracer.enter(Call::MonitorObserveTick, self.tick_no);
            let ordered_height = self.orderer.ordered_height();
            // The network also samples a stage histogram by metric name
            // here; the benchmark stays out of the registry's names.
            let mut samples: Vec<NodeSample> = self
                .peers
                .iter()
                .map(|peer| NodeSample {
                    node: peer.gossip_id().as_str().to_string(),
                    committed_height: peer.block_store().height(),
                    ordered_height,
                    backlog: 0,
                    gossip_pending: self.gossip.transient_len(peer.gossip_id()) as u64,
                    stage_p99_seconds: None,
                })
                .collect();
            samples.push(NodeSample {
                node: "orderer".to_string(),
                committed_height: ordered_height,
                ordered_height,
                backlog: self.orderer.pending_len() as u64,
                gossip_pending: 0,
                stage_p99_seconds: None,
            });
            monitor.observe_tick(&samples);
            self.tracer.exit();
        }
    }

    fn peers(&self) -> Vec<&Peer> {
        self.peers.iter().collect()
    }

    fn first_peer(&self) -> &Peer {
        &self.peers[0]
    }
}

/// What the correctness checks read off the peers after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerView {
    pub names: Vec<String>,
    pub heights: Vec<u64>,
    pub tips: Vec<Hash256>,
    pub chains_verify: Vec<bool>,
    /// State digest per peer, with whether the peer's org is a member of
    /// the collection.
    pub digests: Vec<(bool, Hash256)>,
    /// Per block past set-up, whether every peer wrote the first peer's
    /// validity vector.
    pub validity_agrees: bool,
    /// Valid / MVCC-conflict / otherwise-invalid transactions past set-up,
    /// by the first peer's validity vectors.
    pub valid: u64,
    pub mvcc_conflict: u64,
    pub invalid_other: u64,
    /// Seeded keys for which a non-member peer holds no hash, or holds a
    /// private value.
    pub non_member_violations: u64,
    /// Committed transactions past set-up whose payload is in the clear.
    pub plaintext_payloads: u64,
}

/// Reads the ledgers of every peer. `from` is the chain height when
/// set-up ended.
pub fn ledger_view<P: Pipeline>(p: &P, from: u64) -> LedgerView {
    let peers = p.peers();
    let ns = ChaincodeId::new(NS_PDC);
    let collection = CollectionName::new(COLLECTION);
    let is_member = |peer: &Peer| {
        peer.chaincode(&ns)
            .is_some_and(|cc| cc.definition.org_is_member(peer.org(), &collection))
    };
    let first = peers[0].block_store();
    let mut view = LedgerView {
        names: peers
            .iter()
            .map(|p| p.gossip_id().as_str().to_string())
            .collect(),
        heights: peers.iter().map(|p| p.block_store().height()).collect(),
        tips: peers.iter().map(|p| p.block_store().tip_hash()).collect(),
        chains_verify: peers
            .iter()
            .map(|p| p.block_store().verify_chain())
            .collect(),
        digests: peers
            .iter()
            .map(|p| (is_member(p), p.world_state().digest()))
            .collect(),
        validity_agrees: true,
        valid: 0,
        mvcc_conflict: 0,
        invalid_other: 0,
        non_member_violations: 0,
        plaintext_payloads: 0,
    };
    for n in from..first.height() {
        let block = first.block(n).expect("below height");
        for (tx, code) in block.validated_transactions() {
            match code {
                TxValidationCode::Valid => view.valid += 1,
                TxValidationCode::MvccReadConflict => view.mvcc_conflict += 1,
                _ => view.invalid_other += 1,
            }
            if tx.commitment == PayloadCommitment::Plain {
                view.plaintext_payloads += 1;
            }
        }
        view.validity_agrees &= peers.iter().all(|p| {
            p.block_store()
                .block(n)
                .is_some_and(|b| b.metadata.validation_codes == block.metadata.validation_codes)
        });
    }
    for peer in peers.iter().filter(|p| !is_member(p)) {
        let state = peer.world_state();
        for i in 0..SEEDED_KEYS as u64 {
            let key = seeded_key(i);
            if state.get_private_hash(&ns, &collection, &key).is_none()
                || state.get_private(&ns, &collection, &key).is_some()
            {
                view.non_member_violations += 1;
            }
        }
    }
    view
}

/// Probes of the layers under the orderer, on the run's own batches.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub encode_us_per_tx: f64,
    pub decode_us_per_tx: f64,
    pub bytes_per_tx: f64,
    pub sign_header_us: f64,
    pub raft_replicate_us_per_entry: f64,
    pub raft_ticks_to_commit: Vec<u64>,
    pub raft_messages_per_entry: f64,
    pub sha256_mb_s: f64,
}

/// Re-does, in isolation, what the orderer does to each batch: encode it,
/// replicate the bytes through a standalone 3-node Raft cluster, decode
/// it, and sign the block header. The batches are the blocks the run
/// itself cut after set-up (at most `max_batches` of them).
pub fn probes<P: Pipeline>(p: &P, from: u64, max_batches: usize) -> Probes {
    let store = p.first_peer().block_store();
    let blocks: Vec<&Block> = (from..store.height())
        .filter_map(|n| store.block(n))
        .take(max_batches)
        .collect();
    let mut out = Probes::default();
    let txs: usize = blocks.iter().map(|b| b.transactions.len()).sum();
    if txs == 0 {
        return out;
    }
    // Cloned transactions carry empty encode memos, as freshly submitted
    // ones do when the orderer encodes them.
    let batches: Vec<Vec<Transaction>> = blocks.iter().map(|b| b.transactions.to_vec()).collect();
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = batches.iter().map(|b| b.to_wire()).collect();
    out.encode_us_per_tx = start.elapsed().as_secs_f64() * 1e6 / txs as f64;
    out.bytes_per_tx = encoded.iter().map(Vec::len).sum::<usize>() as f64 / txs as f64;

    let start = Instant::now();
    for bytes in &encoded {
        let decoded = Vec::<Transaction>::from_wire(bytes).expect("own encoding decodes");
        std::hint::black_box(decoded);
    }
    out.decode_us_per_tx = start.elapsed().as_secs_f64() * 1e6 / txs as f64;

    let keypair = Keypair::generate_from_seed(NETWORK_SEED ^ 0x0de7);
    let start = Instant::now();
    for block in &blocks {
        std::hint::black_box(keypair.sign(&block.header.to_wire()));
    }
    out.sign_header_us = start.elapsed().as_secs_f64() * 1e6 / blocks.len() as f64;

    let mut cluster = Cluster::new(ORDERERS, NETWORK_SEED);
    let leader = cluster.run_until_leader(10_000).expect("raft elects");
    let before = cluster.stats();
    let mut cursor = cluster.committed_len(1);
    let start = Instant::now();
    for bytes in encoded {
        if cluster.propose(leader, bytes).is_err() {
            continue;
        }
        let mut ticks = 0;
        while cluster.committed_since(1, cursor).is_empty() && ticks < 1_000 {
            cluster.tick();
            ticks += 1;
        }
        cursor = cluster.committed_len(1);
        out.raft_ticks_to_commit.push(ticks);
    }
    let entries = out.raft_ticks_to_commit.len().max(1) as f64;
    out.raft_replicate_us_per_entry = start.elapsed().as_secs_f64() * 1e6 / entries;
    let delivered = cluster.stats().messages_delivered - before.messages_delivered;
    out.raft_messages_per_entry = delivered as f64 / entries;

    // The host's SHA-256 rate, to compare results across machines.
    let buffer = vec![0xa5u8; 1 << 20];
    let mut hashed_mb = 0.0;
    let start = Instant::now();
    while start.elapsed().as_millis() < 50 {
        std::hint::black_box(sha256(std::hint::black_box(&buffer)));
        hashed_mb += 1.0;
    }
    out.sha256_mb_s = hashed_mb / start.elapsed().as_secs_f64();
    out
}
