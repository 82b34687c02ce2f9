//! Open-loop traffic generation against a live [`FabricNetwork`].
//!
//! The generator models millions of client identities (identities are
//! derived lazily from a virtual-client index, so the identity space
//! costs nothing until an index is drawn) submitting a weighted mix of
//! public, private-data, and SBE operations at a configured arrival
//! rate. The loop is **open**: arrivals follow the schedule regardless
//! of how far behind the network falls, which is what exposes the
//! saturation knee — a closed loop would simply slow its own offered
//! load to match capacity.
//!
//! Per tick the harness (1) injects the scheduled arrivals (endorse,
//! assemble, submit), (2) advances the network one tick, (3) routes the
//! tick's trace spans to their in-flight transactions, and (4) resolves
//! commits/aborts against the ledger, feeding committed-transaction
//! timelines into `fabric_tx_phase_seconds`. Every draw comes from one
//! seeded generator and all accounting is in logical ticks, so the
//! schedule and the deterministic half of the resulting [`LoadPoint`]
//! are reproducible bit for bit.

use crate::config::{OpKind, WorkloadConfig};
use crate::score::{detect_knee, KneePoint, LoadPoint, WorkloadScorer};
use crate::zipf::ZipfSampler;
use fabric_attacks::{ColludingGuardedPdc, MaliciousClient};
use fabric_chaincode::samples::{GuardedPdc, SbeDemo};
use fabric_chaincode::ChaincodeDefinition;
use fabric_client::Client;
use fabric_crypto::Keypair;
use fabric_monitor::Monitor;
use fabric_network::{FabricNetwork, NetworkBuilder};
use fabric_orderer::BatchConfig;
use fabric_telemetry::{SpanRecord, Telemetry, TraceContext, TxTimeline};
use fabric_types::{
    ChaincodeId, ChannelId, CollectionConfig, DefenseConfig, OrgId, Proposal, TxId,
    TxValidationCode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Namespace of the private-data (GuardedPdc) chaincode.
pub const GUARDED_NS: &str = "wlguarded";
/// Namespace of the public/SBE (SbeDemo) chaincode.
pub const SBE_NS: &str = "wlsbe";
/// The private collection all PDC lanes write into.
pub const COLLECTION: &str = "WLPDC";

/// Collection-level endorsement policy (also seeded as the key-level
/// policy of every SBE key).
const PDC_POLICY: &str = "AND('Org1MSP.peer','Org2MSP.peer')";
/// Number of public keys carrying a seeded key-level SBE policy.
const SBE_KEYS: u64 = 8;
/// Number of uncontended public-state keys.
const PUBLIC_KEYS: u64 = 64;
/// Keypair-seed base for virtual client identities; disjoint from the
/// seeding and attacker identity spaces below.
const CLIENT_SEED_BASE: u64 = 1 << 32;
/// Keypair seed of the state-seeding client.
const SEEDER_IDENTITY: u64 = 1 << 33;
/// Keypair seed of the colluding attacker.
const ATTACKER_IDENTITY: u64 = (1 << 34) | 0xbad;

fn pdc_key(i: usize) -> String {
    format!("k{i}")
}

fn sbe_key(j: u64) -> String {
    format!("sbe{j}")
}

/// One submitted, not-yet-resolved transaction.
struct InFlight {
    tx_id: TxId,
    trace_id: u64,
    submit_tick: u64,
}

enum Arrival {
    /// Endorsed, assembled, and handed to ordering.
    Submitted { flight: InFlight, adversarial: bool },
    /// Refused at endorsement (BTL-expired read, unknown key, refused
    /// peer) — never reached the orderer.
    RejectedEndorse,
}

/// Deterministic operation generator: one seeded RNG drives lane
/// selection, key skew, identity draws, and fault injection.
struct OpGen {
    rng: StdRng,
    zipf: ZipfSampler,
    channel: ChannelId,
    cfg: WorkloadConfig,
    /// Global proposal nonce: tx IDs derive from (identity, nonce), so a
    /// shared counter keeps IDs unique even when a virtual client
    /// recurs.
    nonce: u64,
    attacker: Option<MaliciousClient>,
}

impl OpGen {
    fn new(cfg: &WorkloadConfig, channel: ChannelId) -> Self {
        let attacker = (cfg.adversarial_fraction > 0.0).then(|| {
            MaliciousClient::new(
                "Org3MSP",
                Keypair::generate_from_seed(ATTACKER_IDENTITY ^ cfg.seed),
            )
        });
        OpGen {
            rng: StdRng::seed_from_u64(cfg.seed),
            zipf: ZipfSampler::new(cfg.key_space, cfg.zipf_skew),
            channel,
            cfg: cfg.clone(),
            nonce: 0,
            attacker,
        }
    }

    fn arrival(&mut self, net: &mut FabricNetwork, tick: u64) -> Arrival {
        if self.cfg.adversarial_fraction > 0.0 && self.rng.gen_bool(self.cfg.adversarial_fraction) {
            return self.adversarial_arrival(net, tick);
        }
        let kind = self
            .cfg
            .mix
            .pick(self.rng.gen_range(0..self.cfg.mix.total()));
        let key = self.zipf.sample(&mut self.rng);
        let vid = self.rng.gen_range(0..self.cfg.virtual_clients.max(1));
        let lose_endorsement = self.cfg.endorser_failure_prob > 0.0
            && self.rng.gen_bool(self.cfg.endorser_failure_prob);

        let (ns, function, args): (&str, &str, Vec<Vec<u8>>) = match kind {
            OpKind::PdcAdd => (
                GUARDED_NS,
                "add",
                vec![pdc_key(key).into_bytes(), b"1".to_vec()],
            ),
            OpKind::PdcWrite => (
                GUARDED_NS,
                "write",
                vec![pdc_key(key).into_bytes(), b"7".to_vec()],
            ),
            OpKind::Public => (
                SBE_NS,
                "put",
                vec![
                    format!("pub{}", vid % PUBLIC_KEYS).into_bytes(),
                    b"1".to_vec(),
                ],
            ),
            OpKind::Sbe => (
                SBE_NS,
                "put",
                vec![sbe_key(key as u64 % SBE_KEYS).into_bytes(), b"1".to_vec()],
            ),
        };

        let org = if vid % 2 == 0 { "Org1MSP" } else { "Org2MSP" };
        let client = Client::new(
            org,
            Keypair::generate_from_seed(CLIENT_SEED_BASE + vid),
            DefenseConfig::hardened(),
        );
        self.nonce += 1;
        let proposal = Proposal::new(
            self.channel.clone(),
            ChaincodeId::new(ns),
            function,
            args,
            BTreeMap::new(),
            client.identity().clone(),
            self.nonce,
        );
        let mut responses = Vec::new();
        for peer in ["peer0.org1", "peer0.org2"] {
            match net.endorse(peer, &proposal) {
                Ok(r) => responses.push(r),
                Err(_) => return Arrival::RejectedEndorse,
            }
            if lose_endorsement {
                // Injected endorser failure: the client gives up on the
                // second endorsement and submits anyway — the policy
                // check at validation is what catches it.
                break;
            }
        }
        let Ok((tx, _)) = client.assemble_transaction(&proposal, &responses) else {
            return Arrival::RejectedEndorse;
        };
        Arrival::Submitted {
            flight: submit(net, tx, tick),
            adversarial: false,
        }
    }

    /// A colluding client from the attack lab: endorsed only by the
    /// non-member org's peer (running [`ColludingGuardedPdc`]), SDK
    /// checks bypassed. Validation audits the non-member endorsement
    /// (Use Case 1) and, under the hardened defense, rejects it.
    fn adversarial_arrival(&mut self, net: &mut FabricNetwork, tick: u64) -> Arrival {
        let key = self.zipf.sample(&mut self.rng);
        let attacker = self.attacker.as_mut().expect("adversarial lane is on");
        let proposal = attacker.create_proposal(
            self.channel.clone(),
            ChaincodeId::new(GUARDED_NS),
            "write",
            vec![pdc_key(key).into_bytes(), b"9999".to_vec()],
            BTreeMap::new(),
        );
        let response = match net.endorse("peer0.org3", &proposal) {
            Ok(r) => r,
            Err(_) => return Arrival::RejectedEndorse,
        };
        match attacker.assemble_unchecked(&proposal, &[response]) {
            Some(tx) => Arrival::Submitted {
                flight: submit(net, tx, tick),
                adversarial: true,
            },
            None => Arrival::RejectedEndorse,
        }
    }
}

fn submit(net: &mut FabricNetwork, tx: fabric_types::Transaction, tick: u64) -> InFlight {
    let tx_id = tx.tx_id.clone();
    let trace_id = TraceContext::for_tx(tx_id.as_str()).trace_id;
    net.submit(tx);
    InFlight {
        tx_id,
        trace_id,
        submit_tick: tick,
    }
}

/// Builds the network under test: two member orgs (plus a non-member
/// third when the adversarial lane is on), the guarded PDC chaincode
/// with a collection-level policy and optional BlockToLive, the SBE
/// demo chaincode, and the colluding chaincode on the attacker's peer.
fn build_network(cfg: &WorkloadConfig, telemetry: &Telemetry, monitor: Monitor) -> FabricNetwork {
    let adversarial = cfg.adversarial_fraction > 0.0;
    let orgs: &[&str] = if adversarial {
        &["Org1MSP", "Org2MSP", "Org3MSP"]
    } else {
        &["Org1MSP", "Org2MSP"]
    };
    let mut net = NetworkBuilder::new("workload")
        .orgs(orgs)
        .seed(cfg.seed)
        .defense(DefenseConfig::hardened())
        .batch(BatchConfig {
            max_message_count: cfg.block_txs.max(1),
            batch_timeout_ticks: 2,
        })
        .with_telemetry(telemetry.clone())
        .with_monitor(monitor)
        .build();

    let mut collection = CollectionConfig::membership_of(
        COLLECTION,
        &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
    )
    .with_member_only_read(false)
    .with_endorsement_policy(PDC_POLICY);
    if cfg.block_to_live > 0 {
        collection = collection.with_block_to_live(cfg.block_to_live);
    }
    let guarded_def = ChaincodeDefinition::new(GUARDED_NS)
        .with_endorsement_policy("MAJORITY Endorsement")
        .with_collection(collection);
    net.deploy_chaincode(
        guarded_def.clone(),
        Arc::new(GuardedPdc::unconstrained(COLLECTION)),
    );
    net.deploy_chaincode(
        ChaincodeDefinition::new(SBE_NS).with_endorsement_policy("MAJORITY Endorsement"),
        Arc::new(SbeDemo),
    );
    if adversarial {
        net.install_custom_chaincode(
            "peer0.org3",
            guarded_def,
            Arc::new(ColludingGuardedPdc::new(COLLECTION, 9999)),
        );
    }
    for i in 0..cfg.extra_peers {
        let org = if i % 2 == 0 { "Org1MSP" } else { "Org2MSP" };
        net.add_peer(org);
    }
    net
}

/// Commits the initial world state: every PDC key holds an integer (so
/// `add` has something to read until BlockToLive expires it) and every
/// SBE key exists with a committed key-level endorsement policy.
fn seed_state(net: &mut FabricNetwork, cfg: &WorkloadConfig) {
    let channel = net.channel().clone();
    let mut seeder = Client::new(
        "Org1MSP",
        Keypair::generate_from_seed(SEEDER_IDENTITY ^ cfg.seed),
        DefenseConfig::hardened(),
    );
    let submit_seed = |net: &mut FabricNetwork,
                       seeder: &mut Client,
                       ns: &str,
                       function: &str,
                       args: Vec<Vec<u8>>|
     -> TxId {
        let proposal = seeder.create_proposal(
            channel.clone(),
            ChaincodeId::new(ns),
            function,
            args,
            BTreeMap::new(),
        );
        let r1 = net.endorse("peer0.org1", &proposal).expect("seed endorse");
        let r2 = net.endorse("peer0.org2", &proposal).expect("seed endorse");
        let (tx, _) = seeder
            .assemble_transaction(&proposal, &[r1, r2])
            .expect("seed assemble");
        let tx_id = tx.tx_id.clone();
        net.submit(tx);
        tx_id
    };

    let mut pending = Vec::new();
    for i in 0..cfg.key_space {
        pending.push(submit_seed(
            net,
            &mut seeder,
            GUARDED_NS,
            "write",
            vec![pdc_key(i).into_bytes(), b"10".to_vec()],
        ));
    }
    for j in 0..SBE_KEYS {
        pending.push(submit_seed(
            net,
            &mut seeder,
            SBE_NS,
            "put",
            vec![sbe_key(j).into_bytes(), b"1".to_vec()],
        ));
    }
    wait_all_valid(net, &pending, "seed writes");

    // Key-level policies go in a later block than the puts so the SBE
    // path is exercised by committed state, not in-block re-checks.
    let mut pending = Vec::new();
    for j in 0..SBE_KEYS {
        pending.push(submit_seed(
            net,
            &mut seeder,
            SBE_NS,
            "set_policy",
            vec![sbe_key(j).into_bytes(), PDC_POLICY.as_bytes().to_vec()],
        ));
    }
    wait_all_valid(net, &pending, "SBE policies");
}

fn wait_all_valid(net: &mut FabricNetwork, pending: &[TxId], what: &str) {
    for _ in 0..10_000 {
        if pending
            .iter()
            .all(|id| net.transaction_status(id).is_some())
        {
            for id in pending {
                assert_eq!(
                    net.transaction_status(id),
                    Some(TxValidationCode::Valid),
                    "{what}: seed tx {id} must commit Valid"
                );
            }
            return;
        }
        net.advance(1);
    }
    panic!("{what}: seed transactions did not commit");
}

/// Runs one load point: seeds the network, offers `cfg.ticks` ticks of
/// open-loop arrivals at `cfg.offered_rate`, drains the backlog, and
/// scores the result from the telemetry streams.
pub fn run(cfg: &WorkloadConfig) -> LoadPoint {
    assert!(cfg.mix.total() > 0, "op mix needs at least one lane");
    let telemetry = Telemetry::new();
    let monitor = Monitor::new(&telemetry);
    let mut net = build_network(cfg, &telemetry, monitor);
    seed_state(&mut net, cfg);

    // Score the run against a quiet network: drop seed-phase traces and
    // re-baseline the monitor.
    let sink = telemetry.trace().expect("default telemetry traces");
    sink.clear();
    let run_monitor = net.monitor().expect("monitor attached").clone();
    run_monitor.reset();
    let mut scorer = WorkloadScorer::new(&telemetry, &run_monitor);

    let mut gen = OpGen::new(cfg, net.channel().clone());
    let window = cfg.window_ticks.max(1);
    let drain_budget = 4 * cfg.ticks + 256;

    let mut credit = 0.0_f64;
    let mut tick = 0_u64;
    let mut drain_ticks = 0_u64;
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut spans_by_trace: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut peak_in_flight = 0_usize;

    let (mut offered, mut submitted, mut adversarial, mut rejected_endorse) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut committed, mut aborted_mvcc, mut invalid_other) = (0u64, 0u64, 0u64);

    loop {
        let offering = tick < cfg.ticks;
        if !offering && (inflight.is_empty() || drain_ticks >= drain_budget) {
            break;
        }
        tick += 1;
        if offering {
            credit += cfg.offered_rate;
            while credit >= 1.0 {
                credit -= 1.0;
                offered += 1;
                match gen.arrival(&mut net, tick) {
                    Arrival::Submitted {
                        flight,
                        adversarial: adv,
                    } => {
                        submitted += 1;
                        if adv {
                            adversarial += 1;
                        }
                        spans_by_trace.entry(flight.trace_id).or_default();
                        inflight.push_back(flight);
                    }
                    Arrival::RejectedEndorse => rejected_endorse += 1,
                }
            }
        } else {
            drain_ticks += 1;
        }
        peak_in_flight = peak_in_flight.max(inflight.len());
        net.advance(1);

        // Route this tick's spans to their in-flight transactions;
        // spans of untracked traces (endorse-rejected arrivals, node
        // housekeeping) are dropped on the floor.
        for record in sink.drain() {
            if let Some(bucket) = spans_by_trace.get_mut(&record.trace_id) {
                bucket.push(record);
            }
        }

        let mut unresolved = VecDeque::with_capacity(inflight.len());
        for flight in inflight.drain(..) {
            match net.transaction_status(&flight.tx_id) {
                None => unresolved.push_back(flight),
                Some(code) => {
                    let spans = spans_by_trace.remove(&flight.trace_id).unwrap_or_default();
                    match code {
                        TxValidationCode::Valid => {
                            committed += 1;
                            latencies.push(tick - flight.submit_tick + 1);
                            TxTimeline::collect(&spans, flight.tx_id.as_str())
                                .record_phase_metrics(telemetry.metrics());
                        }
                        TxValidationCode::MvccReadConflict => aborted_mvcc += 1,
                        _ => invalid_other += 1,
                    }
                }
            }
        }
        inflight = unresolved;

        if tick.is_multiple_of(window) {
            scorer.close_window(tick, &run_monitor, submitted, committed, aborted_mvcc);
        }
    }
    if !tick.is_multiple_of(window) || tick == 0 {
        scorer.close_window(tick, &run_monitor, submitted, committed, aborted_mvcc);
    }

    let unresolved = inflight.len() as u64;
    latencies.sort_unstable();
    let lat = |q: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[(((latencies.len() - 1) as f64) * q).round() as usize]
        }
    };

    let windows = scorer.into_windows();
    let mut audit_events: BTreeMap<String, u64> = BTreeMap::new();
    let mut alerts: Vec<String> = Vec::new();
    for w in &windows {
        for (kind, n) in &w.audit {
            *audit_events.entry(kind.clone()).or_insert(0) += n;
        }
        alerts.extend(w.alerts_fired.iter().cloned());
    }
    alerts.sort();
    alerts.dedup();

    let mut phase_p50_ms = BTreeMap::new();
    let mut phase_p99_ms = BTreeMap::new();
    for phase in fabric_telemetry::PHASES {
        if let Some(h) = telemetry
            .metrics()
            .find_histogram("fabric_tx_phase_seconds", &[("phase", phase)])
        {
            if let Some(p50) = h.quantile(0.5) {
                phase_p50_ms.insert(phase.to_string(), p50 * 1e3);
            }
            if let Some(p99) = h.quantile(0.99) {
                phase_p99_ms.insert(phase.to_string(), p99 * 1e3);
            }
        }
    }

    let total_ticks = (cfg.ticks + drain_ticks).max(1);
    LoadPoint {
        offered_rate: cfg.offered_rate,
        ticks: cfg.ticks,
        drain_ticks,
        block_capacity_per_tick: cfg.block_txs as u64,
        offered,
        submitted,
        adversarial,
        rejected_endorse,
        committed,
        aborted_mvcc,
        invalid_other,
        unresolved,
        peak_in_flight,
        goodput_per_tick: committed as f64 / total_ticks as f64,
        abort_rate: if submitted > 0 {
            aborted_mvcc as f64 / submitted as f64
        } else {
            0.0
        },
        latency_ticks_p50: lat(0.5),
        latency_ticks_p99: lat(0.99),
        audit_events,
        alerts,
        phase_p50_ms,
        phase_p99_ms,
        windows,
    }
}

/// One latency-vs-load curve: the same workload shape swept across
/// ascending offered rates, with the detected saturation knee.
#[derive(Debug, Clone)]
pub struct SweepCurve {
    /// Curve label for rendering (e.g. `skew0.99/pdc-heavy/2peers`).
    pub label: String,
    /// The base configuration (offered_rate is overridden per point).
    pub config: WorkloadConfig,
    /// One load point per offered rate, ascending.
    pub points: Vec<LoadPoint>,
    /// First saturated point, if the sweep reached saturation.
    pub knee: Option<KneePoint>,
}

/// Sweeps `base` across `rates` (each point runs on a fresh network)
/// and detects the knee.
pub fn run_sweep(label: &str, base: &WorkloadConfig, rates: &[f64]) -> SweepCurve {
    let mut points = Vec::with_capacity(rates.len());
    for &rate in rates {
        let mut cfg = base.clone();
        cfg.offered_rate = rate;
        points.push(run(&cfg));
    }
    let knee = detect_knee(&points);
    SweepCurve {
        label: label.to_string(),
        config: base.clone(),
        points,
        knee,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OpMix;

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            seed: 11,
            extra_peers: 0,
            virtual_clients: 1_000,
            key_space: 16,
            zipf_skew: 0.9,
            mix: OpMix::pdc_heavy(),
            offered_rate: 2.0,
            ticks: 40,
            window_ticks: 20,
            block_txs: 4,
            block_to_live: 0,
            endorser_failure_prob: 0.1,
            adversarial_fraction: 0.1,
        }
    }

    #[test]
    fn small_mixed_run_commits_and_accounts_for_every_arrival() {
        let point = run(&small_cfg());
        assert_eq!(point.offered, 80, "open loop offers rate x ticks arrivals");
        assert_eq!(
            point.offered,
            point.submitted + point.rejected_endorse,
            "every arrival is either submitted or endorse-rejected"
        );
        assert_eq!(
            point.submitted,
            point.committed + point.aborted_mvcc + point.invalid_other + point.unresolved,
            "every submitted tx resolves exactly once"
        );
        assert!(point.committed > 0, "honest traffic commits: {point:?}");
        assert!(
            point.adversarial > 0 && point.invalid_other > 0,
            "the adversarial lane submits and gets rejected: {point:?}"
        );
        assert!(
            point
                .audit_events
                .get("endorsement_by_non_member")
                .copied()
                .unwrap_or(0)
                > 0,
            "non-member endorsements are audited: {:?}",
            point.audit_events
        );
        assert!(point.latency_ticks_p50 >= 1);
        assert!(point.windows.len() >= 2, "windowed samples accumulate");
    }

    #[test]
    fn btl_expiry_rejects_adds_on_cold_keys() {
        let mut cfg = small_cfg();
        cfg.adversarial_fraction = 0.0;
        cfg.endorser_failure_prob = 0.0;
        cfg.block_to_live = 4;
        cfg.zipf_skew = 2.0; // hot head: the tail goes cold and expires
        cfg.ticks = 120;
        cfg.window_ticks = 40;
        cfg.mix = OpMix {
            pdc_add: 80,
            pdc_write: 20,
            public: 0,
            sbe: 0,
        };
        let point = run(&cfg);
        assert!(
            point.rejected_endorse > 0,
            "adds on BTL-expired keys are refused at endorsement: {point:?}"
        );
        assert!(point.committed > 0, "hot keys stay alive: {point:?}");
    }
}
