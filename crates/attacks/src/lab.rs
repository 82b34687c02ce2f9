//! The §V-A experiment harness: prototype networks and attack runners.

use crate::collusion::ColludingGuardedPdc;
use crate::mal_client::MaliciousClient;
use fabric_chaincode::samples::{Guard, GuardedPdc};
use fabric_chaincode::ChaincodeDefinition;
use fabric_crypto::Keypair;
use fabric_monitor::{AlertTransition, Monitor};
use fabric_network::{FabricNetwork, NetworkBuilder};
use fabric_telemetry::{AuditEvent, Telemetry};
use fabric_types::{
    ChaincodeId, CollectionConfig, CollectionName, DefenseConfig, OrgId, TxValidationCode,
};
use std::collections::BTreeMap;
use std::fmt;

/// The chaincode namespace used by the lab.
pub const LAB_CHAINCODE: &str = "guarded";
/// The private data collection shared by org1 and org2.
pub const LAB_COLLECTION: &str = "PDC1";
/// The genuine private value committed before any attack (satisfies both
/// org1's `< 15` and org2's `> 10`).
pub const GENUINE_VALUE: i64 = 12;
/// The value the colluders pretend the key holds (read forgery).
pub const FAKE_READ_VALUE: i64 = 3;
/// The value the fake write/read-write attacks inject (violates org2's
/// `> 10` rule).
pub const INJECTED_VALUE: i64 = 5;

/// Which chaincode-level endorsement policy the lab channel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaincodePolicy {
    /// The Fabric default, `MAJORITY Endorsement` (116 of 120 GitHub
    /// configs, §V-C2).
    MajorityEndorsement,
    /// `OutOf(n, <every org's peer>)` — the paper's §IV-A5/§V-A5 setting.
    NOutOf(u32),
}

impl ChaincodePolicy {
    /// Renders the policy expression for `org_count` organizations.
    pub fn expression(&self, org_count: usize) -> String {
        match self {
            ChaincodePolicy::MajorityEndorsement => "MAJORITY Endorsement".to_string(),
            ChaincodePolicy::NOutOf(n) => {
                let principals: Vec<String> = (1..=org_count)
                    .map(|i| format!("'Org{i}MSP.peer'"))
                    .collect();
                format!("OutOf({n},{})", principals.join(","))
            }
        }
    }
}

/// The four fake-PDC-results injection attacks of §IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// §IV-A1 / §V-A1: fabricate a PDC read-only transaction.
    FakeRead,
    /// §IV-A2 / §V-A2: inject a write that violates the victim's rules.
    FakeWrite,
    /// §IV-A3 / §V-A3: forge the read half to steer a read-write update.
    FakeReadWrite,
    /// §IV-A4 / §V-A4: delete a private key against the victim's rules.
    FakeDelete,
}

impl AttackKind {
    /// All four injection attacks in paper order.
    pub fn all() -> [AttackKind; 4] {
        [
            AttackKind::FakeRead,
            AttackKind::FakeWrite,
            AttackKind::FakeReadWrite,
            AttackKind::FakeDelete,
        ]
    }

    /// The paper's row label (Table II).
    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::FakeRead => "Read-Only",
            AttackKind::FakeWrite => "Write-Only",
            AttackKind::FakeReadWrite => "Read-Write",
            AttackKind::FakeDelete => "Delete-Related",
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of one prototype system (§V-A).
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Number of organizations (3 for the base experiments, 5 for NOutOf).
    pub org_count: usize,
    /// Chaincode-level endorsement policy.
    pub chaincode_policy: ChaincodePolicy,
    /// Optional collection-level endorsement policy for the PDC.
    pub collection_policy: Option<String>,
    /// Defense configuration of peers and clients.
    pub defense: DefenseConfig,
    /// Determinism seed.
    pub seed: u64,
}

impl Default for LabConfig {
    fn default() -> Self {
        LabConfig {
            org_count: 3,
            chaincode_policy: ChaincodePolicy::MajorityEndorsement,
            collection_policy: None,
            defense: DefenseConfig::original(),
            seed: 42,
        }
    }
}

impl LabConfig {
    /// The peers the attacker controls: org1+org3 in the 3-org setting
    /// (org1 is a malicious *member*, org3 a malicious non-member);
    /// org3+org4 — both non-members — in the 5-org NOutOf setting (§V-A5).
    pub fn malicious_peers(&self) -> Vec<String> {
        if self.org_count >= 5 {
            vec!["peer0.org3".into(), "peer0.org4".into()]
        } else {
            vec!["peer0.org1".into(), "peer0.org3".into()]
        }
    }

    /// The organization whose client launches the attacks.
    pub fn attacker_org(&self) -> OrgId {
        if self.org_count >= 5 {
            OrgId::new("Org3MSP")
        } else {
            OrgId::new("Org1MSP")
        }
    }
}

/// A built prototype network plus its configuration.
#[derive(Debug)]
pub struct AttackLab {
    /// The running network, seeded with the genuine private value.
    pub net: FabricNetwork,
    /// The configuration it was built from.
    pub cfg: LabConfig,
    /// The attacker-controlled client (its nonce spans all attack runs on
    /// this lab, so fabricated transactions get distinct IDs).
    attacker: MaliciousClient,
}

/// The outcome of one attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Which attack ran.
    pub kind: AttackKind,
    /// The validation code the network assigned, when the transaction made
    /// it to a block.
    pub validation_code: Option<TxValidationCode>,
    /// Whether the attack achieved its goal (per the paper's criteria).
    pub succeeded: bool,
    /// Human-readable explanation.
    pub note: String,
    /// Security-audit events the network emitted while this attack ran
    /// (the lab attaches a shared [`Telemetry`] pipeline, so every attack
    /// leaves a forensic trail even when it succeeds).
    pub audit_events: Vec<AuditEvent>,
    /// Alert-state transitions the lab's [`Monitor`] logged while this
    /// attack ran — which detection rules fired (and resolved) on it.
    pub alerts: Vec<AlertTransition>,
}

/// Builds the §V-A prototype: `org_count` orgs, PDC1 = {org1, org2},
/// org-specific business guards (org1 `< 15`, org2 `> 10`, others
/// unconstrained), colluding chaincode on the malicious peers, and the
/// genuine value `k1 = 12` committed honestly.
///
/// # Panics
///
/// Panics if the honest seeding transaction fails — that would mean the
/// substrate itself is broken, which the integration tests guard against.
pub fn build_lab(cfg: &LabConfig) -> AttackLab {
    let org_names: Vec<String> = (1..=cfg.org_count).map(|i| format!("Org{i}MSP")).collect();
    let org_refs: Vec<&str> = org_names.iter().map(String::as_str).collect();
    let telemetry = Telemetry::new();
    let mut net = NetworkBuilder::new("mychannel")
        .orgs(&org_refs)
        .seed(cfg.seed)
        .defense(cfg.defense)
        .with_telemetry(telemetry.clone())
        .with_monitor(Monitor::new(&telemetry))
        .build();

    let mut collection = CollectionConfig::membership_of(
        LAB_COLLECTION,
        &[OrgId::new("Org1MSP"), OrgId::new("Org2MSP")],
    );
    if let Some(p) = &cfg.collection_policy {
        collection = collection.with_endorsement_policy(p.clone());
    }
    // MemberOnlyRead is off in the paper's prototypes: the read service is
    // offered to clients of any org (that is what gets audited on-chain).
    collection = collection.with_member_only_read(false);
    let definition = ChaincodeDefinition::new(LAB_CHAINCODE)
        .with_endorsement_policy(cfg.chaincode_policy.expression(cfg.org_count))
        .with_collection(collection);

    // Honest variants with each org's business rules.
    for i in 1..=cfg.org_count {
        let peer = format!("peer0.org{i}");
        let guard = match i {
            1 => (Guard::LessThan(15), Guard::LessThan(15)),
            2 => (Guard::GreaterThan(10), Guard::GreaterThan(10)),
            _ => (Guard::Always, Guard::Always),
        };
        net.install_custom_chaincode(
            &peer,
            definition.clone(),
            std::sync::Arc::new(GuardedPdc::new(LAB_COLLECTION, guard.0, guard.1)),
        );
    }
    // Colluding variants on the malicious peers. Malicious peers also do
    // not run the (voluntary) New-Feature-2 endorser path — they sign the
    // plaintext payload form like unpatched peers; validation-side flags
    // stay uniform so honest committers agree on validity.
    for peer in cfg.malicious_peers() {
        net.install_custom_chaincode(
            &peer,
            definition.clone(),
            std::sync::Arc::new(ColludingGuardedPdc::new(LAB_COLLECTION, FAKE_READ_VALUE)),
        );
    }

    // Seed the genuine value honestly: endorsed by both PDC members.
    let outcome = net
        .submit_transaction(
            "client0.org1",
            LAB_CHAINCODE,
            "write",
            &["k1", &GENUINE_VALUE.to_string()],
            &[],
            &["peer0.org1", "peer0.org2"],
        )
        .expect("seeding the genuine value must succeed");
    assert!(
        outcome.validation_code.is_valid(),
        "seed tx invalid: {}",
        outcome.validation_code
    );

    // Only now downgrade the malicious peers' endorser behaviour: they do
    // not run the (voluntary) New-Feature-2 signing path. Done after the
    // honest seeding so the honest client saw uniform commitments.
    for peer in cfg.malicious_peers() {
        net.peer_mut(&peer).set_defense(DefenseConfig {
            hashed_payload_commitment: false,
            ..cfg.defense
        });
    }

    // The default lab collection carries no collection-level policy, so
    // even the honest seeding legitimately trips the UC2 fallback audit.
    // Re-baseline the monitor: attacks are judged against a quiet network.
    if let Some(monitor) = net.monitor() {
        monitor.reset();
    }

    let attacker = MaliciousClient::new(
        cfg.attacker_org(),
        Keypair::generate_from_seed(cfg.seed ^ 0xbad0_c0de),
    );
    AttackLab {
        net,
        cfg: cfg.clone(),
        attacker,
    }
}

/// Runs one injection attack against a lab, per §V-A. The attacker's
/// client collects endorsements **only from the malicious peers**, bypasses
/// SDK checks, and submits for ordering; success is then judged against the
/// honest peers' ledgers.
pub fn run_attack(lab: &mut AttackLab, kind: AttackKind) -> AttackOutcome {
    let audit_before = lab
        .net
        .telemetry()
        .map(|t| t.audit().len())
        .unwrap_or_default();
    let alerts_before = lab
        .net
        .monitor()
        .map(|m| m.transitions().len())
        .unwrap_or_default();
    let mut outcome = run_attack_inner(lab, kind);
    if let Some(t) = lab.net.telemetry() {
        outcome.audit_events = t.audit().events_since(audit_before);
    }
    if let Some(m) = lab.net.monitor() {
        let transitions = m.transitions();
        outcome.alerts = transitions[alerts_before.min(transitions.len())..].to_vec();
    }
    outcome
}

fn run_attack_inner(lab: &mut AttackLab, kind: AttackKind) -> AttackOutcome {
    // §V-A4 precondition: the delete experiment runs with k1 = 5, planted
    // by a fake write when the policy admits one.
    if kind == AttackKind::FakeDelete {
        let _ = execute_injection(lab, "write", &["k1", &INJECTED_VALUE.to_string()]);
    }
    match kind {
        AttackKind::FakeRead => {
            let (code, payload) = match execute_injection(lab, "read", &["k1"]) {
                Ok(x) => x,
                Err(note) => return failed(kind, None, note),
            };
            let fake = FAKE_READ_VALUE.to_string().into_bytes();
            let succeeded = code.is_valid() && payload == fake;
            AttackOutcome {
                kind,
                validation_code: Some(code),
                succeeded,
                note: if succeeded {
                    format!(
                        "fabricated read committed as VALID: payload claims k1 = {FAKE_READ_VALUE} while the genuine value is {GENUINE_VALUE}"
                    )
                } else {
                    format!("transaction marked {code}")
                },
                audit_events: Vec::new(),
                alerts: Vec::new(),
            }
        }
        AttackKind::FakeWrite => {
            let (code, _) =
                match execute_injection(lab, "write", &["k1", &INJECTED_VALUE.to_string()]) {
                    Ok(x) => x,
                    Err(note) => return failed(kind, None, note),
                };
            judge_state_injection(lab, kind, code, INJECTED_VALUE)
        }
        AttackKind::FakeReadWrite => {
            // Colluders forge the read as FAKE_READ_VALUE (3); 3 + 2 = 5.
            let (code, _) = match execute_injection(lab, "add", &["k1", "2"]) {
                Ok(x) => x,
                Err(note) => return failed(kind, None, note),
            };
            judge_state_injection(lab, kind, code, FAKE_READ_VALUE + 2)
        }
        AttackKind::FakeDelete => {
            let (code, _) = match execute_injection(lab, "delete", &["k1"]) {
                Ok(x) => x,
                Err(note) => return failed(kind, None, note),
            };
            let ns = ChaincodeId::new(LAB_CHAINCODE);
            let col = CollectionName::new(LAB_COLLECTION);
            let victim = lab.net.peer("peer0.org2").world_state();
            let deleted_at_victim = victim.get_private(&ns, &col, "k1").is_none()
                && victim.get_private_hash(&ns, &col, "k1").is_none();
            let succeeded = code.is_valid() && deleted_at_victim;
            AttackOutcome {
                kind,
                validation_code: Some(code),
                succeeded,
                note: if succeeded {
                    "k1 deleted at the victim although its chaincode forbids it".to_string()
                } else {
                    format!("transaction marked {code}")
                },
                audit_events: Vec::new(),
                alerts: Vec::new(),
            }
        }
    }
}

/// Runs every injection attack on fresh labs built from `cfg`.
pub fn run_all(cfg: &LabConfig) -> Vec<AttackOutcome> {
    AttackKind::all()
        .into_iter()
        .map(|kind| {
            let mut lab = build_lab(cfg);
            run_attack(&mut lab, kind)
        })
        .collect()
}

fn failed(kind: AttackKind, code: Option<TxValidationCode>, note: String) -> AttackOutcome {
    AttackOutcome {
        kind,
        validation_code: code,
        succeeded: false,
        note,
        audit_events: Vec::new(),
        alerts: Vec::new(),
    }
}

/// Drives one malicious submission: proposal → colluding endorsements →
/// unchecked assembly → ordering → committed status. Returns the
/// validation code and the committed payload.
fn execute_injection(
    lab: &mut AttackLab,
    function: &str,
    args: &[&str],
) -> Result<(TxValidationCode, Vec<u8>), String> {
    let cfg = lab.cfg.clone();
    let proposal = lab.attacker.create_proposal(
        lab.net.channel().clone(),
        ChaincodeId::new(LAB_CHAINCODE),
        function,
        args.iter().map(|a| a.as_bytes().to_vec()).collect(),
        BTreeMap::new(),
    );
    let mut responses = Vec::new();
    for peer in cfg.malicious_peers() {
        match lab.net.endorse(&peer, &proposal) {
            Ok(r) => responses.push(r),
            Err(e) => return Err(format!("endorsement refused at {peer}: {e}")),
        }
    }
    let tx = lab
        .attacker
        .assemble_unchecked(&proposal, &responses)
        .ok_or_else(|| "no endorsements collected".to_string())?;
    let tx_id = tx.tx_id.clone();
    lab.net.submit(tx);
    for _ in 0..200 {
        lab.net.advance(1);
        if let Some(code) = lab.net.transaction_status(&tx_id) {
            let payload = lab
                .net
                .peer("peer0.org2")
                .block_store()
                .transaction(&tx_id)
                .map(|(t, _)| t.payload.response.payload.clone())
                .unwrap_or_default();
            return Ok((code, payload));
        }
    }
    Err("transaction never ordered".to_string())
}

/// Success for write-family attacks: the transaction committed as VALID
/// and the victim org2's world state now holds `expected`, violating its
/// `> 10` business rule.
fn judge_state_injection(
    lab: &AttackLab,
    kind: AttackKind,
    code: TxValidationCode,
    expected: i64,
) -> AttackOutcome {
    let ns = ChaincodeId::new(LAB_CHAINCODE);
    let col = CollectionName::new(LAB_COLLECTION);
    let at_victim = lab
        .net
        .peer("peer0.org2")
        .world_state()
        .get_private(&ns, &col, "k1")
        .map(|v| v.value.clone());
    let succeeded = code.is_valid() && at_victim == Some(expected.to_string().into_bytes());
    AttackOutcome {
        kind,
        validation_code: Some(code),
        succeeded,
        note: if succeeded {
            format!(
                "victim org2 now holds k1 = {expected}, violating its business rule (requires value > 10)"
            )
        } else {
            let shown = at_victim
                .as_deref()
                .map_or("(none)".into(), String::from_utf8_lossy);
            format!("transaction marked {code}; victim state: k1 = {shown}")
        },
        audit_events: Vec::new(),
        alerts: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_expressions_render() {
        assert_eq!(
            ChaincodePolicy::MajorityEndorsement.expression(3),
            "MAJORITY Endorsement"
        );
        let e = ChaincodePolicy::NOutOf(2).expression(5);
        assert!(e.starts_with("OutOf(2,'Org1MSP.peer'"));
        assert!(e.contains("'Org5MSP.peer'"));
    }

    #[test]
    fn lab_builds_and_seeds_genuine_value() {
        let lab = build_lab(&LabConfig::default());
        let ns = ChaincodeId::new(LAB_CHAINCODE);
        let col = CollectionName::new(LAB_COLLECTION);
        assert_eq!(
            lab.net
                .peer("peer0.org2")
                .world_state()
                .get_private(&ns, &col, "k1")
                .unwrap()
                .value,
            b"12"
        );
        // The non-member org3 has only the hash.
        assert!(lab
            .net
            .peer("peer0.org3")
            .world_state()
            .get_private(&ns, &col, "k1")
            .is_none());
    }

    #[test]
    fn failed_write_injection_shows_the_victim_value_as_text() {
        let mut lab = build_lab(&LabConfig {
            collection_policy: Some("AND('Org1MSP.peer','Org2MSP.peer')".to_string()),
            ..LabConfig::default()
        });
        let outcome = run_attack(&mut lab, AttackKind::FakeWrite);
        assert!(!outcome.succeeded);
        assert!(
            outcome.note.ends_with("victim state: k1 = 12"),
            "{}",
            outcome.note
        );
    }

    #[test]
    fn malicious_roles_depend_on_org_count() {
        let three = LabConfig::default();
        assert_eq!(three.malicious_peers(), vec!["peer0.org1", "peer0.org3"]);
        assert_eq!(three.attacker_org(), OrgId::new("Org1MSP"));
        let five = LabConfig {
            org_count: 5,
            chaincode_policy: ChaincodePolicy::NOutOf(2),
            ..LabConfig::default()
        };
        assert_eq!(five.malicious_peers(), vec!["peer0.org3", "peer0.org4"]);
        assert_eq!(five.attacker_org(), OrgId::new("Org3MSP"));
    }
}
