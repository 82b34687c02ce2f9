//! Information-flow taint analysis of chaincode private-data leakage.
//!
//! The paper's attacks all reduce to one root cause: private-collection
//! data flowing to a less-private sink. The [rules](mod@crate::rules) check
//! the *configuration*; this module analyzes the *chaincode*. It derives
//! a security [`Label`] lattice from the collection definitions (label =
//! member-org set, public state = ⊥), runs each registered entry point
//! through a shadow-tracking [`TaintStub`] over a deterministic input
//! corpus and identity matrix, and reports every flow that loses
//! confidentiality:
//!
//! | rule | flow |
//! |---|---|
//! | `PDC009` | private data → response payload recorded in the block (Listings 1–2) |
//! | `PDC012` | private data → public world state |
//! | `PDC013` | private data → chaincode event |
//! | `PDC014` | private data → response payload of a non-member client |
//! | `PDC015` | stricter collection → laxer collection (downgrade) |
//! | `PDC016` | low-entropy commitment (brute-forceable PR_Hash) |
//! | `PDC017` | endorsement nondeterminism (rwset divergence) |
//!
//! For every entry point the driver runs the chaincode over a
//! deterministic matrix:
//!
//! * **client axis** — once per channel org at an omniscient (all-member)
//!   peer, feeding the sink rules (PDC009/012/013/015/016) and the
//!   per-recipient response rule (PDC014);
//! * **repeat axis** — twice with identical inputs at the same peer,
//!   feeding PDC017's run-to-run divergence check;
//! * **peer axis** — once per channel org's own peer (its real collection
//!   memberships), feeding PDC017's cross-endorser divergence check.
//!
//! Findings carry a rendered source→sink flow path and share the rule
//! registry, renderers and ordering of the configuration rules, so they
//! land in the same text/JSON/SARIF reports.

pub use crate::lattice::Label;
pub use crate::registry::{channel_orgs, sample_registry};
pub use crate::taint::{
    carries, client_identity, input_token, sentinel_for, TaintRun, TaintStub, SEED_KEY,
};

use crate::rules::finding;
use crate::{Finding, Location};
use fabric_chaincode::{ChaincodeDefinition, ChaincodeHandle, StubOp};
use fabric_crypto::{sha256, Hash256};
use fabric_types::OrgId;
use std::collections::{BTreeMap, HashSet};
use std::sync::OnceLock;

/// How one invocation argument (or transient entry) is generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgSpec {
    /// The seed key [`SEED_KEY`] — key-position arguments, so reads hit
    /// the seeded sentinel.
    SeedKey,
    /// The high-entropy client-input token.
    Input,
    /// A fixed literal (e.g. an integer a guarded function requires).
    Literal(&'static str),
}

impl ArgSpec {
    /// The concrete bytes this spec generates.
    pub fn bytes(&self) -> Vec<u8> {
        match self {
            ArgSpec::SeedKey => SEED_KEY.as_bytes().to_vec(),
            ArgSpec::Input => input_token(),
            ArgSpec::Literal(s) => s.as_bytes().to_vec(),
        }
    }
}

/// One chaincode entry point and its deterministic inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryPoint {
    /// Function name dispatched on.
    pub function: String,
    /// Positional arguments.
    pub args: Vec<ArgSpec>,
    /// Transient-map entries.
    pub transient: Vec<(String, ArgSpec)>,
}

impl EntryPoint {
    /// An entry point with positional args only.
    pub fn new(function: impl Into<String>, args: impl IntoIterator<Item = ArgSpec>) -> Self {
        EntryPoint {
            function: function.into(),
            args: args.into_iter().collect(),
            transient: Vec::new(),
        }
    }

    /// Adds a transient-map entry.
    pub fn with_transient(mut self, key: impl Into<String>, spec: ArgSpec) -> Self {
        self.transient.push((key.into(), spec));
        self
    }

    fn args_bytes(&self) -> Vec<Vec<u8>> {
        self.args.iter().map(ArgSpec::bytes).collect()
    }

    fn transient_bytes(&self) -> BTreeMap<String, Vec<u8>> {
        self.transient
            .iter()
            .map(|(k, spec)| (k.clone(), spec.bytes()))
            .collect()
    }

    /// Every byte string this invocation supplies — committed values equal
    /// to one of these are the client's own entropy choice, exempt from
    /// the PDC016 guessability check.
    fn input_values(&self) -> HashSet<Vec<u8>> {
        self.args
            .iter()
            .chain(self.transient.iter().map(|(_, spec)| spec))
            .map(ArgSpec::bytes)
            .collect()
    }
}

/// One unit of flow analysis: a runnable chaincode with its definition,
/// entry points, and channel.
#[derive(Clone)]
pub struct FlowTarget {
    /// Subject name used in findings.
    pub name: String,
    /// Artifact URI used in finding locations.
    pub uri: String,
    /// The chaincode under analysis.
    pub chaincode: ChaincodeHandle,
    /// The deployed definition (collections derive the lattice).
    pub definition: ChaincodeDefinition,
    /// The entry-point corpus to drive.
    pub entry_points: Vec<EntryPoint>,
    /// Every organization on the channel (the identity matrix).
    pub channel_orgs: Vec<OrgId>,
}

/// The PR_Hash brute-force dictionary: SHA-256 of every small integer and
/// a status wordlist. Built once per process — exactly the table a
/// non-member peer would precompute to invert low-entropy commitments
/// (the paper's PR_Hash weakness).
fn guessable(value: &[u8]) -> bool {
    static DICT: OnceLock<HashSet<Hash256>> = OnceLock::new();
    let dict = DICT.get_or_init(|| {
        let words = [
            "settled",
            "paid",
            "unpaid",
            "pending",
            "approved",
            "rejected",
            "open",
            "closed",
            "true",
            "false",
            "yes",
            "no",
            "ok",
            "done",
            "complete",
            "active",
            "inactive",
            "sold",
            "transferred",
            "accepted",
            "declined",
            "shipped",
            "delivered",
            "cancelled",
        ];
        let mut set: HashSet<Hash256> = (0..=99_999u32)
            .map(|n| sha256(n.to_string().as_bytes()))
            .collect();
        set.extend(words.iter().map(|w| sha256(w.as_bytes())));
        set
    });
    dict.contains(&sha256(value))
}

/// Renders the flow path ending at op index `sink_index`: every earlier
/// op that carried the sentinel, the sink op itself, then `sink_desc`.
fn flow_path_to(run: &TaintRun, sentinel: &[u8], sink_index: usize, sink_desc: &str) -> String {
    let mut steps: Vec<String> = run.ops[..sink_index]
        .iter()
        .filter(|op| op.carried().is_some_and(|b| carries(b, sentinel)))
        .map(ToString::to_string)
        .collect();
    steps.push(run.ops[sink_index].to_string());
    steps.push(sink_desc.to_string());
    format!("flow: {}", steps.join(" -> "))
}

/// Analyzes one target, returning sorted, deduplicated findings.
pub fn analyze_target(target: &FlowTarget) -> Vec<Finding> {
    let definition = &target.definition;
    let mut findings = Vec::new();
    let omniscient = TaintStub::omniscient(definition);

    for ep in &target.entry_points {
        let inputs = ep.input_values();

        // Client axis: every channel org invokes at the omniscient peer.
        let mut baseline: Option<TaintRun> = None;
        for org in &target.channel_orgs {
            let run = omniscient.run(
                target.chaincode.as_ref(),
                &ep.function,
                ep.args_bytes(),
                ep.transient_bytes(),
                &client_identity(org),
            );
            check_sinks(target, ep, &run, org, &inputs, &mut findings);
            if baseline.is_none() {
                baseline = Some(run);
            }
        }

        // Repeat axis: identical inputs, identical peer, identical client
        // — any divergence is chaincode-internal nondeterminism.
        if let Some(first) = &baseline {
            let again = omniscient.run(
                target.chaincode.as_ref(),
                &ep.function,
                ep.args_bytes(),
                ep.transient_bytes(),
                &client_identity(&target.channel_orgs[0]),
            );
            if again != *first {
                findings.push(finding(
                    "PDC017",
                    &target.name,
                    Location::artifact(&target.uri),
                    format!(
                        "function '{}' produced divergent simulation results across two \
                         identical runs at the same peer; honest endorsements of this \
                         function can never match",
                        ep.function
                    ),
                ));
            }
        }

        // Peer axis: each org's own peer simulates with its real
        // collection memberships; successful endorsements must agree.
        let peer_runs: Vec<(&OrgId, TaintRun)> = target
            .channel_orgs
            .iter()
            .map(|org| {
                let harness = TaintStub::at_peer(definition, org);
                let run = harness.run(
                    target.chaincode.as_ref(),
                    &ep.function,
                    ep.args_bytes(),
                    ep.transient_bytes(),
                    &client_identity(&target.channel_orgs[0]),
                );
                (org, run)
            })
            .collect();
        let successes: Vec<&(&OrgId, TaintRun)> = peer_runs
            .iter()
            .filter(|(_, run)| run.outcome.is_ok())
            .collect();
        for pair in successes.windows(2) {
            let (org_a, run_a) = pair[0];
            let (org_b, run_b) = pair[1];
            if run_a != run_b {
                findings.push(finding(
                    "PDC017",
                    &target.name,
                    Location::artifact(&target.uri),
                    format!(
                        "function '{}' produced divergent simulation results at the peers \
                         of {} and {}; the endorsement-mismatch precursor the paper's \
                         transaction-flow attacks build on",
                        ep.function, org_a, org_b
                    ),
                ));
                break;
            }
        }
    }

    crate::sort_and_dedup(&mut findings);
    findings
}

/// The sink of PDC009: a submitted transaction's response payload.
const IN_BLOCK: &str = "response payload recorded in the block";
const IN_BLOCK_WHY: &str =
    "a submitted transaction records the payload in the block, visible to every \
     ordering and committing node";

/// The sink rules over one traced run: PDC009 (response payload recorded
/// in the block), PDC012 (public state), PDC013 (events), PDC014
/// (response to a non-member client), PDC015 (cross-collection
/// downgrade), PDC016 (guessable commitments).
fn check_sinks(
    target: &FlowTarget,
    ep: &EntryPoint,
    run: &TaintRun,
    client_org: &OrgId,
    inputs: &HashSet<Vec<u8>>,
    findings: &mut Vec<Finding>,
) {
    let definition = &target.definition;
    for c in definition.collections() {
        let sentinel = sentinel_for(&c.name);
        let src_label = Label::of_collection(definition, &c.name);
        for (i, op) in run.ops.iter().enumerate() {
            let tainted = op.carried().is_some_and(|b| carries(b, &sentinel));
            match op {
                StubOp::PutState { .. } if tainted => {
                    findings.push(finding(
                        "PDC012",
                        &target.name,
                        Location::in_collection(&target.uri, c.name.as_str()),
                        format!(
                            "function '{}' writes private data of collection '{}' into \
                             public world state, replicated in plaintext to every peer; {}",
                            ep.function,
                            c.name,
                            flow_path_to(run, &sentinel, i, "public world state"),
                        ),
                    ));
                }
                StubOp::SetEvent { name, .. } if tainted => {
                    findings.push(finding(
                        "PDC013",
                        &target.name,
                        Location::in_collection(&target.uri, c.name.as_str()),
                        format!(
                            "function '{}' emits private data of collection '{}' in \
                             chaincode event '{name}', delivered to every block listener; {}",
                            ep.function,
                            c.name,
                            flow_path_to(run, &sentinel, i, "every block listener"),
                        ),
                    ));
                }
                StubOp::PutPrivateData {
                    collection: dest, ..
                } if tainted && dest != &c.name => {
                    let dest_label = Label::of_collection(definition, dest);
                    if !src_label.leq(&dest_label) {
                        findings.push(finding(
                            "PDC015",
                            &target.name,
                            Location::in_collection(&target.uri, c.name.as_str()),
                            format!(
                                "function '{}' copies private data from collection '{}' \
                                 (members {src_label}) into collection '{dest}' (members \
                                 {dest_label}), a laxer audience; {}",
                                ep.function,
                                c.name,
                                flow_path_to(
                                    run,
                                    &sentinel,
                                    i,
                                    &format!("collection '{dest}' members {dest_label}")
                                ),
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
        if run
            .outcome
            .as_ref()
            .is_ok_and(|payload| carries(payload, &sentinel))
        {
            findings.push(finding(
                "PDC009",
                &target.name,
                Location::in_collection(&target.uri, c.name.as_str()),
                format!(
                    "function '{}' returns what it read from collection '{}' in the \
                     response payload (Listing 1); {IN_BLOCK_WHY}; {}",
                    ep.function,
                    c.name,
                    run.flow_path(&sentinel, IN_BLOCK),
                ),
            ));
            if !src_label.admits(client_org) {
                let steps = run.flow_path(
                    &sentinel,
                    &format!("response payload to the {client_org} client"),
                );
                findings.push(finding(
                    "PDC014",
                    &target.name,
                    Location::in_collection(&target.uri, c.name.as_str()),
                    format!(
                        "function '{}' returns private data of collection '{}' (members \
                         {src_label}) in the response payload to a client of non-member \
                         organization {client_org}; {steps}",
                        ep.function, c.name,
                    ),
                ));
            }
        }
    }

    // PDC009, Listing 2: the payload echoes a client input that the run
    // also wrote to a collection.
    let token = input_token();
    if run
        .outcome
        .as_ref()
        .is_ok_and(|payload| carries(payload, &token))
    {
        let written = run.ops.iter().find_map(|op| match op {
            StubOp::PutPrivateData {
                collection, value, ..
            } if carries(value, &token) => Some(collection),
            _ => None,
        });
        if let Some(collection) = written {
            findings.push(finding(
                "PDC009",
                &target.name,
                Location::in_collection(&target.uri, collection.as_str()),
                format!(
                    "function '{}' returns the value it wrote to collection \
                     '{collection}' in the response payload (Listing 2); {IN_BLOCK_WHY}; {}",
                    ep.function,
                    run.flow_path(&token, IN_BLOCK),
                ),
            ));
        }
    }

    // PDC016 is collection-independent: every committed value whose
    // PR_Hash a dictionary inverts is reported, unless the client
    // supplied that exact value itself (its own entropy choice).
    for op in &run.ops {
        if let StubOp::PutPrivateData {
            collection,
            key,
            value,
        } = op
        {
            if !inputs.contains(value) && guessable(value) {
                findings.push(finding(
                    "PDC016",
                    &target.name,
                    Location::in_collection(&target.uri, collection.as_str()),
                    format!(
                        "function '{}' commits a low-entropy value to collection \
                         '{collection}' (key {key:?}): a dictionary attack on the \
                         replicated PR_Hash recovers the plaintext at any non-member peer",
                        ep.function,
                    ),
                ));
            }
        }
    }
}

/// Analyzes many targets into one list, ordered and deduplicated by
/// [`sort_and_dedup`](crate::sort_and_dedup), so the order of `targets`
/// never shows in the report.
pub fn analyze_targets(targets: &[FlowTarget]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = targets.iter().flat_map(analyze_target).collect();
    crate::sort_and_dedup(&mut findings);
    findings
}
