//! The rule registry and engine.
//!
//! Each rule has a stable ID (`PDC001`…) and checks one misconfiguration
//! class from the paper. Rules only fire on facts they *know*: a fact
//! recorded as `None` (unknown) never produces a finding, so scanning a
//! sparse corpus config cannot produce false positives on omitted fields.

use crate::subject::{CollectionFacts, LeakChannel, LintSubject};
use crate::{Finding, Location, Rule, Severity};
use fabric_policy::{ChannelPolicies, Policy, SignaturePolicy};
use fabric_types::OrgId;

/// `BlockToLive` values at or below this are flagged as purge hazards.
const SHORT_BTL_THRESHOLD: u64 = 10;

/// The rule registry, in ID order. IDs are stable: rules are never
/// renumbered, and the retired `PDC010`, `PDC011`, `PDC018` and `PDC020`
/// are never reused.
const RULES: &[Rule] = &[
    Rule {
        id: "PDC001",
        name: "no-collection-endorsement-policy",
        severity: Severity::Warning,
        use_case: Some(2),
        description: "collection omits EndorsementPolicy, so the chaincode-level policy \
                      validates PDC transactions",
    },
    Rule {
        id: "PDC002",
        name: "member-only-read-disabled",
        severity: Severity::Warning,
        use_case: None,
        description: "MemberOnlyRead is disabled: non-member clients can read private data \
                      through chaincode at member peers",
    },
    Rule {
        id: "PDC003",
        name: "member-only-write-disabled",
        severity: Severity::Warning,
        use_case: None,
        description: "MemberOnlyWrite is disabled: non-member clients can submit private \
                      writes through member peers",
    },
    Rule {
        id: "PDC004",
        name: "dissemination-hazard",
        severity: Severity::Warning,
        use_case: None,
        description: "RequiredPeerCount is 0 (private data may exist on the endorsing peer \
                      only) or exceeds MaxPeerCount (endorsement always fails)",
    },
    Rule {
        id: "PDC005",
        name: "short-block-to-live",
        severity: Severity::Note,
        use_case: None,
        description: "BlockToLive is short: private data is purged after very few blocks",
    },
    Rule {
        id: "PDC006",
        name: "policy-satisfiable-by-non-members",
        severity: Severity::Error,
        use_case: Some(1),
        description: "the endorsement policy governing this collection can be satisfied by \
                      collection non-members, enabling fake PDC results injection",
    },
    Rule {
        id: "PDC007",
        name: "degenerate-n-of-m",
        severity: Severity::Warning,
        use_case: Some(1),
        description: "the endorsement policy contains a degenerate OutOf threshold \
                      (0-of-M is vacuous; 1-of-many is a single point of compromise)",
    },
    Rule {
        id: "PDC008",
        name: "unsatisfiable-policy",
        severity: Severity::Error,
        use_case: None,
        description: "the endorsement policy can never be satisfied (threshold exceeds \
                      branches, or it names no organization present on the channel)",
    },
    Rule {
        id: "PDC009",
        name: "private-data-in-response-payload",
        severity: Severity::Error,
        use_case: Some(3),
        description: "a chaincode function returns private data through the response \
                      payload, which is stored in the public block",
    },
    Rule {
        id: "PDC012",
        name: "private-to-public-state-flow",
        severity: Severity::Error,
        use_case: None,
        description: "a chaincode function writes private-collection data into public world \
                      state, replicating the plaintext to every peer on the channel",
    },
    Rule {
        id: "PDC013",
        name: "private-to-event-flow",
        severity: Severity::Error,
        use_case: None,
        description: "a chaincode function emits private-collection data in a chaincode \
                      event, delivering the plaintext to every block listener",
    },
    Rule {
        id: "PDC014",
        name: "private-response-to-non-member",
        severity: Severity::Error,
        use_case: Some(3),
        description: "a chaincode function returns private-collection data in the proposal \
                      response to a client from a non-member organization",
    },
    Rule {
        id: "PDC015",
        name: "cross-collection-downgrade",
        severity: Severity::Error,
        use_case: None,
        description: "a chaincode function copies data from a stricter collection into one \
                      with a laxer member set, granting non-entitled organizations the \
                      plaintext",
    },
    Rule {
        id: "PDC016",
        name: "guessable-hash-commitment",
        severity: Severity::Warning,
        use_case: None,
        description: "a chaincode function commits a low-entropy private value whose \
                      on-chain hash (PR_Hash) any non-member peer can recover by brute \
                      force",
    },
    Rule {
        id: "PDC017",
        name: "endorsement-nondeterminism",
        severity: Severity::Warning,
        use_case: None,
        description: "a chaincode function produces divergent simulation results across \
                      endorsing peers or repeated runs, so honest endorsements mismatch \
                      and the transaction path is hijackable",
    },
];

/// All registered rules, in stable ID order.
pub fn rules() -> &'static [Rule] {
    RULES
}

/// Looks up a rule by ID.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// A finding of registered rule `id` at its default severity.
pub(crate) fn finding(id: &str, subject: &str, location: Location, message: String) -> Finding {
    let meta = rule(id).expect("registered rule");
    Finding {
        rule_id: meta.id,
        severity: meta.severity,
        subject: subject.to_string(),
        location,
        message,
    }
}

/// Lints one subject, returning findings sorted by
/// [`Finding::sort_key`] with exact duplicates collapsed.
pub fn lint_subject(subject: &LintSubject) -> Vec<Finding> {
    let mut findings = Vec::new();
    for collection in &subject.collections {
        check_collection_config(subject, collection, &mut findings);
        check_effective_policy(subject, collection, &mut findings);
    }
    check_chaincode_policy_ast(subject, &mut findings);
    check_leaks(subject, &mut findings);
    sort_and_dedup(&mut findings);
    findings
}

/// Lints many subjects, returning one merged, deterministically ordered
/// finding list.
pub fn lint_subjects<'a>(subjects: impl IntoIterator<Item = &'a LintSubject>) -> Vec<Finding> {
    let mut findings: Vec<Finding> = subjects.into_iter().flat_map(lint_subject).collect();
    sort_and_dedup(&mut findings);
    findings
}

/// Canonical finding order: sorted by [`Finding::sort_key`], exact
/// duplicates collapsed. Dedup matters for flow findings, where one leak
/// is rediscovered by every (input, identity) combination that reaches
/// it; byte-identical reports across runs depend on this normalization.
pub fn sort_and_dedup(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    findings.dedup();
}

/// PDC001–PDC005: per-collection configuration checks.
fn check_collection_config(subject: &LintSubject, c: &CollectionFacts, out: &mut Vec<Finding>) {
    let loc = || Location::in_collection(&c.uri, &c.name);
    if c.endorsement_policy.is_none() {
        out.push(finding(
            "PDC001",
            &subject.name,
            loc(),
            format!(
                "collection '{}' defines no EndorsementPolicy; PDC writes fall back to the \
                 chaincode-level policy{}",
                c.name,
                subject
                    .chaincode_policy
                    .as_deref()
                    .map(|p| format!(" ({p})"))
                    .unwrap_or_default()
            ),
        ));
    }
    if c.member_only_read == Some(false) {
        out.push(finding(
            "PDC002",
            &subject.name,
            loc(),
            format!(
                "collection '{}' sets MemberOnlyRead=false; any client on the channel can \
                 read its private data through chaincode",
                c.name
            ),
        ));
    }
    if c.member_only_write == Some(false) {
        out.push(finding(
            "PDC003",
            &subject.name,
            loc(),
            format!(
                "collection '{}' sets MemberOnlyWrite=false; any client on the channel can \
                 write its private data through chaincode",
                c.name
            ),
        ));
    }
    if c.required_peer_count == Some(0) {
        out.push(finding(
            "PDC004",
            &subject.name,
            loc(),
            format!(
                "collection '{}' sets RequiredPeerCount=0; the endorsing peer may sign \
                 without disseminating, so private data can be lost with that single peer",
                c.name
            ),
        ));
    }
    if let (Some(required), Some(max)) = (c.required_peer_count, c.max_peer_count) {
        if required > max {
            out.push(finding(
                "PDC004",
                &subject.name,
                loc(),
                format!(
                    "collection '{}' requires dissemination to {required} peers but caps \
                     MaxPeerCount at {max}; endorsement can never succeed",
                    c.name
                ),
            ));
        }
    }
    if let Some(btl) = c.block_to_live {
        if (1..=SHORT_BTL_THRESHOLD).contains(&btl) {
            out.push(finding(
                "PDC005",
                &subject.name,
                loc(),
                format!(
                    "collection '{}' purges private data after only {btl} block(s) \
                     (BlockToLive={btl})",
                    c.name
                ),
            ));
        }
    }
}

/// PDC006 (+ PDC007/PDC008 on collection-level policies): analysis of the
/// policy that effectively governs the collection's PDC transactions.
fn check_effective_policy(subject: &LintSubject, c: &CollectionFacts, out: &mut Vec<Finding>) {
    let loc = || Location::in_collection(&c.uri, &c.name);

    // AST checks on the collection's own policy expression.
    if let Some(expr) = &c.endorsement_policy {
        check_policy_ast(
            subject,
            expr,
            &format!("collection '{}'", c.name),
            loc(),
            out,
        );
    }

    // Reachability by non-members needs the channel org list and the
    // member list; stay silent when either is unknown.
    if subject.channel_orgs.is_empty() || c.member_orgs.is_empty() {
        return;
    }
    let non_members = subject.non_members(c);
    let (source, expr) = match (&c.endorsement_policy, &subject.chaincode_policy) {
        (Some(expr), _) => ("collection-level", expr),
        (None, Some(expr)) => ("chaincode-level", expr),
        (None, None) => return,
    };
    let Ok(policy) = Policy::parse(expr) else {
        return; // PDC008 reports unparsable expressions separately.
    };
    // A subject states no org sub-policies: each channel org has Fabric's
    // default `Endorsement` (also in PDC008's check below).
    let channel = ChannelPolicies::default_for(&subject.channel_orgs);
    if policy.satisfiable_within(&non_members, &channel) {
        out.push(finding(
            "PDC006",
            &subject.name,
            loc(),
            format!(
                "the {source} endorsement policy ({expr}) for collection '{}' can be \
                 satisfied by non-members {} — forged private writes and fabricated reads \
                 validate without any member's endorsement",
                c.name,
                org_list(&non_members),
            ),
        ));
    }
}

/// PDC007/PDC008 on the chaincode-level policy expression.
fn check_chaincode_policy_ast(subject: &LintSubject, out: &mut Vec<Finding>) {
    if let Some(expr) = &subject.chaincode_policy {
        check_policy_ast(
            subject,
            expr,
            "the chaincode-level policy",
            Location::artifact(&subject.uri),
            out,
        );
    }
}

/// Shared AST checks for one endorsement policy expression: degenerate
/// `OutOf` thresholds (PDC007) and unsatisfiability (PDC008).
fn check_policy_ast(
    subject: &LintSubject,
    expr: &str,
    context: &str,
    location: Location,
    out: &mut Vec<Finding>,
) {
    let Ok(policy) = Policy::parse(expr) else {
        out.push(finding(
            "PDC008",
            &subject.name,
            location,
            format!("{context} endorsement policy ({expr}) does not parse"),
        ));
        return;
    };
    for (n, m) in out_of_thresholds(&policy) {
        if n == 0 {
            let mut f = finding(
                "PDC007",
                &subject.name,
                location.clone(),
                format!(
                    "{context} endorsement policy ({expr}) contains OutOf(0, …): satisfied \
                     by the empty endorsement set — every transaction validates"
                ),
            );
            // Vacuous policies are as bad as no policy: escalate.
            f.severity = Severity::Error;
            out.push(f);
        } else if n == 1 && m >= 3 {
            out.push(finding(
                "PDC007",
                &subject.name,
                location.clone(),
                format!(
                    "{context} endorsement policy ({expr}) contains OutOf(1, {m}): any \
                     single organization of {m} suffices — one compromised org forges \
                     endorsements"
                ),
            ));
        }
    }

    let channel = ChannelPolicies::default_for(&subject.channel_orgs);
    if matches!(&policy, Policy::Signature(sig) if sig.is_unsatisfiable()) {
        out.push(finding(
            "PDC008",
            &subject.name,
            location.clone(),
            format!("{context} endorsement policy ({expr}) can never be satisfied"),
        ));
    } else if !subject.channel_orgs.is_empty()
        && !policy.satisfiable_within(&subject.channel_orgs, &channel)
    {
        out.push(finding(
            "PDC008",
            &subject.name,
            location,
            format!(
                "{context} endorsement policy ({expr}) cannot be satisfied by the channel \
                 organizations {}",
                org_list(&subject.channel_orgs)
            ),
        ));
    }
}

/// All `(n, m)` threshold pairs of `OutOf` nodes in a signature policy's
/// tree; an implicitMeta policy has none.
fn out_of_thresholds(policy: &Policy) -> Vec<(u32, usize)> {
    let mut out = Vec::new();
    if let Policy::Signature(sig) = policy {
        collect_out_of(sig, &mut out);
    }
    out
}

fn collect_out_of(policy: &SignaturePolicy, out: &mut Vec<(u32, usize)>) {
    match policy {
        SignaturePolicy::Principal(_) => {}
        SignaturePolicy::And(children) | SignaturePolicy::Or(children) => {
            for c in children {
                collect_out_of(c, out);
            }
        }
        SignaturePolicy::OutOf(n, children) => {
            out.push((*n, children.len()));
            for c in children {
                collect_out_of(c, out);
            }
        }
    }
}

/// PDC009: known payload leaks.
fn check_leaks(subject: &LintSubject, out: &mut Vec<Finding>) {
    for leak in &subject.leaks {
        let direction = match leak.channel {
            LeakChannel::ReadPayload => "returns GetPrivateData results (Listing 1)",
            LeakChannel::WritePayload => {
                "returns the value it wrote with PutPrivateData (Listing 2)"
            }
        };
        out.push(finding(
            "PDC009",
            &subject.name,
            Location::artifact(&leak.uri),
            format!(
                "function '{}' {direction}; the payload is recorded in the public block, \
                 visible to every ordering and committing node",
                leak.function
            ),
        ));
    }
}

fn org_list(orgs: &[OrgId]) -> String {
    let names: Vec<&str> = orgs.iter().map(OrgId::as_str).collect();
    format!("{{{}}}", names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::LeakFact;

    fn orgs(names: &[&str]) -> Vec<OrgId> {
        names.iter().map(|n| OrgId::new(*n)).collect()
    }

    /// A defended baseline subject no rule should fire on.
    fn clean_subject() -> LintSubject {
        LintSubject {
            name: "clean".into(),
            uri: "network:clean".into(),
            channel_orgs: orgs(&["Org1MSP", "Org2MSP", "Org3MSP"]),
            chaincode_policy: Some("MAJORITY Endorsement".into()),
            collections: vec![CollectionFacts {
                name: "pdc".into(),
                uri: "network:clean".into(),
                member_orgs: orgs(&["Org1MSP", "Org2MSP"]),
                endorsement_policy: Some("AND('Org1MSP.peer','Org2MSP.peer')".into()),
                required_peer_count: Some(1),
                max_peer_count: Some(2),
                block_to_live: Some(0),
                member_only_read: Some(true),
                member_only_write: Some(true),
            }],
            leaks: Vec::new(),
        }
    }

    fn ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule_id).collect()
    }

    fn fires(subject: &LintSubject, id: &str) -> bool {
        lint_subject(subject).iter().any(|f| f.rule_id == id)
    }

    #[test]
    fn identical_findings_are_deduplicated() {
        // Two identical subjects (same name) produce the same findings;
        // the merged report must collapse them — the flow analyzer's
        // (input × identity) matrix rediscovers each leak many times.
        let mut subject = clean_subject();
        subject.collections[0].endorsement_policy = None;
        let merged = lint_subjects([&subject, &subject]);
        assert_eq!(merged, lint_subject(&subject));
    }

    #[test]
    fn clean_subject_is_silent() {
        assert_eq!(ids(&lint_subject(&clean_subject())), Vec::<&str>::new());
    }

    // -- one positive + one negative fixture per rule ID --

    #[test]
    fn pdc001_fires_without_collection_policy_and_not_with() {
        let mut vulnerable = clean_subject();
        vulnerable.collections[0].endorsement_policy = None;
        assert!(fires(&vulnerable, "PDC001"));
        assert!(!fires(&clean_subject(), "PDC001"));
    }

    #[test]
    fn pdc002_fires_on_member_only_read_false_only() {
        let mut vulnerable = clean_subject();
        vulnerable.collections[0].member_only_read = Some(false);
        assert!(fires(&vulnerable, "PDC002"));
        assert!(!fires(&clean_subject(), "PDC002"));
        // Unknown stays silent.
        let mut unknown = clean_subject();
        unknown.collections[0].member_only_read = None;
        assert!(!fires(&unknown, "PDC002"));
    }

    #[test]
    fn pdc003_fires_on_member_only_write_false_only() {
        let mut vulnerable = clean_subject();
        vulnerable.collections[0].member_only_write = Some(false);
        assert!(fires(&vulnerable, "PDC003"));
        assert!(!fires(&clean_subject(), "PDC003"));
    }

    #[test]
    fn pdc004_fires_on_zero_required_peer_count_and_impossible_fanout() {
        let mut zero = clean_subject();
        zero.collections[0].required_peer_count = Some(0);
        assert!(fires(&zero, "PDC004"));

        let mut impossible = clean_subject();
        impossible.collections[0].required_peer_count = Some(5);
        impossible.collections[0].max_peer_count = Some(2);
        assert!(fires(&impossible, "PDC004"));

        assert!(!fires(&clean_subject(), "PDC004"));
    }

    #[test]
    fn pdc005_fires_on_short_btl_not_on_zero_or_long() {
        let mut short = clean_subject();
        short.collections[0].block_to_live = Some(3);
        assert!(fires(&short, "PDC005"));

        let mut long = clean_subject();
        long.collections[0].block_to_live = Some(1_000_000);
        assert!(!fires(&long, "PDC005"));
        assert!(!fires(&clean_subject(), "PDC005")); // 0 = keep forever
    }

    #[test]
    fn pdc006_fires_when_non_members_reach_the_policy() {
        // Use Case 1 shape: OutOf(2, five orgs), members = {1, 2};
        // non-members {3,4,5} can reach the threshold alone.
        let mut vulnerable = clean_subject();
        vulnerable.channel_orgs = orgs(&["Org1MSP", "Org2MSP", "Org3MSP", "Org4MSP", "Org5MSP"]);
        vulnerable.collections[0].endorsement_policy = Some(
            "OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer','Org4MSP.peer','Org5MSP.peer')"
                .into(),
        );
        assert!(fires(&vulnerable, "PDC006"));

        // Defended: policy requires both members.
        assert!(!fires(&clean_subject(), "PDC006"));
    }

    #[test]
    fn pdc006_covers_chaincode_level_fallback_use_case_2() {
        // Use Case 2 shape: no collection policy, chaincode-level ANY.
        let mut vulnerable = clean_subject();
        vulnerable.collections[0].endorsement_policy = None;
        vulnerable.chaincode_policy = Some("ANY Endorsement".into());
        assert!(fires(&vulnerable, "PDC006"));

        // Defended: collection policy pinned to members only.
        let mut defended = clean_subject();
        defended.chaincode_policy = Some("ANY Endorsement".into());
        assert!(!fires(&defended, "PDC006"));
    }

    #[test]
    fn pdc006_majority_depends_on_member_share() {
        // 3 channel orgs, 1 member: the 2 non-members are a majority.
        let mut vulnerable = clean_subject();
        vulnerable.collections[0].member_orgs = orgs(&["Org1MSP"]);
        vulnerable.collections[0].endorsement_policy = None;
        assert!(fires(&vulnerable, "PDC006"));

        // 3 channel orgs, 2 members: 1 non-member is not a majority.
        let mut defended = clean_subject();
        defended.collections[0].endorsement_policy = None;
        defended.chaincode_policy = Some("MAJORITY Endorsement".into());
        assert!(!fires(&defended, "PDC006"));
    }

    #[test]
    fn pdc007_fires_on_degenerate_thresholds() {
        let mut vacuous = clean_subject();
        vacuous.collections[0].endorsement_policy = Some("OutOf(0,'Org1MSP.peer')".into());
        let findings = lint_subject(&vacuous);
        let f = findings.iter().find(|f| f.rule_id == "PDC007").unwrap();
        assert_eq!(f.severity, Severity::Error, "0-of escalates to error");

        let mut weak = clean_subject();
        weak.collections[0].endorsement_policy =
            Some("OutOf(1,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer')".into());
        let findings = lint_subject(&weak);
        let f = findings.iter().find(|f| f.rule_id == "PDC007").unwrap();
        assert_eq!(f.severity, Severity::Warning);

        // 2-of-3 and plain AND are fine.
        assert!(!fires(&clean_subject(), "PDC007"));
        let mut ok = clean_subject();
        ok.collections[0].endorsement_policy =
            Some("OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer')".into());
        assert!(!fires(&ok, "PDC007"));
    }

    #[test]
    fn pdc008_fires_on_unsatisfiable_policies() {
        let mut impossible = clean_subject();
        impossible.collections[0].endorsement_policy =
            Some("OutOf(3,'Org1MSP.peer','Org2MSP.peer')".into());
        assert!(fires(&impossible, "PDC008"));

        let mut foreign = clean_subject();
        foreign.collections[0].endorsement_policy = Some("OR('Org9MSP.peer')".into());
        assert!(fires(&foreign, "PDC008"));

        let mut unparsable = clean_subject();
        unparsable.collections[0].endorsement_policy = Some("NOT A POLICY ((".into());
        assert!(fires(&unparsable, "PDC008"));

        // No channel org defines the sub-policy `Endorsment`.
        let mut misspelled = clean_subject();
        misspelled.chaincode_policy = Some("MAJORITY Endorsment".into());
        assert!(fires(&misspelled, "PDC008"));

        assert!(!fires(&clean_subject(), "PDC008"));
    }

    #[test]
    fn pdc009_fires_per_leak() {
        let mut vulnerable = clean_subject();
        vulnerable.leaks.push(LeakFact {
            uri: "chaincode/cc.go".into(),
            function: "setPrivate".into(),
            channel: LeakChannel::WritePayload,
        });
        vulnerable.leaks.push(LeakFact {
            uri: "chaincode/cc.go".into(),
            function: "readPrivate".into(),
            channel: LeakChannel::ReadPayload,
        });
        let findings = lint_subject(&vulnerable);
        assert_eq!(findings.iter().filter(|f| f.rule_id == "PDC009").count(), 2);
        assert!(!fires(&clean_subject(), "PDC009"));
    }

    #[test]
    fn unknown_channel_orgs_suppress_policy_reachability() {
        let mut unknown = clean_subject();
        unknown.channel_orgs = Vec::new();
        unknown.collections[0].endorsement_policy = None;
        unknown.chaincode_policy = Some("ANY Endorsement".into());
        assert!(!fires(&unknown, "PDC006"));
    }

    #[test]
    fn findings_are_sorted_and_merge_deterministically() {
        let mut a = clean_subject();
        a.name = "b-project".into();
        a.collections[0].endorsement_policy = None;
        let mut b = clean_subject();
        b.name = "a-project".into();
        b.collections[0].member_only_read = Some(false);
        b.collections[0].required_peer_count = Some(0);

        let merged = lint_subjects([&a, &b]);
        let mut resorted = merged.clone();
        resorted.sort_by(|x, y| x.sort_key().cmp(&y.sort_key()));
        assert_eq!(merged, resorted);
        // Subjects sort before rules: all of a-project precedes b-project.
        let split = merged
            .iter()
            .position(|f| f.subject == "b-project")
            .unwrap();
        assert!(merged[..split].iter().all(|f| f.subject == "a-project"));
    }
}
