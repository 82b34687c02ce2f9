//! Policy AST and evaluation.

use crate::eval::{self, EndorserSet};
use crate::parser::{self, ParsePolicyError};
use fabric_types::{Identity, OrgId, Role};
use std::collections::BTreeMap;
use std::fmt;

/// The role requirement of a principal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrincipalRole {
    /// Matches any role of the organization (`Org.member`).
    Member,
    /// Matches one specific role (`Org.peer`, `Org.client`, ...).
    Exact(Role),
}

impl fmt::Display for PrincipalRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrincipalRole::Member => f.write_str("member"),
            PrincipalRole::Exact(r) => write!(f, "{r}"),
        }
    }
}

/// A principal: an organization plus a role requirement, e.g. `Org1MSP.peer`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Principal {
    /// Required organization.
    pub org: OrgId,
    /// Required role.
    pub role: PrincipalRole,
}

impl Principal {
    /// Creates a principal.
    pub fn new(org: impl Into<OrgId>, role: PrincipalRole) -> Self {
        Principal {
            org: org.into(),
            role,
        }
    }

    /// Whether `identity` satisfies this principal.
    pub fn matches(&self, identity: &Identity) -> bool {
        if identity.org != self.org {
            return false;
        }
        match self.role {
            PrincipalRole::Member => true,
            PrincipalRole::Exact(role) => identity.role == role,
        }
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "'{}.{}'", self.org, self.role)
    }
}

/// A signature policy: a boolean expression over principals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignaturePolicy {
    /// A single principal requirement.
    Principal(Principal),
    /// All sub-policies must be satisfied by *distinct* endorsements.
    And(Vec<SignaturePolicy>),
    /// At least one sub-policy must be satisfied.
    Or(Vec<SignaturePolicy>),
    /// At least `n` of the sub-policies must be satisfied by distinct
    /// endorsements (`OutOf(n, ...)`, the paper's `NOutOf`).
    OutOf(u32, Vec<SignaturePolicy>),
}

impl SignaturePolicy {
    /// Parses a signature policy expression.
    ///
    /// Accepts Fabric spelling (`OutOf(2,'Org1MSP.peer',...)`, quoted
    /// principals) and the paper's spelling (`2OutOf(org1.peer,...)`,
    /// unquoted principals).
    ///
    /// # Errors
    ///
    /// Returns [`ParsePolicyError`] on malformed expressions.
    pub fn parse(expr: &str) -> Result<Self, ParsePolicyError> {
        parser::parse_signature_policy(expr)
    }

    /// Whether the distinct identities in `endorsers` satisfy this policy.
    ///
    /// Duplicate identities (same public key) count once, as in Fabric.
    /// Matching is exact: one endorsement satisfies at most one principal
    /// requirement, found by backtracking search.
    pub fn satisfied_by(&self, endorsers: &[Identity]) -> bool {
        self.satisfied_by_set(&endorsers.iter().collect())
    }

    /// [`satisfied_by`](Self::satisfied_by) over an already de-duplicated
    /// set: a transaction's endorsers are collected once and every policy
    /// that governs it is evaluated against the same set.
    pub fn satisfied_by_set(&self, endorsers: &EndorserSet<'_>) -> bool {
        eval::satisfied(self, endorsers)
    }

    /// Whether the policy could be satisfied using only identities from
    /// `allowed` organizations, assuming each of them can produce
    /// arbitrarily many distinct identities of every role.
    ///
    /// This is the static-analysis counterpart of
    /// [`satisfied_by`](Self::satisfied_by): rather than checking one
    /// concrete endorsement set, it asks if *some* endorsement set drawn
    /// from `allowed` exists. With unlimited identities per organization,
    /// `AND`/`OutOf` distinctness never binds, so the evaluation is a
    /// simple monotone recursion. The linter uses it to decide whether an
    /// endorsement policy is reachable by collection non-members (the
    /// paper's Use Cases 1 and 2) and, with `allowed` set to all channel
    /// organizations, whether the policy is satisfiable at all.
    pub fn satisfiable_within(&self, allowed: &[OrgId]) -> bool {
        match self {
            SignaturePolicy::Principal(p) => allowed.contains(&p.org),
            SignaturePolicy::And(children) => {
                children.iter().all(|c| c.satisfiable_within(allowed))
            }
            SignaturePolicy::Or(children) => children.iter().any(|c| c.satisfiable_within(allowed)),
            SignaturePolicy::OutOf(n, children) => {
                children
                    .iter()
                    .filter(|c| c.satisfiable_within(allowed))
                    .count()
                    >= *n as usize
            }
        }
    }

    /// Whether no endorsement set can ever satisfy the policy — e.g.
    /// `OutOf(3, a, b)` demanding more branches than exist.
    pub fn is_unsatisfiable(&self) -> bool {
        !self.satisfiable_within(&self.organizations())
    }

    /// All organizations mentioned anywhere in the policy.
    pub fn organizations(&self) -> Vec<OrgId> {
        let mut orgs = Vec::new();
        self.collect_orgs(&mut orgs);
        orgs.sort();
        orgs.dedup();
        orgs
    }

    fn collect_orgs(&self, out: &mut Vec<OrgId>) {
        match self {
            SignaturePolicy::Principal(p) => out.push(p.org.clone()),
            SignaturePolicy::And(children)
            | SignaturePolicy::Or(children)
            | SignaturePolicy::OutOf(_, children) => {
                for c in children {
                    c.collect_orgs(out);
                }
            }
        }
    }
}

impl fmt::Display for SignaturePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(f: &mut fmt::Formatter<'_>, children: &[SignaturePolicy]) -> fmt::Result {
            for (i, c) in children.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{c}")?;
            }
            Ok(())
        }
        match self {
            SignaturePolicy::Principal(p) => write!(f, "{p}"),
            SignaturePolicy::And(c) => {
                f.write_str("AND(")?;
                join(f, c)?;
                f.write_str(")")
            }
            SignaturePolicy::Or(c) => {
                f.write_str("OR(")?;
                join(f, c)?;
                f.write_str(")")
            }
            SignaturePolicy::OutOf(n, c) => {
                write!(f, "OutOf({n},")?;
                join(f, c)?;
                f.write_str(")")
            }
        }
    }
}

/// The combination rule of an implicitMeta policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImplicitMetaRule {
    /// Any one organization's sub-policy suffices.
    Any,
    /// Every organization's sub-policy must be satisfied.
    All,
    /// A strict majority of organizations' sub-policies must be satisfied
    /// (Eq. 1 in the paper).
    Majority,
}

impl fmt::Display for ImplicitMetaRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ImplicitMetaRule::Any => "ANY",
            ImplicitMetaRule::All => "ALL",
            ImplicitMetaRule::Majority => "MAJORITY",
        };
        f.write_str(s)
    }
}

/// An implicitMeta policy such as `MAJORITY Endorsement`: combines the
/// result of each participating organization's named sub-policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplicitMetaPolicy {
    /// Combination rule.
    pub rule: ImplicitMetaRule,
    /// Name of the per-organization sub-policy (usually `Endorsement`).
    pub sub_policy: String,
}

impl ImplicitMetaPolicy {
    /// Parses expressions like `"MAJORITY Endorsement"`.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePolicyError`] on malformed expressions.
    pub fn parse(expr: &str) -> Result<Self, ParsePolicyError> {
        parser::parse_implicit_meta(expr)
    }

    /// Evaluates the policy: each organization's sub-policy is evaluated
    /// against `endorsers`, then the boolean results are combined by the
    /// rule. `org_policies` maps each participating organization to its
    /// sub-policy (each org's `Endorsement` policy in practice).
    pub fn evaluate(
        &self,
        org_policies: &BTreeMap<OrgId, SignaturePolicy>,
        endorsers: &[Identity],
    ) -> bool {
        self.evaluate_set(org_policies, &endorsers.iter().collect())
    }

    /// [`evaluate`](Self::evaluate) over an already de-duplicated set (see
    /// [`SignaturePolicy::satisfied_by_set`]).
    pub fn evaluate_set(
        &self,
        org_policies: &BTreeMap<OrgId, SignaturePolicy>,
        endorsers: &EndorserSet<'_>,
    ) -> bool {
        let n = org_policies.len();
        if n == 0 {
            return false;
        }
        let satisfied = org_policies
            .values()
            .filter(|p| p.satisfied_by_set(endorsers))
            .count();
        match self.rule {
            ImplicitMetaRule::Any => satisfied >= 1,
            ImplicitMetaRule::All => satisfied == n,
            ImplicitMetaRule::Majority => satisfied > n / 2,
        }
    }
}

impl fmt::Display for ImplicitMetaPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.rule, self.sub_policy)
    }
}

/// Any endorsement policy: signature or implicitMeta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Policy {
    /// An explicit signature policy.
    Signature(SignaturePolicy),
    /// An implicitMeta policy over per-org sub-policies.
    ImplicitMeta(ImplicitMetaPolicy),
}

impl Policy {
    /// Parses either policy family, trying implicitMeta first
    /// (`ANY/ALL/MAJORITY name`) then signature expressions.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePolicyError`] when neither family parses.
    pub fn parse(expr: &str) -> Result<Self, ParsePolicyError> {
        let trimmed = expr.trim();
        if let Ok(meta) = ImplicitMetaPolicy::parse(trimmed) {
            return Ok(Policy::ImplicitMeta(meta));
        }
        SignaturePolicy::parse(trimmed).map(Policy::Signature)
    }

    /// Evaluates the policy against an endorser set, resolving implicitMeta
    /// sub-policies through `org_policies`.
    pub fn evaluate(
        &self,
        org_policies: &BTreeMap<OrgId, SignaturePolicy>,
        endorsers: &[Identity],
    ) -> bool {
        self.evaluate_set(org_policies, &endorsers.iter().collect())
    }

    /// [`evaluate`](Self::evaluate) over an already de-duplicated set (see
    /// [`SignaturePolicy::satisfied_by_set`]).
    pub fn evaluate_set(
        &self,
        org_policies: &BTreeMap<OrgId, SignaturePolicy>,
        endorsers: &EndorserSet<'_>,
    ) -> bool {
        match self {
            Policy::Signature(p) => p.satisfied_by_set(endorsers),
            Policy::ImplicitMeta(p) => p.evaluate_set(org_policies, endorsers),
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Signature(p) => write!(f, "{p}"),
            Policy::ImplicitMeta(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_crypto::Keypair;

    fn id(org: &str, role: Role, seed: u64) -> Identity {
        Identity::new(org, role, Keypair::generate_from_seed(seed).public_key())
    }

    fn peer(org: &str, seed: u64) -> Identity {
        id(org, Role::Peer, seed)
    }

    #[test]
    fn principal_matching() {
        let p = Principal::new("Org1MSP", PrincipalRole::Exact(Role::Peer));
        assert!(p.matches(&peer("Org1MSP", 1)));
        assert!(!p.matches(&peer("Org2MSP", 2)));
        assert!(!p.matches(&id("Org1MSP", Role::Client, 3)));

        let m = Principal::new("Org1MSP", PrincipalRole::Member);
        assert!(m.matches(&peer("Org1MSP", 1)));
        assert!(m.matches(&id("Org1MSP", Role::Client, 3)));
        assert!(!m.matches(&peer("Org2MSP", 2)));
    }

    #[test]
    fn and_requires_distinct_endorsements() {
        let policy = SignaturePolicy::parse("AND('Org1MSP.peer','Org1MSP.peer')").unwrap();
        let p1 = peer("Org1MSP", 1);
        let p2 = peer("Org1MSP", 2);
        // One peer signing twice does not satisfy AND of two principals.
        assert!(!policy.satisfied_by(&[p1.clone(), p1.clone()]));
        assert!(policy.satisfied_by(&[p1, p2]));
    }

    #[test]
    fn or_needs_only_one_branch() {
        let policy = SignaturePolicy::parse("OR('Org1MSP.peer','Org2MSP.peer')").unwrap();
        assert!(policy.satisfied_by(&[peer("Org2MSP", 5)]));
        assert!(!policy.satisfied_by(&[peer("Org3MSP", 6)]));
        assert!(!policy.satisfied_by(&[]));
    }

    #[test]
    fn out_of_semantics() {
        // The paper's 2OutOf over five orgs (§IV-A5).
        let policy = SignaturePolicy::parse(
            "OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer','Org4MSP.peer','Org5MSP.peer')",
        )
        .unwrap();
        // Two non-member orgs (org3, org4) suffice — the attack's premise.
        assert!(policy.satisfied_by(&[peer("Org3MSP", 3), peer("Org4MSP", 4)]));
        assert!(!policy.satisfied_by(&[peer("Org3MSP", 3)]));
        // One identity cannot satisfy two slots.
        let p3 = peer("Org3MSP", 3);
        assert!(!policy.satisfied_by(&[p3.clone(), p3]));
    }

    #[test]
    fn backtracking_finds_non_greedy_assignment() {
        // A member principal could "steal" the only Org1 peer; backtracking
        // must still find the valid assignment.
        let policy = SignaturePolicy::parse("AND('Org1MSP.member','Org1MSP.peer')").unwrap();
        let p = peer("Org1MSP", 1);
        let c = id("Org1MSP", Role::Client, 2);
        assert!(policy.satisfied_by(&[p.clone(), c.clone()]));
        assert!(policy.satisfied_by(&[c, p]));
    }

    #[test]
    fn majority_rule_matches_equation_one() {
        // Majority(e1..en) per Eq. 1: strictly more than half.
        let orgs: Vec<OrgId> = (1..=3).map(|i| OrgId::new(format!("Org{i}MSP"))).collect();
        let mut org_policies = BTreeMap::new();
        for o in &orgs {
            org_policies.insert(
                o.clone(),
                SignaturePolicy::parse(&format!("OR('{}.peer')", o.as_str())).unwrap(),
            );
        }
        let meta = ImplicitMetaPolicy::parse("MAJORITY Endorsement").unwrap();
        // 2 of 3 is a majority.
        assert!(meta.evaluate(&org_policies, &[peer("Org1MSP", 1), peer("Org3MSP", 3)]));
        // 1 of 3 is not.
        assert!(!meta.evaluate(&org_policies, &[peer("Org1MSP", 1)]));

        let all = ImplicitMetaPolicy::parse("ALL Endorsement").unwrap();
        assert!(!all.evaluate(&org_policies, &[peer("Org1MSP", 1), peer("Org3MSP", 3)]));
        assert!(all.evaluate(
            &org_policies,
            &[peer("Org1MSP", 1), peer("Org2MSP", 2), peer("Org3MSP", 3)]
        ));

        let any = ImplicitMetaPolicy::parse("ANY Endorsement").unwrap();
        assert!(any.evaluate(&org_policies, &[peer("Org2MSP", 2)]));
        assert!(!any.evaluate(&org_policies, &[peer("Org9MSP", 9)]));
    }

    #[test]
    fn majority_with_even_org_count() {
        let orgs: Vec<OrgId> = (1..=4).map(|i| OrgId::new(format!("Org{i}MSP"))).collect();
        let mut org_policies = BTreeMap::new();
        for o in &orgs {
            org_policies.insert(
                o.clone(),
                SignaturePolicy::parse(&format!("OR('{}.peer')", o.as_str())).unwrap(),
            );
        }
        let meta = ImplicitMetaPolicy::parse("MAJORITY Endorsement").unwrap();
        // 2 of 4 is NOT a strict majority; 3 of 4 is.
        assert!(!meta.evaluate(&org_policies, &[peer("Org1MSP", 1), peer("Org2MSP", 2)]));
        assert!(meta.evaluate(
            &org_policies,
            &[peer("Org1MSP", 1), peer("Org2MSP", 2), peer("Org3MSP", 3)]
        ));
    }

    #[test]
    fn duplicate_identities_count_once() {
        let policy =
            SignaturePolicy::parse("OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer')")
                .unwrap();
        let p1 = peer("Org1MSP", 1);
        assert!(!policy.satisfied_by(&[p1.clone(), p1.clone(), p1]));
    }

    #[test]
    fn organizations_lists_unique_orgs() {
        let policy =
            SignaturePolicy::parse("OR(AND('Org1MSP.peer','Org2MSP.peer'),'Org1MSP.admin')")
                .unwrap();
        let orgs = policy.organizations();
        assert_eq!(orgs, vec![OrgId::new("Org1MSP"), OrgId::new("Org2MSP")]);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        for expr in [
            "AND('Org1MSP.peer','Org2MSP.peer')",
            "OR('Org1MSP.member')",
            "OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer')",
        ] {
            let p = SignaturePolicy::parse(expr).unwrap();
            let reparsed = SignaturePolicy::parse(&p.to_string()).unwrap();
            assert_eq!(p, reparsed);
        }
    }

    #[test]
    fn satisfiable_within_models_org_subsets() {
        let orgs =
            |names: &[&str]| -> Vec<OrgId> { names.iter().map(|n| OrgId::new(*n)).collect() };
        let policy = SignaturePolicy::parse(
            "OutOf(2,'Org1MSP.peer','Org2MSP.peer','Org3MSP.peer','Org4MSP.peer','Org5MSP.peer')",
        )
        .unwrap();
        // Two non-member orgs reach the threshold — the Use Case 1 premise.
        assert!(policy.satisfiable_within(&orgs(&["Org3MSP", "Org4MSP"])));
        assert!(!policy.satisfiable_within(&orgs(&["Org3MSP"])));

        let and = SignaturePolicy::parse("AND('Org1MSP.peer','Org2MSP.peer')").unwrap();
        assert!(and.satisfiable_within(&orgs(&["Org1MSP", "Org2MSP"])));
        assert!(!and.satisfiable_within(&orgs(&["Org1MSP", "Org3MSP"])));

        // Unlimited identities per org: AND of two same-org principals is
        // satisfiable within that single org.
        let twice = SignaturePolicy::parse("AND('Org1MSP.peer','Org1MSP.peer')").unwrap();
        assert!(twice.satisfiable_within(&orgs(&["Org1MSP"])));
    }

    #[test]
    fn unsatisfiable_policies_detected() {
        // The parser rejects thresholds above the operand count, so an
        // unsatisfiable tree can only arise programmatically.
        let too_many = SignaturePolicy::OutOf(
            3,
            vec![
                SignaturePolicy::Principal(Principal::new(
                    "Org1MSP",
                    PrincipalRole::Exact(Role::Peer),
                )),
                SignaturePolicy::Principal(Principal::new(
                    "Org2MSP",
                    PrincipalRole::Exact(Role::Peer),
                )),
            ],
        );
        assert!(too_many.is_unsatisfiable());
        let fine = SignaturePolicy::parse("OR('Org1MSP.peer')").unwrap();
        assert!(!fine.is_unsatisfiable());
        // Vacuous 0-of is satisfiable (by the empty set), not unsatisfiable.
        let vacuous = SignaturePolicy::parse("OutOf(0,'Org1MSP.peer')").unwrap();
        assert!(!vacuous.is_unsatisfiable());
        assert!(vacuous.satisfied_by(&[]));
    }

    #[test]
    fn policy_parse_dispatches_families() {
        assert!(matches!(
            Policy::parse("MAJORITY Endorsement").unwrap(),
            Policy::ImplicitMeta(_)
        ));
        assert!(matches!(
            Policy::parse("OR('Org1MSP.peer')").unwrap(),
            Policy::Signature(_)
        ));
        assert!(Policy::parse("NOT A POLICY ((").is_err());
    }
}
