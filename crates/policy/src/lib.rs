//! Endorsement policy language for the Fabric PDC simulator.
//!
//! Policies are the heart of the paper's "proof-of-policy" consensus:
//! a transaction is valid only if its endorsement set satisfies the
//! applicable policy. Two families exist (Section II-A4):
//!
//! * **Signature policies** — logical expressions over principals:
//!   `AND('Org1MSP.peer','Org2MSP.peer')`, `OR(...)`,
//!   `OutOf(2,'Org1MSP.peer',...)`. The paper's `2OutOf(...)` spelling is
//!   also accepted.
//! * **implicitMeta policies** — `ANY/ALL/MAJORITY <name>` over the
//!   organizations' own sub-policies, e.g. the default chaincode-level
//!   policy `MAJORITY Endorsement` (Eq. 1 in the paper).
//!
//! An implicitMeta policy resolves its sub-policy name in the channel's
//! [`ChannelPolicies`], as Fabric does: every org on the channel counts in
//! the denominator, and an org that does not define the name never
//! satisfies it (Fabric's reject policy), so a name no org defines — say
//! `MAJORITY Endorsment` — is never satisfied. [`Policy::evaluate_set`]
//! gives the answer for one endorser set, [`Policy::satisfiable_within`]
//! whether any endorsement set drawn from a set of orgs could satisfy the
//! policy, and both apply the same ANY/ALL/MAJORITY rule.
//!
//! Evaluation is *matching-exact*: each endorsement may satisfy at most one
//! principal requirement, as in Fabric (so `AND('Org1.peer','Org1.peer')`
//! needs two distinct Org1 peers).
//!
//! # Examples
//!
//! ```
//! use fabric_policy::SignaturePolicy;
//! use fabric_types::{Identity, Role};
//! use fabric_crypto::Keypair;
//!
//! # fn main() -> Result<(), fabric_policy::ParsePolicyError> {
//! let policy = SignaturePolicy::parse("AND('Org1MSP.peer','Org2MSP.peer')")?;
//! let p1 = Identity::new("Org1MSP", Role::Peer, Keypair::generate_from_seed(1).public_key());
//! let p2 = Identity::new("Org2MSP", Role::Peer, Keypair::generate_from_seed(2).public_key());
//! assert!(policy.satisfied_by(&[p1.clone(), p2]));
//! assert!(!policy.satisfied_by(&[p1]));
//! # Ok(())
//! # }
//! ```

mod ast;
mod cache;
mod channel;
mod eval;
mod parser;
mod plan;

pub use ast::{
    ImplicitMetaPolicy, ImplicitMetaRule, Policy, Principal, PrincipalRole, SignaturePolicy,
};
pub use cache::PolicyCache;
pub use channel::ChannelPolicies;
pub use eval::EndorserSet;
pub use parser::ParsePolicyError;
pub use plan::{minimal_endorsement_set, minimal_endorsement_set_for};
