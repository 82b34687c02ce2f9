//! Checked deployment under hostile policy text: near-miss and arbitrary
//! strings in each of a definition's three policy fields (the chaincode
//! `EndorsementPolicy`, a collection's membership `Policy` and its
//! `EndorsementPolicy`). `check` decides without panicking; a definition
//! it refuses installs nothing; one it accepts holds the parse of every
//! text it was given — a defined collection policy is never read as
//! undefined, which would fall back to the chaincode policy (Use Case 2)
//! — and a write to it never commits `BadPayload`.

use fabric_pdc::chaincode::DefinitionError;
use fabric_pdc::policy::{Policy, SignaturePolicy};
use fabric_pdc::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const ORGS: [&str; 3] = ["Org1MSP", "Org2MSP", "Org3MSP"];

/// Well-formed texts for each field, which the cases damage.
const CHAINCODE: [&str; 4] = [
    "MAJORITY Endorsement",
    "ANY Endorsement",
    "AND('Org1MSP.peer','Org2MSP.peer')",
    "OutOf(1,'Org1MSP.peer','Org3MSP.peer')",
];
const MEMBER: [&str; 2] = [
    "OR('Org1MSP.member','Org2MSP.member')",
    "OR('Org1MSP.member','Org2MSP.member','Org3MSP.member')",
];
const COLLECTION: [&str; 2] = [
    "OR('Org1MSP.peer','Org2MSP.peer')",
    "AND('Org1MSP.peer','Org2MSP.peer')",
];

/// Characters a damaged expression draws from: the policy grammar's own,
/// plus some it never uses.
const ALPHABET: &[char] = &[
    '(', ')', ',', '.', '\'', ' ', 'O', 'R', 'A', 'N', 'D', 'M', 'S', 'P', 'E', 'e', 'r', 'm', 'b',
    'p', 'g', '1', '2', '3', '9', '"', 'é', '\t',
];

/// A small deterministic stream of choices drawn from one seed.
struct Choices(u64);

impl Choices {
    fn next(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound.max(1) as u64) as usize
    }

    fn char(&mut self) -> char {
        ALPHABET[self.next(ALPHABET.len())]
    }

    /// One of `valid`, damaged when `hit`: one character deleted,
    /// replaced or inserted, or an arbitrary string instead.
    fn damaged(&mut self, valid: &[&str], hit: bool) -> String {
        let mut chars: Vec<char> = valid[self.next(valid.len())].chars().collect();
        let at = self.next(chars.len());
        match self.next(5) {
            _ if !hit => {}
            0 => {
                chars.remove(at);
            }
            1 => chars[at] = self.char(),
            2 | 3 => chars.insert(at, self.char()),
            _ => return (0..self.next(24)).map(|_| self.char()).collect(),
        }
        chars.into_iter().collect()
    }
}

/// One case's texts: chaincode policy, member policy and, when defined,
/// collection endorsement policy.
struct Texts {
    chaincode: String,
    member: String,
    collection: Option<String>,
}

impl Texts {
    /// Damages one field, or all three.
    fn draw(c: &mut Choices) -> Self {
        let hit = c.next(4);
        let chaincode = c.damaged(&CHAINCODE, hit == 0 || hit == 3);
        let member = c.damaged(&MEMBER, hit == 1 || hit == 3);
        let collection = (c.next(4) > 0).then(|| c.damaged(&COLLECTION, hit >= 2));
        Texts {
            chaincode,
            member,
            collection,
        }
    }

    fn definition(&self) -> ChaincodeDefinition {
        let mut pdc1 = CollectionConfig::new("PDC1", self.member.as_str());
        if let Some(expr) = &self.collection {
            pdc1 = pdc1.with_endorsement_policy(expr.as_str());
        }
        ChaincodeDefinition::new("guarded")
            .with_endorsement_policy(self.chaincode.as_str())
            .with_collection(pdc1)
    }
}

fn network(seed: u64) -> FabricNetwork {
    NetworkBuilder::new("ch1").orgs(&ORGS).seed(seed).build()
}

/// Whether `definition` installs on the channel's peers. A refusal must
/// leave every peer without the chaincode.
fn installs(net: &mut FabricNetwork, definition: &ChaincodeDefinition) -> bool {
    let ns = ChaincodeId::new("guarded");
    let accepted: Vec<bool> = net
        .peer_names()
        .iter()
        .map(|name| {
            let handle = Arc::new(GuardedPdc::unconstrained("PDC1"));
            let peer = net.peer_mut(name);
            let ok = peer.install_chaincode(definition.clone(), handle).is_ok();
            assert_eq!(peer.chaincode(&ns).is_some(), ok, "{name}");
            ok
        })
        .collect();
    assert!(
        accepted.iter().all(|&ok| ok == accepted[0]),
        "peers disagree"
    );
    accepted[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_deployed_definition_holds_every_policy_it_was_given(seed in 1u64..u64::MAX) {
        let texts = Texts::draw(&mut Choices(seed));
        let definition = texts.definition();
        let mut net = network(seed);
        if installs(&mut net, &definition) {
            holds_every_policy(&texts, &definition);
            net.deploy_chaincode(definition, Arc::new(GuardedPdc::unconstrained("PDC1")));
            let written = net.submit_transaction(
                "client0.org1",
                "guarded",
                "write",
                &["k1", "1"],
                &[],
                &["peer0.org1", "peer0.org2"],
            );
            if let Ok(outcome) = written {
                prop_assert!(outcome.validation_code != TxValidationCode::BadPayload);
            }
        }
    }
}

/// An accepted definition reads each text as its parse: none is dropped,
/// and a defined collection policy is not read as undefined.
fn holds_every_policy(texts: &Texts, definition: &ChaincodeDefinition) {
    let col = CollectionName::new("PDC1");
    assert_eq!(
        Some(definition.endorsement()),
        Policy::parse(&texts.chaincode).ok().as_ref()
    );
    let members = SignaturePolicy::parse(&texts.member).map(|p| p.organizations());
    assert_eq!(
        definition
            .members(&col)
            .map(|m| m.iter().cloned().collect()),
        members.ok()
    );
    assert_eq!(
        definition.collection_endorsement(&col).is_some(),
        texts.collection.is_some()
    );
    if let Some(expr) = &texts.collection {
        assert_eq!(
            definition.collection_endorsement(&col),
            SignaturePolicy::parse(expr).ok().as_ref()
        );
    }
}

/// The damage has to reach both outcomes, or the property above is
/// vacuous: some damaged definitions must still install, and some must be
/// refused — for each field that carries damage.
#[test]
fn damage_reaches_both_outcomes() {
    let channel = network(1).peer("peer0.org1").channel_policies().clone();
    let (mut accepted, mut refused) = (0, [0; 3]);
    for seed in 1..600u64 {
        let texts = Texts::draw(&mut Choices(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        match texts.definition().check(&channel) {
            Ok(()) => accepted += 1,
            Err(DefinitionError::UnparsableEndorsementPolicy(_))
            | Err(DefinitionError::UndefinedSubPolicy(_)) => refused[0] += 1,
            Err(DefinitionError::UnparsableMemberPolicy { .. })
            | Err(DefinitionError::UnknownMemberOrg { .. }) => refused[1] += 1,
            Err(DefinitionError::UnparsableCollectionEndorsementPolicy { .. }) => refused[2] += 1,
            Err(other) => panic!("no case makes this refusal: {other}"),
        }
    }
    assert!(
        accepted > 50,
        "only {accepted} damaged definitions installed"
    );
    for (field, n) in ["chaincode", "member", "collection"].iter().zip(refused) {
        assert!(n > 20, "only {n} refusals of the {field} policy");
    }
}
