//! Fig. 11's overhead, counted in SHA-256 compressions.
//!
//! The `fig11` example times one endorsement and one block commit per
//! operation, with the defenses off and on; medians of a few microseconds
//! move with the host, the hashing inside them does not. This test runs
//! the example's own fixture (`examples/fig11/fixture.rs`) once per cell
//! and pins what each cell hashes, with the counter `fabric-crypto`
//! compiles into debug builds only. EXPERIMENTS.md (Fig. 11) states these
//! counts and the hash each compression comes from.
#![cfg(debug_assertions)]

#[path = "../examples/fig11/fixture.rs"]
mod fixture;

use fabric_pdc::crypto::compressions_on_this_thread;
use fabric_pdc::prelude::*;
use fabric_pdc::types::{PayloadCommitment, ProposalResponse};
use fixture::{
    fixture_network, make_proposal, prepared_block, process_prepared, validation_defense, TxOp,
};

/// Compressions per endorsement: (operation, original, New Feature 2).
const ENDORSE: [(TxOp, u64, u64); 3] = [
    (TxOp::Read, 8, 10),
    (TxOp::Write, 10, 11),
    (TxOp::Delete, 8, 10),
];

/// Compressions per commit of a one-transaction block: (operation, the
/// block's first commit, every later commit of a clone), the same with and
/// without New Feature 1 and the non-member filter. Clones of a block
/// share its transactions, so the first commit fills the memoized digests
/// (DESIGN.md §10) that the example's timed runs, like every peer of a
/// network, find warm.
const COMMIT: [(TxOp, u64, u64); 3] = [
    (TxOp::Read, 19, 12),
    (TxOp::Write, 23, 14),
    (TxOp::Delete, 20, 13),
];

/// One endorsement of `op` at `peer0.org1`, on the seed and nonce of the
/// example's first measured run: the response and the compressions spent.
fn endorse_work(op: TxOp, defense: DefenseConfig) -> (ProposalResponse, u64) {
    let net = fixture_network(defense, 21);
    let peer = net.peer("peer0.org1").clone();
    let proposal = make_proposal(&net, op, 10_001);
    let before = compressions_on_this_thread();
    let (response, _) = peer.endorse(&proposal).expect("endorse");
    let spent = compressions_on_this_thread() - before;
    assert!(response.verify(), "{} under {defense:?}", op.label());
    (response, spent)
}

/// Compressions a block holding `op` spends at `peer0.org2` when it is
/// validated and committed: on its first commit and on a second commit
/// of clones. The transaction must commit as valid both times.
fn commit_work(op: TxOp, defense: DefenseConfig) -> (u64, u64) {
    let mut net = fixture_network(defense, 22);
    let (peer, block, pvt) = prepared_block(&mut net, op, defense, 20_000);
    let commit = || {
        let before = compressions_on_this_thread();
        let valid = process_prepared(peer.clone(), block.clone(), &pvt);
        assert!(valid, "{} commits valid under {defense:?}", op.label());
        compressions_on_this_thread() - before
    };
    (commit(), commit())
}

/// Compressions SHA-256 runs over a `len`-byte message: the message, the
/// `0x80` pad byte and the 8-byte length, in 64-byte blocks.
fn blocks(len: usize) -> u64 {
    (len as u64 + 9).div_ceil(64)
}

#[test]
fn feature2_adds_the_payload_hash_and_the_longer_signed_message_to_an_endorsement() {
    assert_eq!(ENDORSE.map(|(op, ..)| op), TxOp::all());
    for (op, original, defended) in ENDORSE {
        let (response, plain) = endorse_work(op, DefenseConfig::original());
        let (_, hashed) = endorse_work(op, DefenseConfig::feature2());
        println!("{:<6} endorse {plain} -> {hashed}", op.label());
        assert_eq!((plain, hashed), (original, defended), "{}", op.label());
        // The whole difference: SHA-256 of the chaincode response, plus
        // the blocks the signing digest gains when that 32-byte digest
        // replaces the response in the signed message.
        let payload = &response.payload;
        let extra = blocks(payload.response.payload.len())
            + blocks(payload.signed_bytes(PayloadCommitment::HashedPayload).len())
            - blocks(payload.signed_bytes(PayloadCommitment::Plain).len());
        assert_eq!(hashed - plain, extra, "{}", op.label());
    }
}

#[test]
fn feature1_and_the_member_filter_add_no_hashing_to_a_block_commit() {
    assert_eq!(COMMIT.map(|(op, ..)| op), TxOp::all());
    for (op, first, repeat) in COMMIT {
        let plain = commit_work(op, DefenseConfig::original());
        let checked = commit_work(op, validation_defense());
        println!("{:<6} commit  {plain:?} -> {checked:?}", op.label());
        assert_eq!(plain, (first, repeat), "{}", op.label());
        assert_eq!(checked, (first, repeat), "{}", op.label());
    }
}
