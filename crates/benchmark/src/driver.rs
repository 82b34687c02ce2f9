//! The tick-scheduled open loop every workload runs under.
//!
//! One tick is one `Pipeline::tick` (the network's `advance(1)`). Each
//! offer tick a fractional credit of `offered_per_tick` operations
//! becomes due, and every due operation is generated, endorsed,
//! assembled and submitted whether or not earlier ones completed. After
//! the offer ticks the backlog drains. Latency is counted in ticks from
//! the tick an operation was due, so the generator cannot run late by
//! construction; what it costs in wall time is `driver.busy_share`.
//!
//! Commits are resolved by walking the blocks newly appended to the
//! first peer's block store each tick, never by asking per transaction.

use crate::sut::{self, Offered, Pipeline};
use crate::trace::Call;
use crate::workload::{OpGen, Spec};
use fabric_types::{TxId, TxValidationCode};
use std::collections::HashMap;
use std::time::Instant;

/// What one round of a workload did. Everything but the wall-clock
/// fields repeats exactly for a seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Round {
    pub offered: u64,
    /// Transactions committed `Valid`.
    pub ok_txs: u64,
    /// Queries answered with the seeded value.
    pub ok_queries: u64,
    pub wrong_replies: u64,
    pub rejected_endorse: u64,
    pub mvcc_conflict: u64,
    pub invalid_other: u64,
    pub unresolved: u64,
    pub offer_ticks: u64,
    pub drain_ticks: u64,
    /// Due tick to commit tick, inclusive, of every `Valid` transaction.
    pub commit_latency_ticks: Vec<u32>,
    /// Submit tick to the tick the transaction's block came out of the
    /// orderer, for every ordered transaction.
    pub queue_wait_ticks: Vec<u32>,
    pub peak_in_flight: u64,
    /// Chain height when set-up ended; later blocks belong to the round.
    pub first_block: u64,
    /// Id of the first submitted transaction (a seed's fingerprint).
    pub first_tx_id: String,
    /// Wall time of the offer and drain ticks.
    pub wall_s: f64,
    /// Wall time of each delivering tick divided by its blocks, ms.
    pub advance_ms_per_block: Vec<f64>,
}

impl Round {
    pub fn ok(&self) -> u64 {
        self.ok_txs + self.ok_queries
    }

    pub fn total_ticks(&self) -> u64 {
        self.offer_ticks + self.drain_ticks
    }

    /// Operations the program did not process as asked. An MVCC conflict
    /// is not one: the transaction was ordered and correctly invalidated.
    pub fn failed(&self) -> u64 {
        self.wrong_replies + self.rejected_endorse + self.invalid_other + self.unresolved
    }
}

/// Runs one round on a set-up pipeline.
pub fn run_round<P: Pipeline>(p: &mut P, spec: &Spec, seed: u64, smoke: bool) -> Round {
    let offer_ticks = spec.offer_ticks(smoke);
    let drain_budget = 4 * offer_ticks + 256;
    let mut gen = OpGen::new(spec.mix, seed);
    let mut round = Round {
        offer_ticks,
        first_block: sut::height(p),
        ..Round::default()
    };
    let mut next_block = round.first_block;
    // Submitted and unresolved transactions, with the tick each was due.
    let mut in_flight: HashMap<TxId, u64> = HashMap::new();
    let mut credit = 0.0_f64;
    let mut tick = 0_u64;

    p.begin_measurement();
    let start = Instant::now();
    loop {
        let offering = tick < offer_ticks;
        if !offering && (in_flight.is_empty() || round.drain_ticks >= drain_budget) {
            break;
        }
        tick += 1;
        if offering {
            credit += spec.offered_per_tick;
            while credit >= 1.0 {
                credit -= 1.0;
                round.offered += 1;
                p.enter(Call::DriverOffer, round.offered - 1);
                let op = gen.next_op();
                // The seed is part of the nonce, so two seeds never share
                // a transaction id even when they draw the same client.
                let nonce = (seed << 32) | op.seq;
                match sut::offer(p, spec, &op, nonce) {
                    Offered::Submitted(tx_id) => {
                        if round.first_tx_id.is_empty() {
                            round.first_tx_id = tx_id.as_str().to_string();
                        }
                        in_flight.insert(tx_id, tick);
                    }
                    Offered::Answered { correct: true } => round.ok_queries += 1,
                    Offered::Answered { correct: false } => round.wrong_replies += 1,
                    Offered::Rejected => round.rejected_endorse += 1,
                }
                p.exit();
            }
        } else {
            round.drain_ticks += 1;
        }
        round.peak_in_flight = round.peak_in_flight.max(in_flight.len() as u64);

        let tick_start = Instant::now();
        p.tick();
        let tick_wall = tick_start.elapsed();

        p.enter(Call::DriverResolve, tick);
        let height = sut::committed_since(p, next_block, |tx_id, code| {
            let Some(due_tick) = in_flight.remove(tx_id) else {
                return;
            };
            round.queue_wait_ticks.push((tick - due_tick) as u32);
            match code {
                TxValidationCode::Valid => {
                    round.ok_txs += 1;
                    round
                        .commit_latency_ticks
                        .push((tick - due_tick + 1) as u32);
                }
                TxValidationCode::MvccReadConflict => round.mvcc_conflict += 1,
                _ => round.invalid_other += 1,
            }
        });
        if height > next_block {
            round
                .advance_ms_per_block
                .push(tick_wall.as_secs_f64() * 1e3 / (height - next_block) as f64);
            next_block = height;
        }
        p.exit();
    }
    round.wall_s = start.elapsed().as_secs_f64();
    round.unresolved = in_flight.len() as u64;
    round
}
