//! Trace-overhead guard: tracing is *observability*, never protocol.
//!
//! Four contracts:
//! 1. `trace = "off"` (and the default, which is off) leaves the
//!    transcript bit-identical — same bytes, messages, op counts, model,
//!    and predictions as a build that never heard of tracing.
//! 2. `trace = "full"` perturbs nothing observable: model, metric, and
//!    traffic equal the untraced run exactly (only wall clocks may move).
//! 3. The phase table is *complete*: per party, the rounds column sums to
//!    `mpc_rounds` and the byte columns sum to the registry's byte
//!    totals — no round or byte escapes attribution.
//! 4. The per-phase counts are the registry's at every trace level: an
//!    untraced run's per-phase cells are the traced run's table.

use pivot_cli::algo::Algo;
use pivot_cli::runner::{execute, Execution};
use pivot_cli::scenario::Scenario;
use pivot_core::Counter;
use std::sync::{Mutex, PoisonError};

/// `pivot_trace::enabled()` and the runtime sink are process-global: a
/// traced run in one test thread would make the worker-pool batches of an
/// untraced run in another record queue-depth gauges. One run at a time in
/// this binary.
static ONE_RUN: Mutex<()> = Mutex::new(());

fn scenario(tag: &str, body: &str) -> Scenario {
    let path = std::env::temp_dir().join(format!(
        "pivot-trace-parity-{}-{tag}.toml",
        std::process::id()
    ));
    std::fs::write(&path, body).unwrap();
    let s = Scenario::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    s
}

const BASE: &str = "seed = 31337\nparties = 3\n\
     [data]\nkind = \"synthetic-classification\"\nsamples = 30\n\
     features_per_party = 2\nclasses = 2\nflip_y = 0.05\n\
     [params]\nmax_depth = 2\nmax_splits = 3\nkeysize = 128\n";

fn run_with(tag: &str, trace_line: &str, algo: Algo) -> Execution {
    run(tag, &format!("{BASE}{trace_line}"), algo, false)
}

fn run(tag: &str, body: &str, algo: Algo, skip_prediction: bool) -> Execution {
    // A failed assertion in another test poisons the lock; it guards no data.
    let _one_run = ONE_RUN.lock().unwrap_or_else(PoisonError::into_inner);
    execute(&scenario(tag, body), algo, skip_prediction).unwrap()
}

/// Everything deterministic a run exposes — every counter, model,
/// predictions. Wall clocks are timing-dependent and deliberately
/// excluded.
fn assert_transcript_identical(a: &Execution, b: &Execution, what: &str) {
    assert_eq!(a.metric, b.metric, "{what}: metric");
    for (x, y) in a.parties.iter().zip(&b.parties) {
        let p = x.party;
        assert_eq!(
            x.predictions, y.predictions,
            "{what}: party {p} predictions"
        );
        assert_eq!(
            x.internal_nodes, y.internal_nodes,
            "{what}: party {p} model"
        );
        assert_eq!(x.tree_depth, y.tree_depth, "{what}: party {p} depth");
        assert_eq!(
            x.train.counts(),
            y.train.counts(),
            "{what}: party {p} counters at the end of training"
        );
        assert_eq!(
            x.counters.counts(),
            y.counters.counts(),
            "{what}: party {p} counters at the end of the run"
        );
    }
}

#[test]
fn trace_off_is_bit_identical_to_default() {
    for (algo, tag) in [(Algo::PivotBasic, "basic"), (Algo::PivotEnhancedPp, "epp")] {
        let default = run_with(&format!("default-{tag}"), "", algo);
        let off = run_with(&format!("off-{tag}"), "trace = \"off\"\n", algo);
        assert_transcript_identical(&default, &off, tag);
        for e in [&default, &off] {
            assert!(
                e.parties.iter().all(|p| p.trace.is_none()),
                "{tag}: untraced runs carry no trace"
            );
            assert!(e.runtime_trace.is_none(), "{tag}: no runtime trace");
        }
    }
}

#[test]
fn full_tracing_never_perturbs_the_protocol() {
    for (algo, tag) in [(Algo::PivotBasic, "basic"), (Algo::PivotEnhancedPp, "epp")] {
        let off = run_with(&format!("p-off-{tag}"), "trace = \"off\"\n", algo);
        let full = run_with(&format!("p-full-{tag}"), "trace = \"full\"\n", algo);
        assert_transcript_identical(&off, &full, tag);
        assert!(
            full.parties.iter().all(|p| p.trace.is_some()),
            "{tag}: full tracing records every party"
        );
    }
}

#[test]
fn phase_table_accounts_for_every_round_and_byte() {
    // Both granularities must attribute *everything*: a count recorded in
    // a fine span belongs to its enclosing phase, so the column sums are
    // invariant across "phases" and "full".
    for (line, tag) in [
        ("trace = \"phases\"\n", "phases"),
        ("trace = \"full\"\n", "full"),
    ] {
        let exec = run_with(&format!("sum-{tag}"), line, Algo::PivotEnhancedPp);
        for p in &exec.parties {
            let rows = p.phase_table().expect("traced run");
            for row in &rows {
                assert!(
                    pivot_trace::PHASES.contains(&row.phase.as_str()),
                    "{tag}: unknown phase {:?}",
                    row.phase
                );
            }
            let rounds: u64 = rows.iter().map(|r| r.rounds).sum();
            let sent: u64 = rows.iter().map(|r| r.sent_bytes).sum();
            let recv: u64 = rows.iter().map(|r| r.recv_bytes).sum();
            assert_eq!(
                rounds,
                p.counters[Counter::Rounds],
                "{tag}: party {} rounds attribution",
                p.party
            );
            assert_eq!(
                sent,
                p.counters[Counter::BytesSent],
                "{tag}: party {} sent-byte attribution",
                p.party
            );
            assert_eq!(
                recv,
                p.counters[Counter::BytesReceived],
                "{tag}: party {} recv-byte attribution",
                p.party
            );
            // Named protocol phases actually ran — the table is not one
            // big "other" bucket.
            let named: Vec<&str> = rows
                .iter()
                .filter(|r| r.phase != "other")
                .map(|r| r.phase.as_str())
                .collect();
            for expect in [
                "setup",
                "stats",
                "conversion",
                "gain",
                "split_reveal",
                "predict",
            ] {
                assert!(
                    named.contains(&expect),
                    "{tag}: party {} phase table misses {expect:?} ({named:?})",
                    p.party
                );
            }
        }
        // The Chrome export of the same run passes its own checker (the
        // CI smoke gate uses the identical validation path).
        let traces: Vec<_> = exec
            .parties
            .iter()
            .filter_map(|p| p.trace.clone())
            .collect();
        let json = pivot_trace::chrome_trace_json(&traces, exec.runtime_trace.as_ref());
        let path = std::env::temp_dir().join(format!(
            "pivot-trace-parity-chrome-{}-{tag}.json",
            std::process::id()
        ));
        std::fs::write(&path, &json).unwrap();
        pivot_cli::trace_cmd::run(&pivot_cli::trace_cmd::TraceArgs {
            input: path.clone(),
            check: true,
            diff: None,
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn an_untraced_run_counts_per_phase_what_the_traced_table_shows() {
    // Phase spans set the registry's phase at every trace level, so the
    // per-phase rounds and bytes need no collector.
    const GBDT: &str = "[model]\nkind = \"gbdt\"\nrounds = 2\nlearning_rate = 0.5\n";
    for (algo, tag, model) in [
        (Algo::PivotBasic, "basic", ""),
        (Algo::PivotEnhancedPp, "epp", ""),
        (Algo::PivotBasic, "gbdt", GBDT),
    ] {
        let body = |trace: &str| format!("{BASE}trace = \"{trace}\"\n{model}");
        let off = run(&format!("cells-off-{tag}"), &body("off"), algo, false);
        let traced = run(&format!("cells-on-{tag}"), &body("phases"), algo, false);
        for (u, t) in off.parties.iter().zip(&traced.parties) {
            let rows = t.phase_table().expect("traced run");
            assert!(
                u.phase_table().is_none(),
                "{tag}: untraced runs render no table"
            );
            for (cell, phase) in pivot_trace::PHASES.iter().enumerate() {
                let row = rows.iter().find(|r| r.phase == *phase);
                let traced_row = row.map_or((0, 0, 0), |r| (r.rounds, r.sent_bytes, r.recv_bytes));
                let at = |counter| u.counters.by_phase(counter)[cell];
                assert_eq!(
                    (
                        at(Counter::Rounds),
                        at(Counter::BytesSent),
                        at(Counter::BytesReceived)
                    ),
                    traced_row,
                    "{tag}: party {} phase {phase}",
                    u.party
                );
            }
            assert!(
                rows.iter().any(|r| r.phase == "gain" && r.rounds > 0),
                "{tag}: party {} {rows:?}",
                t.party
            );
        }
    }
}

#[test]
fn a_stump_pays_for_one_statistics_pass_and_nothing_per_sample_after_it() {
    // `max_depth = 1`: one split whose children are depth-forced leaves.
    // The children's totals are the winning column of the root's
    // statistics and nothing reads their masks, so after the root's pass
    // no O(n) ciphertext vector exists: no mask update, no leaf label
    // masks. Asserted as absence, so that reintroducing either fails a
    // test and not only a benchmark.
    const KEYSIZE: u64 = 256;
    const MAX_SPLITS: u64 = 3;
    let body = format!(
        "seed = 31337\nparties = 3\n\
         [data]\nkind = \"synthetic-classification\"\nsamples = 40\n\
         features_per_party = 2\nclasses = 2\nflip_y = 0.05\n\
         [params]\nmax_depth = 1\nmax_splits = {MAX_SPLITS}\nkeysize = {KEYSIZE}\n\
         trace = \"phases\"\n"
    );
    // What a party encrypts besides its Algorithm-2 masks: nothing under
    // the basic protocol; the `[λ]` of the one winning block and the two
    // leaf labels under the enhanced one.
    for (algo, tag, concealed) in [
        (Algo::PivotBasic, "basic", 0),
        (Algo::PivotEnhancedPp, "epp", MAX_SPLITS + 2),
    ] {
        let exec = run(&format!("stump-{tag}"), &body, algo, true);
        let n = exec.train_samples as u64;
        for p in &exec.parties {
            assert_eq!(p.internal_nodes, 1, "{tag}: a stump");
            // One Algorithm-2 mask per packed ciphertext of the root's
            // pass; the super client also encrypted the root's `[α]`.
            let pass = p.counters[Counter::PackedCiphertexts];
            let root_mask = if p.party == 0 { n } else { 0 };
            assert_eq!(
                p.counters[Counter::Encryptions],
                root_mask + pass + concealed,
                "{tag}: party {} encryptions",
                p.party
            );
            let rows = p.phase_table().expect("traced run");
            let sent = |phase: &str| {
                rows.iter()
                    .find(|row| row.phase == phase)
                    .map_or(0, |row| row.sent_bytes)
            };
            // `update` opens with the root's `[α]`, which the super client
            // sends each peer: n ciphertexts of at most 2·KEYSIZE bits,
            // each behind an 8-byte length. A mask update would send
            // another vector over the samples and exceed it.
            let root_mask_bytes = if p.party == 0 {
                (exec.parties.len() as u64 - 1) * (n * (8 + KEYSIZE / 4) + 64)
            } else {
                0
            };
            assert!(
                sent("update") <= root_mask_bytes,
                "{tag}: party {} sent {} update bytes",
                p.party,
                sent("update")
            );
            // The leaf phase still opens argmax lanes (and, concealed,
            // exchanges two label ciphertexts): a cost in `K`, not in `n`
            // — less than ONE encrypted vector over the samples.
            assert!(
                sent("leaf") < n * KEYSIZE / 4,
                "{tag}: party {} sent {} leaf bytes for {n} samples",
                p.party,
                sent("leaf")
            );
        }
    }
}

/// Figure 5's comparison at `max_splits = 4`, in a LAN: the three
/// algorithms release one tree (7 internal nodes at `max_depth = 3`).
const FIG5: &str = "seed = 7\nparties = 3\n\
     [data]\nkind = \"synthetic-classification\"\nsamples = 60\n\
     features_per_party = 2\nclasses = 2\n\
     [params]\nmax_depth = 3\nmax_splits = 4\nkeysize = 128\ntrace = \"phases\"\n";

fn phase_rounds(p: &pivot_cli::runner::PartyOutcome, phase: &str) -> u64 {
    let rows = p.phase_table().expect("traced run");
    rows.iter()
        .find(|row| row.phase == phase)
        .map_or(0, |row| row.rounds)
}

#[test]
fn spdz_dt_pays_pivot_basics_rounds_for_what_it_opens() {
    // SPDZ-DT grows on Pivot's level step with Pivot-Basic's disclosure:
    // the prune, gain, argmax, leaf and opening batches are Pivot-Basic's.
    // What it pays besides is named: input sharing, indicator comparisons
    // and Beaver products under `stats` (and the mask divisions under
    // `update`) — nothing is left to `other`.
    let basic = run("fig5-basic", FIG5, Algo::PivotBasic, false);
    let spdz = run("fig5-spdz", FIG5, Algo::SpdzDt, false);
    assert_eq!(spdz.metric, basic.metric);
    for (b, s) in basic.parties.iter().zip(&spdz.parties) {
        let party = s.party;
        assert_eq!(s.internal_nodes, 7, "party {party}: a full tree");
        assert_eq!(s.internal_nodes, b.internal_nodes, "party {party} model");
        assert_eq!(s.predictions, b.predictions, "party {party} predictions");
        for phase in ["gain", "leaf", "split_reveal"] {
            assert_eq!(
                phase_rounds(s, phase),
                phase_rounds(b, phase),
                "party {party}: {phase} rounds"
            );
        }
        for phase in ["stats", "update"] {
            assert!(phase_rounds(s, phase) > 0, "party {party}: {phase} rounds");
        }
        assert_eq!(phase_rounds(s, "other"), 0, "party {party}: other rounds");
    }
}

#[test]
fn npd_dt_sends_one_message_per_peer_and_level() {
    // Labels once, then one exchange of split proposals per level: with
    // the context setup's two exchanges, party 0 sends (m − 1)(3 + h)
    // messages, within (m − 1)(1 + 2h) for h ≥ 2.
    let (m, h) = (3, 3);
    let basic = run("fig5-basic-npd", FIG5, Algo::PivotBasic, false);
    let npd = run("fig5-npd", FIG5, Algo::NpdDt, false);
    assert_eq!(npd.metric, basic.metric);
    assert_eq!(
        npd.parties[0].internal_nodes,
        basic.parties[0].internal_nodes
    );
    assert_eq!(npd.parties[0].predictions, basic.parties[0].predictions);
    let sent = npd.parties[0].train[Counter::MessagesSent];
    assert!(sent <= (m - 1) * (1 + 2 * h), "party 0 sent {sent}");
    assert_eq!(sent, (m - 1) * (3 + h));
}
