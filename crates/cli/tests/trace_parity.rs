//! Trace-overhead guard: tracing is *observability*, never protocol.
//!
//! Three contracts, per ISSUE PR 6:
//! 1. `trace = "off"` (and the default, which is off) leaves the
//!    transcript bit-identical — same bytes, messages, op counts, model,
//!    and predictions as a build that never heard of tracing.
//! 2. `trace = "full"` perturbs nothing observable: model, metric, and
//!    traffic equal the untraced run exactly (only wall clocks may move).
//! 3. The phase table is *complete*: per party, the rounds column sums to
//!    `mpc_rounds` and the byte columns sum to the train + predict
//!    NetStats totals — no round or byte escapes attribution.

use pivot_cli::algo::Algo;
use pivot_cli::runner::{execute, Execution};
use pivot_cli::scenario::Scenario;
use std::sync::{Mutex, PoisonError};

/// `pivot_trace::enabled()` and the runtime sink are process-global: a
/// traced run in one test thread would make the background refills of an
/// untraced run in another record spans. One run at a time in this binary.
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

/// Everything deterministic a run exposes — traffic, op counts, model,
/// predictions. Wall clocks and pool hit rates are timing-dependent and
/// deliberately excluded.
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
            (
                x.train_bytes_sent,
                x.train_bytes_received,
                x.train_messages_sent
            ),
            (
                y.train_bytes_sent,
                y.train_bytes_received,
                y.train_messages_sent
            ),
            "{what}: party {p} train traffic"
        );
        assert_eq!(
            (x.predict_bytes_sent, x.predict_bytes_received),
            (y.predict_bytes_sent, y.predict_bytes_received),
            "{what}: party {p} predict traffic"
        );
        assert_eq!(
            (x.encryptions, x.threshold_decryptions, x.mpc_rounds),
            (y.encryptions, y.threshold_decryptions, y.mpc_rounds),
            "{what}: party {p} op counts"
        );
        assert_eq!(
            (
                x.secure_mults,
                x.secure_comparisons,
                x.split_stat_ciphertexts
            ),
            (
                y.secure_mults,
                y.secure_comparisons,
                y.split_stat_ciphertexts
            ),
            "{what}: party {p} protocol counters"
        );
        assert_eq!(
            x.stats_bytes_sent, y.stats_bytes_sent,
            "{what}: party {p} stats traffic"
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
    // Both granularities must attribute *everything*: fine spans re-bucket
    // counters inside their enclosing phase, so the column sums are
    // invariant across "phases" and "full".
    for (line, tag) in [
        ("trace = \"phases\"\n", "phases"),
        ("trace = \"full\"\n", "full"),
    ] {
        let exec = run_with(&format!("sum-{tag}"), line, Algo::PivotEnhancedPp);
        for p in &exec.parties {
            let trace = p.trace.as_ref().expect("traced run");
            let rows = pivot_trace::phase_table(trace);
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
                rounds, p.mpc_rounds,
                "{tag}: party {} rounds attribution",
                p.party
            );
            assert_eq!(
                sent,
                p.train_bytes_sent + p.predict_bytes_sent,
                "{tag}: party {} sent-byte attribution",
                p.party
            );
            assert_eq!(
                recv,
                p.train_bytes_received + p.predict_bytes_received,
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
            let (pass, _, _) = p.packed;
            let root_mask = if p.party == 0 { n } else { 0 };
            assert_eq!(
                p.encryptions,
                root_mask + pass + concealed,
                "{tag}: party {} encryptions",
                p.party
            );
            let rows = pivot_trace::phase_table(p.trace.as_ref().expect("traced run"));
            let sent = |phase: &str| {
                rows.iter()
                    .find(|row| row.phase == phase)
                    .map_or(0, |row| row.sent_bytes)
            };
            assert_eq!(sent("update"), 0, "{tag}: party {} update bytes", p.party);
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
