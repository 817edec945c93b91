//! Malicious-model integration tests: the verification plane end to end.
//!
//! Three contracts are pinned here:
//!
//! 1. **Honest runs are free of false positives** — the spot-checked
//!    baseline scenario trains to the *same model and metric* as its
//!    verification-off twin (proofs ride alongside the transcript, they
//!    never perturb it), reports `proofs_rejected = 0`, and checks about
//!    the configured fraction of generated proofs.
//! 2. **Tampering is attributed in-process** — the threaded runner's
//!    error names the accused party and the phase where its published
//!    ciphertext stopped matching its proof.
//! 3. **Tampering is attributed over TCP** — real `pivot party`
//!    processes all die with exit code 12 and a structured error report
//!    naming the accused cheater (not the observer that happened to
//!    catch it).

use pivot_cli::algo::Algo;
use pivot_cli::json::Json;
use pivot_cli::runner::execute;
use pivot_cli::scenario::Scenario;
use pivot_core::Counter;
use pivot_transport::tcp::loopback_peers;
use std::path::PathBuf;
use std::process::{Child, Command};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pivot-adv-it-{}-{name}", std::process::id()))
}

fn baseline_scenario_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/verification_baseline.toml")
}

/// The baseline scenario with `[params] verification` overridden and an
/// optional `[adversary]` section appended, written to a temp file.
fn variant(name: &str, verification: &str, tamper: Option<&str>) -> PathBuf {
    let text = std::fs::read_to_string(baseline_scenario_path()).unwrap();
    let mut text = text.replace(
        "verification = \"spot(0.25)\"",
        &format!("verification = \"{verification}\""),
    );
    if let Some(tamper) = tamper {
        text.push_str(&format!("\n[adversary]\ntamper = \"{tamper}\"\n"));
    }
    let path = temp_path(&format!("{name}.toml"));
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn honest_spot_checked_run_matches_verification_off() {
    let spot = Scenario::load(&baseline_scenario_path()).unwrap();
    let off_path = variant("honest-off", "off", None);
    let off = Scenario::load(&off_path).unwrap();

    let checked = execute(&spot, Algo::PivotBasic, false).unwrap();
    let plain = execute(&off, Algo::PivotBasic, false).unwrap();

    // Identical model and predictions: verification is a pure overlay.
    assert_eq!(checked.metric, plain.metric);
    assert_eq!(
        checked.parties[0].internal_nodes,
        plain.parties[0].internal_nodes
    );
    assert_eq!(checked.parties[0].predictions, plain.parties[0].predictions);

    for (i, p) in checked.parties.iter().enumerate() {
        let v = &p.counters;
        let verified = v[Counter::ProofsVerified];
        assert!(
            v[Counter::ProofsGenerated] > 0,
            "party {i} generated no proofs"
        );
        assert_eq!(v[Counter::ProofsRejected], 0, "party {i} false positive");
        assert!(verified > 0, "party {i} checked nothing");
        // Spot(0.25): the seeded selection checks roughly a quarter of
        // the commits every observer sees. Wide tolerance — the sample
        // is small — but 25% must be distinguishable from 0% and 100%.
        let seen = (verified + v[Counter::ProofsSkipped]) as f64;
        let frac = verified as f64 / seen;
        assert!(
            (0.05..=0.60).contains(&frac),
            "party {i} verified fraction {frac}"
        );
    }
    // Verification-off runs generate nothing.
    let v = &plain.parties[0].counters;
    assert_eq!(
        v[Counter::ProofsGenerated] + v[Counter::ProofsVerified] + v[Counter::ProofsSkipped],
        0
    );

    std::fs::remove_file(&off_path).ok();
}

/// The packed-emission rows: ciphertexts, values carried, slots.
const PACKED: [Counter; 3] = [
    Counter::PackedCiphertexts,
    Counter::PackedValues,
    Counter::PackedSlotCapacity,
];

/// The packed statistics pipeline carries no proofs, so the default
/// `packing = "auto"` trains unpacked under verification — the same
/// split-statistics ciphertexts as an explicit `packing = "off"` — and an
/// explicit slot count is rejected.
#[test]
fn verified_run_with_default_packing_trains_unpacked() {
    let full_path = variant("unpacked-full", "full", None);
    let text = std::fs::read_to_string(&full_path).unwrap();
    let with_packing = |name: &str, value: &str| {
        let path = temp_path(&format!("{name}.toml"));
        std::fs::write(&path, format!("{text}\npacking = {value}\n")).unwrap();
        let loaded = Scenario::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    };
    let default = execute(
        &Scenario::load(&full_path).unwrap(),
        Algo::PivotBasic,
        false,
    )
    .unwrap();
    let off = execute(
        &with_packing("unpacked-off", "\"off\"").unwrap(),
        Algo::PivotBasic,
        false,
    )
    .unwrap();
    for (d, o) in default.parties.iter().zip(&off.parties) {
        let (d, o) = (&d.counters, &o.counters);
        assert_eq!(PACKED.map(|c| d[c]), [0, 0, 0], "packed under verification");
        assert_eq!(
            d[Counter::SplitStatCiphertexts],
            o[Counter::SplitStatCiphertexts]
        );
        assert!(d[Counter::ProofsVerified] > 0);
    }
    let err = with_packing("unpacked-slots", "4").unwrap_err();
    assert!(err.contains("packing"), "{err}");
    std::fs::remove_file(&full_path).ok();
}

#[test]
fn threaded_runner_names_the_tampering_party() {
    let path = variant(
        "tamper-threaded",
        "spot(1.0)",
        Some("party 1 phase=stats index=0"),
    );
    let s = Scenario::load(&path).unwrap();
    let err = execute(&s, Algo::PivotBasic, true).unwrap_err();
    assert!(
        err.contains("party 1 proof rejected"),
        "error does not accuse party 1: {err}"
    );
    assert!(err.contains("phase stats"), "error names no phase: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn tcp_parties_exit_12_and_report_the_accused() {
    let path = variant(
        "tamper-tcp",
        "spot(1.0)",
        Some("party 1 phase=stats index=0"),
    );
    let m = 3;
    let peers = loopback_peers(m);
    let outs: Vec<PathBuf> = (0..m)
        .map(|i| temp_path(&format!("tamper-party{i}.json")))
        .collect();
    let children: Vec<Child> = (0..m)
        .map(|i| {
            Command::new(env!("CARGO_BIN_EXE_pivot"))
                .args([
                    "party",
                    "--scenario",
                    path.to_str().unwrap(),
                    "--id",
                    &i.to_string(),
                    "--peers",
                    &peers.join(","),
                    "--out",
                    outs[i].to_str().unwrap(),
                    "--quiet",
                ])
                .spawn()
                .expect("spawn pivot party")
        })
        .collect();

    // Every party receives the tampered commit bundle before any check
    // runs, so all of them reject locally and exit 12 — including the
    // tamperer, whose own published ciphertext fails its proof.
    for (i, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("party process");
        assert_eq!(
            out.status.code(),
            Some(12),
            "party {i}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    for (i, out) in outs.iter().enumerate() {
        let report = Json::parse(&std::fs::read_to_string(out).unwrap())
            .unwrap_or_else(|e| panic!("party {i} report unparseable: {e}"));
        assert_eq!(report.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(
            report.path("error.kind").unwrap().as_str(),
            Some("proof_rejected")
        );
        // Attribution: the *accused* is the tamperer, whoever observed it.
        assert_eq!(report.path("error.accused").unwrap().as_u64(), Some(1));
        assert_eq!(
            report.path("error.observer").unwrap().as_u64(),
            Some(i as u64)
        );
        assert_eq!(report.path("error.phase").unwrap().as_str(), Some("stats"));
        assert!(report.path("error.proof_kind").unwrap().as_str().is_some());
        // The scenario echo records what was injected, for auditability.
        assert_eq!(
            report.path("scenario.adversary.tamper").unwrap().as_str(),
            Some("party 1 phase=stats index=0")
        );
        std::fs::remove_file(out).ok();
    }
    std::fs::remove_file(&path).ok();
}
