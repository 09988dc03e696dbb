//! Golden output digests of every figure, study and ablation binary.
//!
//! Each binary runs in a fresh working directory with `CARGO_TARGET_DIR`
//! unset, so its `[saved …]` lines name `target/figures/…` wherever the
//! test runs. The FNV-1a 64 of its stdout, and of every CSV it writes
//! there, must equal the digest committed in `tests/golden.fnv`. See the
//! workspace's `tests/common/golden.rs` for the file format and how a
//! deliberate change updates it.

#[path = "../../../tests/common/golden.rs"]
mod golden;

use golden::{assert_matches, file_digest, fnv64, scratch, stdout_of, Output};
use std::process::Command;

macro_rules! binaries {
    ($($name:literal),* $(,)?) => {
        &[$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// Every binary under `src/bin` but the benchmark runner, with its path.
const BINARIES: &[(&str, &str)] = binaries![
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig09",
    "fig10",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "study_aging",
    "study_droops",
    "study_guardband_budget",
    "study_imbalance",
    "study_temperature",
    "study_transient",
    "ablation_calibration",
    "ablation_didt",
    "ablation_loadline",
    "ablation_predictor",
];

#[test]
fn every_binary_is_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    for entry in std::fs::read_dir(dir).expect("list src/bin") {
        let path = entry.expect("src/bin entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            let stem = path.file_stem().unwrap().to_str().unwrap();
            assert!(
                BINARIES.iter().any(|&(name, _)| name == stem),
                "binary `{stem}` has no golden digest"
            );
        }
    }
}

#[test]
fn figure_outputs_match_their_golden_digests() {
    let mut outputs = Vec::new();
    for &(name, exe) in BINARIES {
        let dir = scratch(name);
        let mut bin = Command::new(exe);
        bin.env_remove("CARGO_TARGET_DIR");
        outputs.push(Output {
            name: name.to_string(),
            command: name.to_string(),
            digest: fnv64(&stdout_of(bin, &dir)),
        });
        let figures = dir.join("target").join("figures");
        let mut files: Vec<_> = std::fs::read_dir(&figures)
            .map(|entries| entries.map(|e| e.expect("figures entry").path()).collect())
            .unwrap_or_default();
        files.sort();
        for file in files {
            let file_name = file.file_name().unwrap().to_str().unwrap();
            outputs.push(Output {
                name: format!("{name}/{file_name}"),
                command: name.to_string(),
                digest: file_digest(&file),
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_matches(
        "crates/bench/tests/golden.fnv",
        include_str!("golden.fnv"),
        &outputs,
    );
}
