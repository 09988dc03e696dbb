//! Golden output digests of the `ags` CLI: the bytes it prints, pinned.
//!
//! Each command below runs through the real binary, in a fresh working
//! directory. The FNV-1a 64 of its stdout, and of every file it writes,
//! must equal the digest committed in `tests/golden.fnv`. The shape tests
//! in `figure_trends.rs` accept a result that moved in its last digit;
//! this test does not. See `tests/common/golden.rs` for the file format
//! and how a deliberate change updates it.

#[path = "common/golden.rs"]
mod golden;

use golden::{assert_matches, file_digest, fnv64, scratch, stdout_of, Output};
use std::process::Command;

/// One `ags` command: the name its stdout digest goes by, its arguments,
/// and the files it writes into its working directory, each with the name
/// its digest goes by.
struct Case {
    name: &'static str,
    args: &'static [&'static str],
    files: &'static [(&'static str, &'static str)],
}

const CASES: &[Case] = &[
    Case {
        name: "sweep_fig10",
        args: &["sweep", "--spec", "fig10", "--csv", "fig10.csv"],
        files: &[("sweep_fig10_csv", "fig10.csv")],
    },
    Case {
        name: "sweep_smoke",
        args: &["sweep", "--smoke", "--jobs", "2", "--metrics", "m.prom"],
        files: &[("sweep_smoke_metrics", "m.prom")],
    },
    Case {
        name: "fleet_smoke",
        args: &["fleet", "--smoke", "--jobs", "2", "--metrics", "m.prom"],
        files: &[("fleet_smoke_metrics", "m.prom")],
    },
    Case {
        name: "fleet_full",
        args: &["fleet", "--jobs", "1"],
        files: &[],
    },
    Case {
        name: "resilience_smoke",
        args: &[
            "resilience",
            "--smoke",
            "--jobs",
            "2",
            "--metrics",
            "m.prom",
        ],
        files: &[("resilience_smoke_metrics", "m.prom")],
    },
    Case {
        name: "run_raytrace",
        args: &["run", "--workload", "raytrace"],
        files: &[],
    },
    Case {
        name: "borrow_radix",
        args: &["borrow", "--workload", "radix"],
        files: &[],
    },
    Case {
        name: "cluster_raytrace",
        args: &[
            "cluster",
            "--workload",
            "raytrace",
            "--threads",
            "12",
            "--servers",
            "4",
        ],
        files: &[],
    },
    Case {
        name: "sweep_lu_cb_overclock",
        args: &["sweep", "--workload", "lu_cb", "--mode", "overclock"],
        files: &[],
    },
];

#[test]
fn cli_outputs_match_their_golden_digests() {
    let mut outputs = Vec::new();
    for case in CASES {
        let dir = scratch(case.name);
        let mut ags = Command::new(env!("CARGO_BIN_EXE_ags"));
        ags.args(case.args);
        let command = format!("ags {}", case.args.join(" "));
        outputs.push(Output {
            name: case.name.to_string(),
            command: command.clone(),
            digest: fnv64(&stdout_of(ags, &dir)),
        });
        for &(name, file) in case.files {
            outputs.push(Output {
                name: name.to_string(),
                command: command.clone(),
                digest: file_digest(&dir.join(file)),
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_matches("tests/golden.fnv", include_str!("golden.fnv"), &outputs);
}
