//! Command-line behaviour of the `experiments` binary.

use std::process::Command;

#[test]
fn unknown_experiment_id_exits_2_and_lists_valid_ids() {
    let results = std::env::temp_dir().join(format!("dynnet-cli-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e1", "e99", "--smoke", "--results-dir"])
        .arg(&results)
        .output()
        .expect("run the experiments binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id(s): e99"), "{stderr}");
    assert!(stderr.contains("valid ids: e1 "), "{stderr}");
    // Nothing ran: not even the valid id next to the typo.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        !results.exists(),
        "results written for a rejected command line"
    );
}
