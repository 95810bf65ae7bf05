//! `--out` names a directory the reports land in once the runs are
//! done; one that does not exist yet is created before the first run,
//! so a long racecheck never ends in a failed write.

use std::process::Command;

#[test]
fn racecheck_into_a_missing_out_dir_creates_it_and_writes_the_report() {
    let base = std::env::temp_dir().join(format!("magma-bench-out-{}", std::process::id()));
    let out = base.join("not/there/yet");
    let _ = std::fs::remove_dir_all(&base);
    let status = Command::new(env!("CARGO_BIN_EXE_magma-bench"))
        .args(["--racecheck", "1", "--scenario", "smoke", "--out"])
        .arg(&out)
        .status()
        .expect("magma-bench runs");
    let written = out.join("RACE_smoke.json").is_file();
    let _ = std::fs::remove_dir_all(&base);
    assert!(status.success(), "magma-bench exited {status}");
    assert!(written, "RACE_smoke.json was not written");
}
