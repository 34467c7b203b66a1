//! `recn serve` against spool lines it must refuse — retired spec versions,
//! and a current-version spec whose series would not fit in memory: the
//! batch carrying them is answered with an error line naming the reason
//! and set aside as `.err`, and the daemon keeps draining — the batch
//! after it is served. And against a stdout it cannot write: the batch
//! keeps its name, so the next drain serves it from the cache.

use std::process::{Command, Stdio};

use experiments::RunSpec;
use fabric::SchemeKind;
use simcore::Picos;
use topology::MinParams;
use traffic::corner::CornerCase;

#[test]
fn refused_spool_lines_become_err_batches_and_the_drain_continues() {
    let spool = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweepd_pre_collapse");
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).expect("create spool");

    // One old line per retired version (the specs the pre-collapse golden
    // tables pinned), then a batch this build can run.
    let old: String = include_str!("fixtures/pre_collapse_specs.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let hex = l.split_whitespace().nth(2).expect("hex word");
            format!("{{\"spec_v1\": \"{hex}\"}}\n")
        })
        .collect();
    std::fs::write(spool.join("a_old.jsonl"), old).expect("write old batch");
    // 1.6 ms of 1 ps bins: decodes field by field, but running it would
    // allocate 1.6e9 points per series and abort the whole process.
    let long = RunSpec::corner(
        MinParams::paper_64(),
        SchemeKind::OneQ,
        CornerCase::case2_64(),
    )
    .with_bin(Picos::new(1));
    std::fs::write(
        spool.join("a_long.jsonl"),
        format!("{{\"spec_v1\": \"{}\"}}\n", long.encode_hex()),
    )
    .expect("write long batch");
    let demo = Command::new(env!("CARGO_BIN_EXE_recn"))
        .args(["serve", "--demo", "1"])
        .output()
        .expect("run recn serve --demo");
    std::fs::write(spool.join("b_new.jsonl"), demo.stdout).expect("write new batch");

    let out = Command::new(env!("CARGO_BIN_EXE_recn"))
        .args(["serve", "--spool"])
        .arg(&spool)
        .args(["--cache", "none", "--once", "--jobs", "1"])
        .output()
        .expect("run recn serve");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "serve must not die: {stderr}");
    assert!(
        stderr.contains("a_old.jsonl:1: bad spec_v1:")
            && stderr.contains("unsupported spec version 2"),
        "{stderr}"
    );
    assert!(
        spool.join("a_old.jsonl.err").exists(),
        "old batch set aside"
    );
    assert!(
        stderr.contains("a_long.jsonl:1: bad spec_v1:")
            && stderr.contains("1600000000 series bins"),
        "{stderr}"
    );
    assert!(
        spool.join("a_long.jsonl.err").exists(),
        "long batch set aside"
    );
    assert!(spool.join("b_new.jsonl.done").exists(), "drain continued");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.contains("\"label\": \"demo0\""), "{stdout}");
}

#[test]
fn a_batch_whose_results_could_not_be_written_is_not_marked_done() {
    let spool = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sweepd_closed_stdout");
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).expect("create spool");
    let demo = Command::new(env!("CARGO_BIN_EXE_recn"))
        .args(["serve", "--demo", "1"])
        .output()
        .expect("run recn serve --demo");
    std::fs::write(spool.join("b.jsonl"), demo.stdout).expect("write batch");
    let mut serve = Command::new(env!("CARGO_BIN_EXE_recn"));
    serve.args(["serve", "--once", "--jobs", "1", "--spool"]);
    serve.arg(&spool).arg("--cache").arg(spool.join("cache"));

    // First drain: stdout is a pipe nobody reads any more.
    let mut child = serve
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn recn serve");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for recn serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "an error, not a panic: {stderr}"
    );
    assert!(stderr.contains("cannot write results: "), "{stderr}");
    assert!(spool.join("b.jsonl").exists(), "batch keeps its name");
    assert!(
        !spool.join("b.jsonl.done").exists(),
        "and is not marked done"
    );

    // Second drain, readable stdout: served again, from the cache.
    let out = serve.output().expect("run recn serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("\"cache\": \"hit\""), "{stdout}");
    assert!(spool.join("b.jsonl.done").exists());
}
