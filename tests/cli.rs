//! End-to-end test of the `semrec` CLI: generate a world onto disk as Turtle
//! documents, then inspect / trust / recommend against it, and checkpoint /
//! recover it through a store directory.

use std::process::Command;

fn semrec() -> Command {
    Command::new(env!("CARGO_BIN_EXE_semrec"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let output = semrec().args(args).output().expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn generate_inspect_trust_recommend_round_trip() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-test-{}", std::process::id()));
    let dir_str = dir.to_str().unwrap();

    let (ok, stdout, stderr) =
        run(&["generate", "--scale", "small", "--seed", "11", "--out", dir_str]);
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("200 agent homepages"), "{stdout}");
    assert!(dir.join("taxonomy.ttl").exists());
    assert!(dir.join("catalog.ttl").exists());
    assert!(dir.join("agents/0.ttl").exists());

    let (ok, stdout, stderr) = run(&["inspect", "--data", dir_str]);
    assert!(ok, "inspect failed: {stderr}");
    assert!(stdout.contains("| agents"), "{stdout}");
    assert!(stdout.contains("200"), "{stdout}");

    let agent = "http://community.example.org/agents/0#me";
    let (ok, stdout, stderr) = run(&["trust", "--data", dir_str, "--agent", agent, "--top", "3"]);
    assert!(ok, "trust failed: {stderr}");
    assert!(stdout.contains("Appleseed"), "{stdout}");
    assert!(stdout.matches("agents/").count() >= 3, "{stdout}");

    let (ok, stdout, stderr) =
        run(&["recommend", "--data", dir_str, "--agent", agent, "--top", "5"]);
    assert!(ok, "recommend failed: {stderr}");
    assert!(stdout.contains("urn:isbn:"), "{stdout}");

    // Diversified output still returns the requested count.
    let (ok, stdout, _) = run(&[
        "recommend", "--data", dir_str, "--agent", agent, "--top", "5", "--diversify", "0.5",
    ]);
    assert!(ok);
    assert!(stdout.lines().filter(|l| l.contains("urn:isbn:")).count() == 5, "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rdfxml_world_round_trips() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-xml-{}", std::process::id()));
    let dir_str = dir.to_str().unwrap();
    let (ok, stdout, stderr) = run(&[
        "generate", "--scale", "small", "--seed", "11", "--out", dir_str, "--format", "rdfxml",
    ]);
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("RDF/XML"), "{stdout}");
    assert!(dir.join("agents/0.rdf").exists());

    // The same seed in both formats must load into identical statistics.
    let (ok, stdout, stderr) = run(&["inspect", "--data", dir_str]);
    assert!(ok, "inspect failed: {stderr}");
    assert!(!stderr.contains("failed to parse"), "{stderr}");
    assert!(stdout.contains("200"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `(product id, score)` of every recommendation row in a rendered table:
/// the score is the first decimal cell after the id (titles and voter counts
/// carry no `.`), so `recommend`'s extra columns don't matter.
fn product_scores(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter(|line| line.contains("urn:isbn:"))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let product = cells.iter().position(|c| c.starts_with("urn:isbn:")).unwrap();
            let score = cells[product + 1..].iter().find(|c| c.contains('.')).unwrap();
            (cells[product].to_string(), score.to_string())
        })
        .collect()
}

#[test]
fn checkpoint_then_recover_serves_what_recommend_serves() {
    let dir = std::env::temp_dir().join(format!("semrec-cli-store-{}", std::process::id()));
    let world = dir.join("world");
    let store = dir.join("store");
    let (world_str, store_str) = (world.to_str().unwrap(), store.to_str().unwrap());

    let (ok, _, stderr) =
        run(&["generate", "--scale", "small", "--seed", "11", "--out", world_str]);
    assert!(ok, "generate failed: {stderr}");

    let (ok, stdout, stderr) = run(&["checkpoint", "--data", world_str, "--store", store_str]);
    assert!(ok, "checkpoint failed: {stderr}");
    assert!(stdout.contains("Checkpointed 200 agents"), "{stdout}");
    assert!(stdout.contains(store_str), "{stdout}");

    let agent = "http://community.example.org/agents/0#me";
    let (ok, recovered, stderr) =
        run(&["recover", "--store", store_str, "--agent", agent, "--top", "5"]);
    assert!(ok, "recover failed: {stderr}");
    assert!(recovered.contains("wal status"), "{recovered}");

    let (ok, direct, stderr) =
        run(&["recommend", "--data", world_str, "--agent", agent, "--top", "5"]);
    assert!(ok, "recommend failed: {stderr}");
    assert_eq!(product_scores(&direct).len(), 5, "{direct}");
    assert_eq!(product_scores(&recovered), product_scores(&direct));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = run(&["recommend", "--data", "/nonexistent-semrec-dir"]);
    assert!(!ok);
    assert!(stderr.contains("error"));

    let (ok, _, stderr) = run(&["generate", "--scale", "galactic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scale"));

    // `serve-bench` and its five siblings are not subcommands.
    let (ok, _, stderr) = run(&["serve-bench", "--scale", "small"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    // An option the subcommand never reads is refused, not ignored:
    // ignoring `--out` here would checkpoint into the default ./checkpoints.
    let (ok, _, stderr) = run(&["checkpoint", "--data", "/nonexistent-semrec-dir", "--out", "x"]);
    assert!(!ok);
    assert!(stderr.contains("`checkpoint` does not take `--out`"), "{stderr}");
}
