//! End-to-end CLI pipeline tests: generate → stats → ingest → query →
//! top, driven through the library entry point against a temp directory.

use streamlink_cli::run;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(ToString::to_string).collect()
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("streamlink_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn full_pipeline_csv() {
    let dir = TempDir::new("csv");
    let data = dir.path("dblp.csv");
    let snap = dir.path("snap.json");

    run(&argv(&[
        "generate",
        "--dataset",
        "dblp",
        "--scale",
        "small",
        "--out",
        &data,
    ]))
    .expect("generate");
    assert!(std::fs::metadata(&data).unwrap().len() > 1000);

    run(&argv(&["stats", "--input", &data])).expect("stats");

    run(&argv(&[
        "ingest",
        "--input",
        &data,
        "--slots",
        "64",
        "--snapshot",
        &snap,
    ]))
    .expect("ingest");
    let snapshot = std::fs::read_to_string(&snap).unwrap();
    assert!(snapshot.contains("\"config\""), "snapshot missing config");

    run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "jaccard",
        "--pair",
        "1:2",
    ]))
    .expect("query");
    run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "aa",
        "--pair",
        "0:1",
        "--pair",
        "2:3",
    ]))
    .expect("multi-pair query");

    run(&argv(&[
        "top",
        "--snapshot",
        &snap,
        "--vertex",
        "2",
        "--bands",
        "16",
        "--rows",
        "2",
    ]))
    .expect("top");
}

#[test]
fn binary_format_roundtrips_through_ingest() {
    let dir = TempDir::new("bin");
    let data = dir.path("wiki.bin");
    let snap = dir.path("snap.json");
    run(&argv(&[
        "generate",
        "--dataset",
        "wiki",
        "--scale",
        "small",
        "--out",
        &data,
        "--format",
        "bin",
    ]))
    .expect("generate bin");
    run(&argv(&["ingest", "--input", &data, "--snapshot", &snap])).expect("ingest bin");
    run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "cn",
        "--pair",
        "5:6",
    ]))
    .expect("query");
}

/// Runs a durable `streamlink serve` with `extra` flags over `dir`,
/// inserts `edges`, and stops it with SIGTERM so it writes its shutdown
/// generation. Returns that generation's path.
fn serve_generation(dir: &std::path::Path, extra: &[&str], edges: &[(u64, u64)]) -> String {
    use std::io::{BufRead, BufReader, Write};
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_streamlink"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--slots",
            "64",
            "--seed",
            "7",
        ])
        .args(["--data-dir", dir.to_str().unwrap()])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn streamlink serve");
    let addr = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .find_map(|line| Some(line.ok()?.strip_prefix("LISTENING ")?.to_string()))
        .expect("server exited before announcing LISTENING");
    let mut conn = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for &(u, v) in edges {
        writeln!(conn, "INSERT {u} {v}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK inserted");
    }
    drop((conn, reader));
    let killed = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    assert!(child.wait().unwrap().success(), "serve exits 0 on SIGTERM");
    let (_, newest) = streamlink_core::durable::list_generations(dir)
        .unwrap()
        .pop()
        .expect("shutdown generation");
    newest.to_string_lossy().into_owned()
}

/// `streamlink query` output for `pairs` on `snapshot`.
fn query_output(snapshot: &str, pairs: &[&str]) -> String {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_streamlink"));
    cmd.args(["query", "--snapshot", snapshot, "--measure", "jaccard"]);
    for pair in pairs {
        cmd.args(["--pair", pair]);
    }
    let out = cmd.output().expect("run streamlink query");
    assert!(
        out.status.success(),
        "query on {snapshot} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn query_reads_what_serve_writes_in_either_format() {
    let dir = TempDir::new("served");
    let edges: Vec<(u64, u64)> = (0..60u64)
        .flat_map(|w| [(1, 100 + w % 11), (2, 100 + w % 7)])
        .collect();
    let pairs = ["1:2", "1:100", "3:4"];

    let v3_dir = dir.0.join("v3");
    let v3 = serve_generation(&v3_dir, &[], &edges);
    assert!(std::fs::read(&v3).unwrap().starts_with(b"SLB3"), "{v3}");
    let v2_dir = dir.0.join("v2");
    let v2 = serve_generation(&v2_dir, &["--format", "v2"], &edges);
    assert!(
        std::fs::read_to_string(&v2)
            .unwrap()
            .starts_with("STREAMLINK-SNAP v2 "),
        "{v2}"
    );

    let from_v3 = query_output(&v3, &pairs);
    assert_eq!(from_v3, query_output(&v2, &pairs));
    let mut store =
        streamlink_core::SketchStore::new(streamlink_core::SketchConfig::with_slots(64).seed(7));
    for &(u, v) in &edges {
        store.insert_edge(graphstream::VertexId(u), graphstream::VertexId(v));
    }
    let jaccard = store
        .jaccard(graphstream::VertexId(1), graphstream::VertexId(2))
        .unwrap();
    assert!(
        from_v3.starts_with(&format!("jaccard 1:2 {jaccard:.6}\n")),
        "{from_v3}"
    );
    assert!(from_v3.contains("jaccard 3:4 unseen"), "{from_v3}");

    // `top` and `recommend` load the same generations.
    for snapshot in [&v3, &v2] {
        run(&argv(&["top", "--snapshot", snapshot, "--vertex", "1"])).expect("top");
        run(&argv(&[
            "recommend",
            "--snapshot",
            snapshot,
            "--vertex",
            "1",
        ]))
        .expect("recommend");
    }
}

#[test]
fn evaluate_runs_end_to_end() {
    run(&argv(&[
        "evaluate",
        "--dataset",
        "youtube",
        "--scale",
        "small",
        "--slots",
        "32",
    ]))
    .expect("evaluate");
}

#[test]
fn errors_are_descriptive() {
    let err = run(&argv(&["frobnicate"])).unwrap_err();
    assert!(err.contains("frobnicate"), "{err}");

    let err = run(&argv(&[
        "generate",
        "--dataset",
        "nope",
        "--out",
        "/dev/null",
    ]))
    .unwrap_err();
    assert!(err.contains("nope"), "{err}");

    let err = run(&argv(&[
        "query",
        "--snapshot",
        "/no/such/file",
        "--measure",
        "jaccard",
        "--pair",
        "1:2",
    ]))
    .unwrap_err();
    assert!(err.contains("/no/such/file"), "{err}");

    let err = run(&argv(&[
        "ingest",
        "--input",
        "/no/such/file",
        "--snapshot",
        "/tmp/x",
    ]))
    .unwrap_err();
    assert!(err.contains("/no/such/file"), "{err}");

    let dir = TempDir::new("badpair");
    let data = dir.path("d.csv");
    let snap = dir.path("s.json");
    run(&argv(&[
        "generate",
        "--dataset",
        "flickr",
        "--scale",
        "small",
        "--out",
        &data,
    ]))
    .unwrap();
    run(&argv(&["ingest", "--input", &data, "--snapshot", &snap])).unwrap();
    let err = run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "jaccard",
        "--pair",
        "xy",
    ]))
    .unwrap_err();
    assert!(err.contains("xy"), "{err}");
}

#[test]
fn help_succeeds_and_empty_fails() {
    run(&argv(&["help"])).expect("help");
    assert!(run(&[]).is_err());
}

#[test]
fn corrupt_snapshot_is_rejected() {
    let dir = TempDir::new("corrupt");
    let snap = dir.path("bad.json");
    std::fs::write(&snap, "{ not json").unwrap();
    let err = run(&argv(&[
        "query",
        "--snapshot",
        &snap,
        "--measure",
        "aa",
        "--pair",
        "1:2",
    ]))
    .unwrap_err();
    assert!(err.contains("snapshot"), "{err}");
}

#[test]
fn convert_roundtrips_between_formats() {
    let dir = TempDir::new("convert");
    let csv = dir.path("d.csv");
    let compact = dir.path("d.slk2");
    let back = dir.path("d2.csv");
    run(&argv(&[
        "generate",
        "--dataset",
        "wiki",
        "--scale",
        "small",
        "--out",
        &csv,
    ]))
    .unwrap();
    run(&argv(&[
        "convert", "--input", &csv, "--out", &compact, "--format", "compact",
    ]))
    .expect("csv -> compact");
    run(&argv(&[
        "convert", "--input", &compact, "--out", &back, "--format", "csv",
    ]))
    .expect("compact -> csv");
    // Compact file is much smaller; round trip preserves content.
    let csv_size = std::fs::metadata(&csv).unwrap().len();
    let compact_size = std::fs::metadata(&compact).unwrap().len();
    assert!(
        compact_size * 2 < csv_size,
        "compact {compact_size} vs csv {csv_size}"
    );
    assert_eq!(std::fs::read(&csv).unwrap(), std::fs::read(&back).unwrap());
}

#[test]
fn recommend_produces_ranked_output() {
    let dir = TempDir::new("recommend");
    let data = dir.path("dblp.csv");
    let snap = dir.path("snap.json");
    run(&argv(&[
        "generate",
        "--dataset",
        "dblp",
        "--scale",
        "small",
        "--out",
        &data,
    ]))
    .unwrap();
    run(&argv(&[
        "ingest",
        "--input",
        &data,
        "--slots",
        "128",
        "--snapshot",
        &snap,
    ]))
    .unwrap();
    run(&argv(&[
        "recommend",
        "--snapshot",
        &snap,
        "--vertex",
        "2",
        "--k",
        "5",
        "--measure",
        "aa",
        "--bands",
        "48",
        "--rows",
        "2",
    ]))
    .expect("recommend");
    // Unseen vertex is a clean error.
    let err = run(&argv(&[
        "recommend",
        "--snapshot",
        &snap,
        "--vertex",
        "99999999",
    ]))
    .unwrap_err();
    assert!(err.contains("never appeared"), "{err}");
}
