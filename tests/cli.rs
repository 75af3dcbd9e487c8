//! Scripted sessions through the `ctxpref-cli` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_script(script: &str) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctxpref-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cli binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("cli exits");
    assert!(out.status.success(), "cli exited with {:?}", out.status);
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn demo_query_session() {
    let (stdout, stderr) = run_script(
        "load demo\n\
         env\n\
         context Plaka warm friends\n\
         context\n\
         query\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("loaded demo"));
    assert!(stdout.contains("location:"));
    assert!(stdout.contains("current context set to (Plaka, warm, friends)"));
    assert!(stdout.contains("current context: (Plaka, warm, friends)"));
    assert!(stdout.contains("(0."), "results carry scores: {stdout}");
}

#[test]
fn preference_lifecycle_session() {
    let (stdout, stderr) = run_script(
        "load demo\n\
         pref location = Ioannina and temperature = bad :: type = theater @ 0.97\n\
         prefs\n\
         query location = Ioannina and temperature = bad\n\
         tree\n\
         orders\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("preference stored"));
    assert!(stdout.contains("theater"));
    assert!(
        stdout.contains("theater_"),
        "the new preference surfaces: {stdout}"
    );
    assert!(stdout.contains("ProfileTree["));
    assert!(stdout.contains("cells"));
}

#[test]
fn errors_go_to_stderr_and_do_not_kill_the_session() {
    let (stdout, stderr) = run_script(
        "query\n\
         load demo\n\
         context Atlantis warm friends\n\
         bogus\n\
         distance euclidean\n\
         context Plaka warm friends\n\
         distance jaccard\n\
         query\n\
         quit\n",
    );
    assert!(stderr.contains("no database loaded"));
    assert!(stderr.contains("Atlantis"));
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("unknown distance"));
    assert!(stdout.contains("distance set to Jaccard"));
    assert!(stdout.contains("(0."), "query still works after errors");
}

#[test]
fn deletion_and_rescoring() {
    let (stdout, stderr) = run_script(
        "load demo\n\
         pref location = Ioannina and temperature = bad :: type = theater @ 0.20\n\
         score 58 0.99\n\
         del 58\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("score updated"));
    assert!(stdout.contains("removed preference scoring 0.99"));
}

#[test]
fn save_and_open_roundtrip() {
    let dir = std::env::temp_dir().join(format!("ctxpref_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.ctxpref");
    let script = format!(
        "load demo\n\
         pref location = Ioannina and temperature = bad :: type = theater @ 0.97\n\
         save {p}\n\
         open {p}\n\
         context Perama cold alone\n\
         query\n\
         quit\n",
        p = path.display()
    );
    let (stdout, stderr) = run_script(&script);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("saved to"));
    assert!(
        stdout.contains("59 preferences"),
        "profile persisted: {stdout}"
    );
    assert!(
        stdout.contains("theater_"),
        "persisted preference applies: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_failure_exits_non_zero() {
    // A database named on the command line that cannot load is fatal.
    let out = Command::new(env!("CARGO_BIN_EXE_ctxpref-cli"))
        .arg("/definitely/not/a/real/path.db")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("cli runs");
    assert!(!out.status.success(), "expected non-zero exit");
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to load"));

    // So is a failed `open` mid-script.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ctxpref-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cli binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"open /definitely/not/a/real/path.db\nquit\n")
        .expect("script written");
    let out = child.wait_with_output().expect("cli exits");
    assert!(
        !out.status.success(),
        "expected non-zero exit from scripted open failure"
    );
}

#[test]
fn served_queries_report_ladder_and_stats() {
    let (stdout, stderr) = run_script(
        "load demo\n\
         deadline 250\n\
         context Plaka warm friends\n\
         query\n\
         query\n\
         stats\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("per-query deadline set to 250ms"));
    assert!(
        stdout.contains("[served from the context query tree]"),
        "{stdout}"
    );
    assert!(stdout.contains("1 cached, 1 exact"), "{stdout}");
    assert!(stdout.contains("contained panics 0"));
}

#[test]
fn explain_traces_resolution() {
    let (stdout, stderr) = run_script(
        "load demo\n\
         context Plaka warm friends\n\
         explain\n\
         explain location = Perama and temperature = freezing\n\
         quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("query state (Plaka, warm, friends)"));
    assert!(stdout.contains("stored state"));
    assert!(stdout.contains("interest score"));
    assert!(stdout.contains("cells accessed"));
    assert!(stdout.contains("(Perama, freezing, all)"), "{stdout}");
}

/// The set of words in `text`, splitting on anything that cannot be
/// part of a command name.
fn words(text: &str) -> std::collections::HashSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '-'))
        .collect()
}

#[test]
fn help_names_every_verb_remote_accepts() {
    const REMOTE: [&str; 16] = [
        "ping",
        "query",
        "topk",
        "query-desc",
        "views-status",
        "pref",
        "bulk-pref",
        "del",
        "score",
        "checkpoint",
        "flush",
        "wal-status",
        "repl-status",
        "scrub",
        "scrub-status",
        "stats",
    ];
    let (stdout, stderr) = run_script("help\nremote 127.0.0.1:9\nremote 127.0.0.1:9 bogus\nquit\n");
    // help's `remote` entry: its own line plus the continuation lines
    // indented under it.
    let mut lines = stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("remote <addr>"));
    let first = lines.next().expect("help has a remote entry");
    let help: Vec<&str> = std::iter::once(first)
        .chain(lines.take_while(|l| l.starts_with("   ")))
        .collect();
    let help = help.join(" ");
    let errors: Vec<&str> = stderr.lines().collect();
    assert_eq!(
        errors.len(),
        2,
        "usage and unknown-command errors: {stderr}"
    );
    for (list, text) in [
        ("help", help.as_str()),
        ("remote usage", errors[0]),
        ("unknown remote command", errors[1]),
    ] {
        let named = words(text);
        for verb in REMOTE {
            assert!(named.contains(verb), "{list} omits {verb}: {text}");
        }
    }
}

#[test]
fn local_and_remote_print_the_same() {
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    // Each pair runs locally, then over the wire against the same
    // database; the mutations touch distinct preferences given equal
    // scores, so their replies match too.
    let pairs = [
        ("ping", "ping"),
        (
            "pref location = Ioannina and temperature = bad :: type = theater @ 0.5",
            "pref location = Ioannina and temperature = bad :: type = museum @ 0.5",
        ),
        (
            "bulk-pref location = Perama :: type = zoo @ 0.4 ; location = Perama :: type = club @ 0.4",
            "bulk-pref location = Kastro :: type = zoo @ 0.4 ; location = Kastro :: type = club @ 0.4",
        ),
        ("score 58 0.6", "score 59 0.6"),
        ("del 59", "del 58"),
        ("views-status", "views-status"),
        ("stats", "stats"),
    ];
    // Typed refusals on a plain (not durable, not replicated) database.
    let refusals = [
        "checkpoint",
        "flush",
        "wal-status",
        "repl-status",
        "scrub-status",
    ];
    // `top 10` prints a fixed line: it separates one reply from the next.
    let mut script = format!("load demo\nserve {addr}\ntop 10\n");
    for (local, remote) in pairs {
        script.push_str(&format!(
            "{local}\ntop 10\nremote {addr} {remote}\ntop 10\n"
        ));
    }
    for verb in refusals {
        script.push_str(&format!("{verb}\nremote {addr} {verb}\n"));
    }
    script.push_str("quit\n");
    let (stdout, stderr) = run_script(&script);

    let replies: Vec<&str> = stdout.split("showing top 10\n").skip(1).collect();
    assert_eq!(replies.len(), 2 * pairs.len() + 1, "{stdout}");
    for (i, (local, _)) in pairs.iter().enumerate() {
        let (here, there) = (replies[2 * i], replies[2 * i + 1]);
        assert!(!here.is_empty(), "{local} printed nothing");
        assert_eq!(here, there, "{local}: local and remote replies differ");
    }
    assert!(replies[0].starts_with("pong"), "{stdout}");

    let errors: Vec<&str> = stderr.lines().collect();
    assert_eq!(errors.len(), 2 * refusals.len(), "{stderr}");
    for (i, verb) in refusals.iter().enumerate() {
        assert_eq!(
            errors[2 * i],
            errors[2 * i + 1],
            "{verb}: local and remote refusals differ"
        );
    }
}
