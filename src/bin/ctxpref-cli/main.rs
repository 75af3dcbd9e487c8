//! Interactive shell for the context-aware preference database — the
//! equivalent of the paper's prototype used in the Section 5.1 user
//! study, served through the fault-tolerant [`CtxPrefService`] layer
//! (deadlines, panic isolation, degradation ladder).
//!
//! ```text
//! cargo run --bin ctxpref-cli [saved-database]
//! ctxpref> load demo
//! ctxpref> context Plaka warm friends
//! ctxpref> query
//! ctxpref> query location = Athens and temperature = good
//! ctxpref> pref accompanying_people = family :: type = zoo @ 0.95
//! ctxpref> prefs
//! ctxpref> tree
//! ```
//!
//! Also works non-interactively: `echo "load demo\nquery ..." | ctxpref-cli`.
//! Malformed input prints an error and continues; a database that fails
//! to load at startup (or mid-script) exits with a non-zero code.

mod repl;
mod verbs;

use std::io::{self, BufRead, Write};
use std::time::Duration;

use repl::Repl;

/// The REPL serves a single profile; this is its user name inside the
/// multi-user service.
const USER: &str = "me";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let stdin = io::stdin();
    let interactive = atty_stdin();
    let mut repl = Repl::new();

    // Subcommand forms:
    //   ctxpref-cli serve <addr> [saved-database]   load + serve, REPL alongside
    //   ctxpref-cli remote <addr> <cmd…>            one-shot remote command
    //   ctxpref-cli [saved-database]                plain REPL
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut startup: Vec<String> = Vec::new();
    let serve_mode = args.first().map(String::as_str) == Some("serve");
    match args.first().map(String::as_str) {
        Some("serve") => {
            let Some(addr) = args.get(1) else {
                eprintln!("usage: ctxpref-cli serve <addr> [saved-database]");
                return 2;
            };
            startup.push(match args.get(2) {
                Some(path) => format!("open {path}"),
                None => "load demo".to_string(),
            });
            startup.push(format!("serve {addr}"));
        }
        Some("remote") => {
            if args.len() < 3 {
                eprintln!("usage: ctxpref-cli remote <addr> <cmd…>");
                return 2;
            }
            match repl.cmd_remote(&args[1..].join(" ")) {
                Ok(Some(out)) => {
                    println!("{}", out.trim_end());
                    return 0;
                }
                Ok(None) => return 0,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        // A database named on the command line must load; otherwise
        // the process is not in the state the caller asked for.
        Some(path) => startup.push(format!("open {path}")),
        None => {}
    }
    for line in startup {
        match repl.handle(&line) {
            Ok(Some(out)) => println!("{}", out.trim_end()),
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }

    if interactive {
        println!("ctxpref — context-aware preference database (ICDE 2007). Type `help`.");
    }
    loop {
        if interactive {
            print!("ctxpref> ");
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            // In serve mode a closed stdin means "run as a daemon":
            // keep the listener up until the process is killed.
            Ok(0) if serve_mode && repl.server.is_some() => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        match repl.handle(&line) {
            Ok(Some(out)) => println!("{}", out.trim_end()),
            Ok(None) => {}
            Err(e) if e == "__quit__" => break,
            Err(e) => {
                eprintln!("error: {e}");
                // A script that fails to load its data cannot meaningfully
                // continue; interactive users just get the error.
                if !interactive && e.starts_with("failed to load") {
                    return 1;
                }
            }
        }
    }
    0
}

/// Crude interactivity probe without extra dependencies: honour an
/// explicit environment override, default to non-interactive when lines
/// are piped (the common scripted case prints no prompts).
fn atty_stdin() -> bool {
    std::env::var("CTXPREF_INTERACTIVE")
        .map(|v| v == "1")
        .unwrap_or(false)
}
