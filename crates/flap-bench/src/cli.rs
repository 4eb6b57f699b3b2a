//! The binaries' one command line and snapshot check.
//!
//! A bench binary takes numeric positional arguments, `--json` and,
//! if it has a checked-in snapshot, `--smoke [snapshot]`:
//!
//! * with neither flag it prints its table;
//! * `--json` prints its report as a JSON document, the schema of its
//!   checked-in `BENCH_*.json`;
//! * `--smoke [snapshot]` makes a fast pass, compares the report's
//!   *schema* — keys, kinds and array lengths, not the
//!   machine-dependent numbers — with the snapshot, then runs the
//!   binary's own gate, and exits non-zero if either fails. CI runs
//!   it so a snapshot cannot silently fall out of step with its
//!   harness.

use std::process::ExitCode;
use std::str::FromStr;

use crate::json::Json;

/// What a run prints.
#[derive(Clone, Debug, PartialEq)]
enum Output {
    /// The human-readable table.
    Table,
    /// The JSON report (`--json`).
    Json,
    /// The schema check against this snapshot, then the gate
    /// (`--smoke`).
    Smoke(String),
}

/// A bench binary's parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    bin: &'static str,
    positional: Vec<String>,
    output: Output,
}

impl Cli {
    /// Parses the process arguments of binary `bin`. `snapshot` is the
    /// file `--smoke` compares against when none follows the flag; a
    /// binary without one takes no `--smoke`. Unknown arguments are
    /// reported on stderr and ignored.
    pub fn parse(bin: &'static str, snapshot: Option<&str>) -> Cli {
        Cli::from_args(bin, snapshot, std::env::args().skip(1))
    }

    fn from_args(
        bin: &'static str,
        snapshot: Option<&str>,
        args: impl IntoIterator<Item = String>,
    ) -> Cli {
        let is_number = |a: &str| a.parse::<f64>().is_ok();
        let mut cli = Cli {
            bin,
            positional: Vec::new(),
            output: Output::Table,
        };
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            match (a.as_str(), snapshot) {
                ("--json", _) => cli.output = Output::Json,
                ("--smoke", Some(default)) => {
                    let path = args
                        .next_if(|p| !p.starts_with('-') && !is_number(p))
                        .unwrap_or_else(|| default.to_string());
                    cli.output = Output::Smoke(path);
                }
                (a, _) if is_number(a) => cli.positional.push(a.to_string()),
                (a, _) => eprintln!("{bin}: ignoring unknown argument {a}"),
            }
        }
        cli
    }

    /// Whether this is a `--smoke` run.
    pub fn smoke(&self) -> bool {
        matches!(self.output, Output::Smoke(_))
    }

    /// The `i`th numeric positional argument, or `default` when it is
    /// absent or not a `T`.
    pub fn arg<T: FromStr>(&self, i: usize, default: T) -> T {
        self.positional
            .get(i)
            .and_then(|a| a.parse().ok())
            .unwrap_or(default)
    }

    /// Prints the run's report: `table` by default, `doc` under
    /// `--json`. Under `--smoke` it checks `doc`'s schema against the
    /// snapshot, then runs `gate`, whose `Ok` text is appended to the
    /// success line and whose `Err` fails the run.
    pub fn emit(
        &self,
        doc: &Json,
        table: impl FnOnce(),
        gate: impl FnOnce() -> Result<String, String>,
    ) -> ExitCode {
        let path = match &self.output {
            Output::Table => {
                table();
                return ExitCode::SUCCESS;
            }
            Output::Json => {
                println!("{doc}");
                return ExitCode::SUCCESS;
            }
            Output::Smoke(path) => path,
        };
        match self.check_schema(path, doc).and_then(|()| gate()) {
            Ok(note) => {
                println!(
                    "{} --smoke: snapshot {path} schema matches the harness{note}",
                    self.bin
                );
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("{} --smoke: {msg}", self.bin);
                ExitCode::FAILURE
            }
        }
    }

    fn check_schema(&self, path: &str, doc: &Json) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read snapshot {path}: {e}"))?;
        let snap =
            Json::parse(&text).map_err(|e| format!("snapshot {path} is not valid JSON: {e}"))?;
        if snap.same_schema(doc) {
            return Ok(());
        }
        Err(format!(
            "schema drift between {path} and the harness.\n\
             Regenerate with: cargo run --release -p flap-bench --bin {} -- --json > {path}\n\
             current harness output:\n{doc}",
            self.bin
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(snapshot: Option<&str>, args: &[&str]) -> Cli {
        Cli::from_args("t", snapshot, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn positionals_and_flags() {
        let c = cli(Some("S.json"), &["32", "--json", "4"]);
        assert_eq!(c.output, Output::Json);
        assert_eq!(
            (c.arg(0, 0usize), c.arg(1, 0usize), c.arg(2, 9usize)),
            (32, 4, 9)
        );
        assert_eq!(c.arg(0, 0.5f64), 32.0);
        assert!(!c.smoke());
    }

    #[test]
    fn smoke_takes_an_optional_snapshot() {
        let c = cli(Some("S.json"), &["--smoke"]);
        assert_eq!(c.output, Output::Smoke("S.json".to_string()));
        let c = cli(Some("S.json"), &["--smoke", "0.5"]);
        assert_eq!(c.output, Output::Smoke("S.json".to_string()));
        assert_eq!(c.arg(0, 2.0), 0.5);
        let c = cli(Some("S.json"), &["--smoke", "other.json", "3"]);
        assert_eq!(c.output, Output::Smoke("other.json".to_string()));
        assert_eq!(c.arg(0, 0usize), 3);
        // a binary without a snapshot takes no --smoke
        assert_eq!(cli(None, &["--smoke"]).output, Output::Table);
    }
}
