//! CI gate over JSON artifacts:
//! `json_gate FILE [PATH=JSON | !PATH=JSON]...`
//!
//! Every line of FILE must parse as one JSON document (and there must
//! be one). `PATH` is a dot-separated walk through object keys
//! (`jobs.accepted`); `PATH=JSON` must hold on some line and
//! `!PATH=JSON` on none, comparing parsed values (`2` equals `2.0`).
//! Exits non-zero with a message at the first failure.

use quetzal_trace::json::Value;
use std::process::ExitCode;

/// The value at a dot-separated path of object keys, if every key exists.
fn lookup<'v>(doc: &'v Value, path: &str) -> Option<&'v Value> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

fn gate(args: &[String]) -> Result<(), String> {
    let (file, assertions) = args
        .split_first()
        .ok_or("usage: json_gate FILE [PATH=JSON | !PATH=JSON]...")?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let docs = (text.lines().enumerate())
        .map(|(n, line)| Value::parse(line).map_err(|e| format!("{file}:{}: {e}", n + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    if docs.is_empty() {
        return Err(format!("{file} holds no JSON document"));
    }
    for assertion in assertions {
        let body = assertion.strip_prefix('!');
        let (path, expected) = (body.unwrap_or(assertion))
            .split_once('=')
            .ok_or(format!("assertion '{assertion}' is not PATH=JSON"))?;
        let expected =
            Value::parse(expected).map_err(|e| format!("assertion '{assertion}': {e}"))?;
        if docs.iter().any(|d| lookup(d, path) == Some(&expected)) == body.is_some() {
            let which = if body.is_some() { "a" } else { "no" };
            return Err(format!(
                "{file}: {which} line has {path}={}",
                expected.dump()
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gate(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("json_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
