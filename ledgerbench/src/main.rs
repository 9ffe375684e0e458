//! Layer-ledger benchmark CLI.
//!
//! ```text
//! ledgerbench --workload <fleet_mix|capture_replay|soc_service>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host header, the input notes, one line per metric (median,
//! quartiles, sample count) and, as the last line, the JSON result.
//! Exits with code 2, printing no result, on bad arguments. A failed
//! output check is reported in the result (`"correct": false`).

use ja_ledgerbench::host::HostHeader;
use ja_ledgerbench::{run, Options, Size};

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 86_400.0) {
                    return Err(format!("--seconds must be in (0, 86400], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

fn main() {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", HostHeader::probe());
    println!(
        "workload={} seed={} seconds={} trace={}",
        outcome.workload,
        outcome.seed,
        opts.seconds,
        u8::from(outcome.traced)
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for failure in &outcome.checks.failures {
        println!("FAILED: {failure}");
    }
    print!("{}", outcome.table());
    println!("{}", outcome.json());
}
