//! `tbon-benchmark`: see README.md. `run.sh` and `aa.sh` build this and
//! call it; the flags below are theirs.

use std::path::PathBuf;
use std::process::ExitCode;

use tbon_benchmark::report::{run, RunOptions};
use tbon_benchmark::spec::{
    self, TransportKind, DEFAULT_SECONDS, QUICK_POINTS_PER_CLUSTER, QUICK_SECONDS,
};
use tbon_benchmark::suite::{aa, suite, ChildOptions};

const USAGE: &str = "usage:
  tbon-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one workload, in this process
  tbon-benchmark [--seed N] [--seconds S] [--quick]                       every workload, one process each
  tbon-benchmark aa [--seconds S]                                         two sets of runs against the bounds
common: [--transport local|tcp|uds] [--points-per-cluster N] [--out DIR]
workloads: stream_small_local stream_small_tcp bulk_echo_tcp rtt_deep_tcp meanshift_fig4";

struct Args {
    aa: bool,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    transport: Option<TransportKind>,
    points_per_cluster: Option<usize>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        aa: false,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        transport: None,
        points_per_cluster: None,
        out_dir: PathBuf::from("crates/benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("aa") {
        args.aa = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--transport" => {
                args.transport = Some(TransportKind::parse(&value).ok_or(bad("local, tcp or uds"))?)
            }
            "--points-per-cluster" => {
                args.points_per_cluster = Some(value.parse().map_err(|_| bad("a whole number"))?)
            }
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let points_per_cluster = args
        .points_per_cluster
        .or(args.quick.then_some(QUICK_POINTS_PER_CLUSTER));

    if let Some(name) = &args.workload {
        let Some(workload) = spec::workload(name) else {
            eprintln!("error: unknown workload `{name}`\n{USAGE}");
            return ExitCode::from(2);
        };
        // A failed wave is reported in the result line, not in the exit
        // code: the process itself ran to the end.
        run(&RunOptions {
            workload,
            transport: args.transport.unwrap_or(workload.transport),
            seed: args.seed,
            seconds,
            trace: args.trace,
            points_per_cluster,
            out_dir: args.out_dir,
        });
        return ExitCode::SUCCESS;
    }

    let mut passthrough = Vec::new();
    if let Some(t) = args.transport {
        passthrough.extend(["--transport".to_string(), t.name().to_string()]);
    }
    if let Some(p) = points_per_cluster {
        passthrough.extend(["--points-per-cluster".to_string(), p.to_string()]);
    }
    let child = ChildOptions {
        exe: std::env::current_exe().expect("path of this executable"),
        seconds,
        out_dir: args.out_dir,
        passthrough,
    };
    let code = if args.aa {
        aa(&child)
    } else {
        suite(&child, args.seed)
    };
    ExitCode::from(code as u8)
}
