//! Arguments shared by the two binaries:
//! `--workload <name> --seed <n> --seconds <s> [--trace <0|1>]`.

use crate::phases::Ctx;
use crate::pin::{self, Unpinned};
use crate::report::Report;
use crate::spec::{Scale, Spec, Workload};
use std::io;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
}

impl Args {
    /// Parses the process arguments; `Err` carries the usage message.
    pub fn parse(spec: &Spec, args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: Workload::PredictSingle,
            seed: spec.default_seed,
            seconds: spec.run_seconds,
        };
        let mut workload = None;
        let mut args = args.skip(1);
        while let Some(flag) = args.next() {
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    workload = Some(Workload::parse(&name).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload `{name}` (one of: {})", names.join(", "))
                    })?);
                }
                "--seed" => {
                    out.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    out.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                // Which binary runs is the caller's choice (`run.sh`
                // reads this flag); both accept it so one argument list
                // serves both.
                "--trace" => {
                    value("0 or 1")?;
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        out.workload = workload.ok_or("--workload <name> is required")?;
        Ok(out)
    }

    pub fn gated_scale(&self, spec: &Spec) -> Scale {
        Scale::gated(spec, self.seconds)
    }

    pub fn traced_scale(&self, spec: &Spec) -> Scale {
        Scale::traced(spec, self.seconds)
    }
}

/// The `main` of `perf-run` and `perf-layers`: parse, fix the allocator,
/// pin (before anything spawns a thread: children inherit the mask), run,
/// print, and exit 0 only when nothing failed.
pub fn main_of(
    name: &str,
    scale: impl FnOnce(&Args, &Spec) -> Scale,
    run: impl FnOnce(&Ctx, Workload, Unpinned) -> io::Result<Report>,
) -> ! {
    let spec = Spec::load();
    let args = Args::parse(&spec, std::env::args()).unwrap_or_else(|usage| {
        eprintln!("{name}: {usage}");
        std::process::exit(2);
    });
    pin::steady_allocator();
    let (cpu, unpinned) = pin::pin_to_current_cpu().unwrap_or_else(|e| {
        eprintln!("{name}: cannot pin to one CPU ({e}); an unpinned run is not a measurement");
        std::process::exit(3);
    });
    let scale = scale(&args, &spec);
    let outcome =
        Ctx::new(spec, args.seed, scale).and_then(|ctx| run(&ctx, args.workload, unpinned));
    match outcome {
        Ok(mut report) => {
            report
                .info
                .insert(0, ("pinned_cpu".into(), cpu.to_string()));
            report.print();
            std::process::exit(if report.tally.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(4);
        }
    }
}
