//! `repwf merge` — recombine campaign shard files exactly.
//!
//! The merged `--json` document is **byte-identical** to what the
//! unsharded `repwf campaign --json` prints for the same campaign
//! parameters, at any shard and thread count: both commands render
//! through [`repwf_dist::report::campaign_doc`], the outcomes travel as
//! exact f64 bit patterns, and the aggregates recombine through the
//! associative [`repwf_gen::CampaignAccum`]. Inconsistent inputs —
//! mismatched manifests, missing/duplicate shards, torn or tampered
//! files — are diagnosed (with the exact uncovered seed ranges and a
//! ready-to-run command per gap) and exit non-zero; a merge never
//! silently accepts partial data. `--allow-partial` opts into degraded
//! merging: incomplete shards contribute their validated checkpoint
//! prefix, and the output carries an explicit `partial` marker plus the
//! missing seed ranges — corruption is still refused.

use crate::commands::campaign::print_summary;
use repwf_dist::report::{campaign_doc, campaign_doc_partial};
use repwf_dist::{merge_paths, merge_paths_partial};

const HELP: &str = "\
repwf merge — recombine campaign shard files (from `repwf campaign --shard`,
`--range` or `--supervise`)

USAGE: repwf merge <shard.ndjson>... [OPTIONS]

Validates that the shards pin the same campaign (config, model, cap, seed
range) and tile its seed space exactly, then merges. The --json output is
byte-identical to the unsharded `repwf campaign --json` run. A failed
coverage check names the exact uncovered seed ranges and the command that
fills each gap.

OPTIONS:
  --csv PATH         write merged per-experiment outcomes as CSV
  --hist             print an ASCII histogram of the positive gaps
  --json             structured output (byte-identical to the unsharded run)
  --allow-partial    merge despite gaps/incomplete shards: keep every
                     validated record, report the missing seed ranges
                     explicitly (the JSON gains \"partial\": true and
                     \"missing_ranges\"); corrupt files are still refused
";

pub fn run(args: &[String]) -> Result<(), String> {
    let opts = crate::opts::Opts::parse(
        args,
        &["--csv"],
        &["--json", "--hist", "--help", "--allow-partial"],
    )?;
    if opts.has("--help") {
        out!("{HELP}");
        return Ok(());
    }
    let shards = opts.positional();
    if shards.is_empty() {
        return Err(format!("no shard files given\n\n{HELP}"));
    }
    let (merged, missing) = if opts.has("--allow-partial") {
        let report = merge_paths_partial(shards).map_err(|e| e.to_string())?;
        (report.merged, report.missing)
    } else {
        (merge_paths(shards).map_err(|e| e.to_string())?, Vec::new())
    };

    if let Some(path) = opts.get("--csv") {
        std::fs::write(path, repwf_gen::stats::outcomes_csv(&merged.result))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("CSV written to {path}");
    }

    for &(start, end) in &missing {
        eprintln!(
            "warning: seeds {start}..{end} missing from the merge ({} experiments)",
            end - start
        );
    }
    if opts.has("--json") {
        // A gap-free --allow-partial merge prints the plain document, so
        // it stays byte-identical to the unsharded run; only an actual
        // gap switches to the partial document.
        if missing.is_empty() {
            out!("{}", campaign_doc(&merged.spec, &merged.result).to_string_pretty());
        } else {
            out!(
                "{}",
                campaign_doc_partial(&merged.spec, &merged.result, &missing)
                    .to_string_pretty()
            );
        }
    } else {
        eprintln!(
            "merged {} shards: {}{}",
            merged.num_shards,
            merged.accum.progress(merged.spec.count).summary(),
            if missing.is_empty() { "" } else { " — PARTIAL" }
        );
        print_summary(&merged.spec, &merged.result, opts.has("--hist"));
    }
    Ok(())
}
