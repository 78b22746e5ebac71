//! Coalesced `\r` progress records on stderr.
//!
//! Campaign callbacks fire once per experiment, from every worker, and
//! stderr is unbuffered: a record per call would cost write syscalls per
//! experiment (megabytes of stderr on a Table 2 scale run). A
//! [`ProgressLine`] prints only at the first experiment, at every
//! whole-percent step and at the last one, and writes each record with a
//! single `write_all` from a stack buffer — no heap allocation on the
//! callback path.

use std::io::{Cursor, Write};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Capacity of one record; longer records are cut short.
const RECORD_BYTES: usize = 256;

/// One progress line on stderr, shared by the worker threads of a run.
#[derive(Debug, Default)]
pub struct ProgressLine {
    /// Highest `done` written so far.
    shown: AtomicUsize,
}

impl ProgressLine {
    pub fn new() -> Self {
        ProgressLine::default()
    }

    /// Writes the record `format` builds for experiment `done` of
    /// `total`, if `done` is a record point. Records never go backwards:
    /// a worker whose record was overtaken by a later one (the final
    /// record included) drops it.
    pub fn report(
        &self,
        done: usize,
        total: usize,
        format: impl FnOnce(&mut Cursor<[u8; RECORD_BYTES]>) -> std::io::Result<()>,
    ) {
        if !is_record_point(done, total) {
            return;
        }
        let mut record = Cursor::new([0u8; RECORD_BYTES]);
        // A full buffer only truncates the record.
        let _ = format(&mut record);
        let len = record.position() as usize;
        // The high-water check runs under the stderr lock, so the order
        // of the checks is the order of the writes.
        let mut err = std::io::stderr().lock();
        if self.shown.fetch_max(done, Ordering::Relaxed) < done {
            let _ = err.write_all(&record.get_ref()[..len]);
            drop(err);
            // The workers keep every core busy, so the reader of the line
            // (a terminal, a pipe consumer) would wait out a scheduler
            // time slice, about a millisecond, before it could show the
            // record. Yield it the CPU: about 100 yields per run.
            std::thread::yield_now();
        }
    }
}

/// The first experiment, each whole-percent step and the last one.
fn is_record_point(done: usize, total: usize) -> bool {
    let percent = |d: usize| d as u128 * 100 / total.max(1) as u128;
    done == 1 || done == total || percent(done) != percent(done.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_points_are_first_each_percent_and_last() {
        let points: Vec<usize> = (1..=1000).filter(|&d| is_record_point(d, 1000)).collect();
        assert_eq!(points.len(), 101);
        assert_eq!(points[..3], [1, 10, 20]);
        assert_eq!(points.last(), Some(&1000));
        // Small totals report every experiment; one experiment reports once.
        assert!((1..=7).all(|d| is_record_point(d, 7)));
        assert!(is_record_point(1, 1));
        // Large totals stay near 100 records.
        let n = 40_000;
        assert_eq!((1..=n).filter(|&d| is_record_point(d, n)).count(), 101);
    }
}
