//! Every byte a command prints to stdout goes through [`write()`] (via the
//! `out!`/`outln!` macros). A reader that closes the pipe early —
//! `repwf period … | head -4` — ends the process with status 0 instead of
//! the panic `print!` raises on `EPIPE`.

use std::io::{ErrorKind, Write as _};

/// `print!` through [`write()`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::write(format_args!($($arg)*))
    };
}

/// `println!` through [`write()`].
macro_rules! outln {
    () => {
        $crate::out::write(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::write(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes formatted text to stdout. A closed pipe exits the process
/// cleanly; any other write error panics, as `print!` does.
pub fn write(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}
