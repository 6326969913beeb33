//! Child processes of the program under test: spawn, wait, and read
//! the process's own resident high-water mark (`ru_maxrss`, which Linux
//! takes from the same counter as `VmHWM`) from `wait4`.
//!
//! Linux carries a process's `ru_maxrss` across `exec`, and a child
//! spawned with `vfork` starts from its parent's memory — so a child of
//! this benchmark, which holds whole datasets, would report the
//! benchmark's own peak. The program is therefore started through a
//! small launcher (`perfbench measure`, see [`launch`]): the launcher's
//! fresh process is the parent the program inherits from.

use crate::Ctx;
use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How a reaped child ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exit {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Resident high-water mark in MiB.
    pub peak_rss_mb: f64,
}

impl Exit {
    /// Did the process exit with code 0?
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Block until `child` exits and reap it. The `Child` must not have
/// been waited on before; afterwards only drop it.
pub fn reap(child: &Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // layout `wait4` writes (`int` and Linux's 64-bit `struct
        // rusage`); `pid` is our own unreaped child, so no other
        // process's status is consumed.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// Run `cmd` to completion: wall time from spawn to exit, and how it
/// ended.
pub fn run_timed(cmd: &mut Command) -> io::Result<(Duration, Exit)> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let exit = reap(&child)?;
    Ok((start.elapsed(), exit))
}

/// The launcher: run `program args…` to completion, then write
/// `<wall seconds> <peak RSS MiB> <exit code or -1>` to `record`.
/// Returns the program's exit code.
pub fn launch(record: &Path, program: &str, args: &[String]) -> io::Result<i32> {
    let (wall, exit) = run_timed(Command::new(program).args(args))?;
    let code = exit.code.unwrap_or(-1);
    std::fs::write(
        record,
        format!("{} {} {code}\n", wall.as_secs_f64(), exit.peak_rss_mb),
    )?;
    Ok(code)
}

/// A launcher command running `cmd`'s program and arguments, recording
/// into `record`.
pub fn launcher(ctx: &Ctx, cmd: &Command, record: &Path) -> Command {
    let mut l = Command::new(&ctx.launcher);
    l.arg("measure")
        .arg(record)
        .arg(cmd.get_program())
        .args(cmd.get_args());
    l
}

/// Read a launcher's record.
pub fn read_record(record: &Path) -> Result<(Duration, Exit), String> {
    let text = std::fs::read_to_string(record).map_err(|e| format!("{}: {e}", record.display()))?;
    let mut parts = text.split_whitespace().map(str::parse::<f64>);
    let mut next = || match parts.next() {
        Some(Ok(v)) => Ok(v),
        _ => Err(format!("{}: malformed record {text:?}", record.display())),
    };
    let (wall, rss, code) = (next()?, next()?, next()?);
    Ok((
        Duration::from_secs_f64(wall),
        Exit {
            code: (code >= 0.0).then_some(code as i32),
            peak_rss_mb: rss,
        },
    ))
}

/// Run `cmd` (stdout discarded) through the launcher: wall time from
/// the program's spawn to its exit, and its own peak RSS.
pub fn run_measured(ctx: &Ctx, cmd: &mut Command) -> Result<(Duration, Exit), String> {
    let record = ctx.work.join("measure.txt");
    let _ = std::fs::remove_file(&record);
    launcher(ctx, cmd, &record)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("launcher: {e}"))?;
    read_record(&record)
}
