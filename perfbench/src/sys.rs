//! The few host facts the standard library does not expose: peak
//! resident memory, the kernel release and the CPU model. Asked of the
//! kernel and the processor directly, so the benchmark reads no file
//! outside its checkout.

use std::ffi::{c_char, c_int, c_long};

/// `struct rusage` on Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

/// `struct utsname` on Linux: six 65-byte fields.
#[repr(C)]
struct Utsname {
    fields: [[c_char; 65]; 6],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn uname(buf: *mut Utsname) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // layout; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    // Linux reports ru_maxrss in KiB.
    usage.maxrss as f64 / 1024.0
}

/// The running kernel's release string.
pub fn kernel_release() -> String {
    let mut buf = Utsname {
        fields: [[0; 65]; 6],
    };
    // SAFETY: `buf` is a live, writable `struct utsname` with the Linux
    // layout; uname writes NUL-terminated strings within it.
    if unsafe { uname(&mut buf) } != 0 {
        return "unknown".into();
    }
    let release = &buf.fields[2];
    let bytes: Vec<u8> = release
        .iter()
        .take_while(|&&c| c != 0)
        .map(|&c| c as u8)
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The processor's brand string, from CPUID leaves 0x8000_0002..=4.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: CPUID is available on every x86_64 processor and only
    // reads identification registers.
    let max = unsafe { __cpuid(0x8000_0000) }.eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        #[allow(unused_unsafe)]
        // SAFETY: as above; the leaf is within the reported maximum.
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let s = String::from_utf8_lossy(&bytes);
    s.trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".into()
}
