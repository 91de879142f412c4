//! Shared by the integration tests that launch worker processes.

/// Asserts the process backend left nothing behind: no live worker
/// children of this process, no zombies, and no `parmonc-ipc-*` socket
/// directories belonging to this PID.
pub fn assert_no_orphans() {
    let me = std::process::id();
    let mut orphans = Vec::new();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Field 4 of /proc/pid/stat (after the parenthesized comm) is
        // the parent PID.
        let Some(after_comm) = stat.rsplit(')').next() else {
            continue;
        };
        let mut fields = after_comm.split_whitespace();
        let _state = fields.next();
        let Some(ppid) = fields.next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if ppid != me {
            continue;
        }
        // Our only children are re-executed workers; any survivor with
        // the worker environment is an orphan.
        let environ = std::fs::read(format!("/proc/{pid}/environ")).unwrap_or_default();
        if environ
            .split(|&b| b == 0)
            .any(|kv| kv.starts_with(b"PARMONC_WORKER_SOCKET="))
        {
            orphans.push(pid);
        }
    }
    assert!(orphans.is_empty(), "orphaned worker processes: {orphans:?}");

    let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&format!("parmonc-ipc-{me}-")))
        })
        .map(|e| e.path())
        .collect();
    assert!(
        leftovers.is_empty(),
        "socket dirs not removed: {leftovers:?}"
    );
}
