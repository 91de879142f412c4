//! The `genparam` mechanism (paper Section 3.5): overriding the default
//! leap multipliers.
//!
//! Running `genparam ne np nr` writes `parmonc_genparam.dat` into the
//! working directory; thereafter the PARMONC routines pick up the leap
//! exponents (and hence the multipliers `A(n_e)`, `A(n_p)`, `A(n_r)`,
//! recomputed by binary exponentiation) from that file instead of the
//! defaults.

use std::fs;
use std::path::Path;

use parmonc_rng::multiplier::leap_multiplier;
use parmonc_rng::{LeapConfig, DEFAULT_MULTIPLIER};

use crate::error::{IoContext, ParmoncError};

/// File name the paper specifies.
pub const GENPARAM_FILE: &str = "parmonc_genparam.dat";

/// Writes `parmonc_genparam.dat` into `dir` for the given exponents —
/// the body of the `genparam ne np nr` command.
///
/// The file records the exponents and, for human inspection, the
/// resulting multipliers in hex (the multipliers are *recomputed* on
/// load; the exponents are authoritative).
///
/// # Errors
///
/// Returns [`ParmoncError::Hierarchy`] for invalid exponents or
/// [`ParmoncError::Io`] on write failure.
pub fn write_genparam(
    dir: impl AsRef<Path>,
    ne: u32,
    np: u32,
    nr: u32,
) -> Result<LeapConfig, ParmoncError> {
    let config = LeapConfig::new(ne, np, nr)?;
    let path = dir.as_ref().join(GENPARAM_FILE);
    let contents = format!(
        "ne = {ne}\nnp = {np}\nnr = {nr}\n\
         # A(2^ne) = {:#034x}\n# A(2^np) = {:#034x}\n# A(2^nr) = {:#034x}\n",
        leap_multiplier(DEFAULT_MULTIPLIER, ne),
        leap_multiplier(DEFAULT_MULTIPLIER, np),
        leap_multiplier(DEFAULT_MULTIPLIER, nr),
    );
    fs::write(&path, contents).io_ctx(format!("writing {}", path.display()))?;
    Ok(config)
}

/// Loads the leap configuration from `parmonc_genparam.dat` in `dir`,
/// or returns the defaults if the file does not exist — the lookup the
/// PARMONC routines perform at start-up.
///
/// # Errors
///
/// Returns [`ParmoncError::Config`] for a malformed file,
/// [`ParmoncError::Hierarchy`] for invalid exponents, or
/// [`ParmoncError::Io`] for an unreadable file.
pub fn load_genparam(dir: impl AsRef<Path>) -> Result<LeapConfig, ParmoncError> {
    let path = dir.as_ref().join(GENPARAM_FILE);
    if !path.exists() {
        return Ok(LeapConfig::default());
    }
    let text = fs::read_to_string(&path).io_ctx(format!("reading {}", path.display()))?;
    let mut ne = None;
    let mut np = None;
    let mut nr = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            let v = v.trim().parse::<u32>().map_err(|_| {
                ParmoncError::Config(format!("malformed {GENPARAM_FILE} line: {line:?}"))
            })?;
            match k.trim() {
                "ne" => ne = Some(v),
                "np" => np = Some(v),
                "nr" => nr = Some(v),
                other => {
                    return Err(ParmoncError::Config(format!(
                        "unknown key {other:?} in {GENPARAM_FILE}"
                    )))
                }
            }
        }
    }
    match (ne, np, nr) {
        (Some(ne), Some(np), Some(nr)) => Ok(LeapConfig::new(ne, np, nr)?),
        _ => Err(ParmoncError::Config(format!(
            "{GENPARAM_FILE} must define ne, np and nr"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> parmonc_testkit::TempDir {
        let dir = parmonc_testkit::TempDir::new(&format!("genparam-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn defaults_when_file_absent() {
        let dir = tempdir("absent");
        assert_eq!(load_genparam(&dir).unwrap(), LeapConfig::default());
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = tempdir("roundtrip");
        let written = write_genparam(&dir, 100, 80, 40).unwrap();
        let loaded = load_genparam(&dir).unwrap();
        assert_eq!(written, loaded);
        assert_eq!((loaded.ne(), loaded.np(), loaded.nr()), (100, 80, 40));
    }

    #[test]
    fn rejects_invalid_exponents() {
        let dir = tempdir("invalid");
        assert!(write_genparam(&dir, 40, 80, 100).is_err());
        assert!(!dir.join(GENPARAM_FILE).exists());
    }

    #[test]
    fn rejects_malformed_file() {
        let dir = tempdir("malformed");
        fs::write(dir.join(GENPARAM_FILE), "ne = spam\n").unwrap();
        assert!(matches!(load_genparam(&dir), Err(ParmoncError::Config(_))));
        fs::write(dir.join(GENPARAM_FILE), "ne = 100\n").unwrap();
        assert!(load_genparam(&dir).is_err()); // missing np, nr
        fs::write(dir.join(GENPARAM_FILE), "bogus = 1\n").unwrap();
        assert!(load_genparam(&dir).is_err());
    }

    #[test]
    fn file_contains_multiplier_comments() {
        let dir = tempdir("comments");
        write_genparam(&dir, 100, 80, 40).unwrap();
        let text = fs::read_to_string(dir.join(GENPARAM_FILE)).unwrap();
        assert!(text.contains("A(2^ne)"));
        assert!(text.contains("0x"));
    }
}
