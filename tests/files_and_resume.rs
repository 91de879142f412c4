//! Integration of the file layer (Section 3.6), resumption (res = 1)
//! and manual averaging (Section 3.4) across a chain of real runs.

use parmonc::genparam::{load_genparam, write_genparam};
use parmonc::manaver::manaver;
use parmonc::prelude::{Exchange, Parmonc, ParmoncError, RealizeFn, Resume};
use parmonc_stats::report;
use parmonc_testkit::TempDir;

fn tempdir(name: &str) -> TempDir {
    TempDir::new(&format!("fr-{name}"))
}

fn uniform() -> impl parmonc::Realize + Sync {
    RealizeFn::new(|rng, out| {
        for o in out.iter_mut() {
            *o = rng.next_f64();
        }
    })
}

#[test]
fn result_files_are_complete_and_parseable() {
    let dir = tempdir("files");
    let report_run = Parmonc::builder(3, 2)
        .max_sample_volume(1_000)
        .processors(2)
        .seqnum(4)
        .output_dir(&dir)
        .run(uniform())
        .unwrap();
    let rd = &report_run.results_dir;

    // func.dat: the matrix of sample means.
    let func = std::fs::read_to_string(rd.func_path()).unwrap();
    let (nrow, ncol, means) = report::parse_func(&func).unwrap();
    assert_eq!((nrow, ncol), (3, 2));
    assert_eq!(means, report_run.summary.means);

    // func_ci.dat: means + errors + variances per entry.
    let ci = report::parse_func_ci(&std::fs::read_to_string(rd.func_ci_path()).unwrap()).unwrap();
    assert_eq!(ci.len(), 6);
    for row in &ci {
        assert!(row.variance >= 0.0);
        assert!(row.abs_error >= 0.0);
    }

    // func_log.dat: volume, tau, upper bounds, processors, seqnum.
    let log =
        report::parse_func_log(&std::fs::read_to_string(rd.func_log_path()).unwrap()).unwrap();
    assert_eq!(log.sample_volume, 1_000);
    assert_eq!(log.processors, 2);
    assert_eq!(log.seqnum, 4);
    assert_eq!(log.eps_max, report_run.summary.eps_max);

    // parmonc_exp.dat: the experiment journal.
    let experiments = rd.read_experiments().unwrap();
    assert_eq!(experiments.len(), 1);
    assert_eq!(experiments[0].seqnum, 4);
    assert!(!experiments[0].resumed);
}

#[test]
fn resume_chain_preserves_total_volume_and_shrinks_errors() {
    let dir = tempdir("chain");
    let mut volumes = Vec::new();
    let mut errors = Vec::new();
    for (i, resume) in [Resume::New, Resume::Resume, Resume::Resume]
        .into_iter()
        .enumerate()
    {
        let report = Parmonc::builder(1, 1)
            .max_sample_volume(2_000)
            .processors(2)
            .seqnum(i as u64)
            .resume(resume)
            .output_dir(&dir)
            .run(uniform())
            .unwrap();
        volumes.push(report.total_volume);
        errors.push(report.summary.eps_max);
    }
    assert_eq!(volumes, vec![2_000, 4_000, 6_000]);
    assert!(errors[0] > errors[1] && errors[1] > errors[2], "{errors:?}");

    // The journal recorded all three experiments.
    let rd = parmonc::ResultsDir::open(&dir).unwrap();
    assert_eq!(rd.read_experiments().unwrap().len(), 3);
}

#[test]
fn manaver_recovers_a_simulated_crash_then_resume_continues() {
    let dir = tempdir("crash");
    // Healthy run to produce a checkpoint + baseline.
    Parmonc::builder(1, 1)
        .max_sample_volume(1_000)
        .processors(2)
        .seqnum(0)
        .output_dir(&dir)
        .run(uniform())
        .unwrap();

    // Simulate a crashed second job: baseline = current checkpoint,
    // plus worker files that never made it into a final save.
    let rd = parmonc::ResultsDir::open(&dir).unwrap();
    let checkpoint = rd.load_checkpoint().unwrap().unwrap();
    rd.save_baseline(&checkpoint).unwrap();
    let mut crashed = parmonc_stats::MatrixAccumulator::new(1, 1).unwrap();
    for i in 0..500 {
        crashed.add(&[f64::from(i % 2)]).unwrap();
    }
    rd.save_worker_subtotal(
        1,
        &parmonc::messages::Subtotal {
            acc: crashed,
            compute_seconds: 1.0,
        },
    )
    .unwrap();

    let mreport = manaver(&dir).unwrap();
    assert_eq!(mreport.total_volume, 1_500);
    assert_eq!(mreport.recovered_volume, 500);

    // res = 1 picks up the recovered total.
    let resumed = Parmonc::builder(1, 1)
        .max_sample_volume(500)
        .processors(2)
        .seqnum(1)
        .resume(Resume::Resume)
        .output_dir(&dir)
        .run(uniform())
        .unwrap();
    assert_eq!(resumed.resumed_volume, 1_500);
    assert_eq!(resumed.total_volume, 2_000);
}

/// A fresh session (`res = 0`) writes no baseline, and removes the one
/// an earlier `res = 1` session carried over before any rank starts. So
/// when the fresh session is killed after its state files are written,
/// `manaver` recovers exactly those files and none of the stale sums.
#[test]
fn a_killed_fresh_session_recovers_none_of_an_earlier_baseline() {
    killed_fresh_session_recovers_its_state_files("stale-baseline", Exchange::EveryRealization);
}

/// [`a_killed_fresh_session_recovers_none_of_an_earlier_baseline`] under
/// periodic exchange, whose default pass period (600 s) sends nothing
/// before the final subtotal: the state files are due on their own
/// period all the same, so the killed session leaves one.
#[test]
fn a_killed_fresh_periodic_session_recovers_none_of_an_earlier_baseline() {
    killed_fresh_session_recovers_its_state_files("stale-baseline-periodic", Exchange::Periodic);
}

fn killed_fresh_session_recovers_its_state_files(name: &str, exchange: Exchange) {
    use parmonc_faults::FaultPlan;
    use parmonc_stats::MatrixAccumulator;
    let dir = tempdir(name);
    let run = |seqnum: u64, resume: Resume| {
        Parmonc::builder(1, 1)
            .max_sample_volume(300)
            .processors(2)
            .seqnum(seqnum)
            .resume(resume)
            .output_dir(&dir)
            .run(uniform())
            .unwrap()
    };
    run(0, Resume::New);
    run(1, Resume::Resume);
    let rd = parmonc::ResultsDir::open(&dir).unwrap();
    let stale = rd
        .load_baseline()
        .unwrap()
        .expect("a res = 1 session writes its baseline");
    assert_eq!(stale.count(), 300);

    // The fresh session's rank 0 takes at least 1 ms a realization and
    // crashes after 700 of them, so its loop is past the 500 ms at which
    // its first state file is due.
    let err = Parmonc::builder(1, 1)
        .max_sample_volume(1_000_000)
        .seqnum(2)
        .exchange(exchange)
        .faults(FaultPlan::new(1).crash_rank(0, 700))
        .output_dir(&dir)
        .run(RealizeFn::new(|rng, out| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            out[0] = rng.next_f64();
        }))
        .unwrap_err();
    assert!(
        matches!(err, ParmoncError::CollectorCrashed { after: 700 }),
        "expected the scripted crash, got: {err}"
    );
    assert!(!rd.baseline_path().exists(), "the stale baseline survived");
    let files = rd.load_worker_subtotals().unwrap();
    assert_eq!(files.len(), 1, "rank 0 left its state file");
    let mut expected = MatrixAccumulator::new(1, 1).unwrap();
    for (_, sub) in &files {
        expected.merge(&sub.acc).unwrap();
    }
    assert!(expected.count() > 0 && expected.count() < 700);

    let recovered = manaver(&dir).unwrap();
    assert_eq!(recovered.total_volume, expected.count());
    assert_eq!(recovered.recovered_volume, expected.count());
    assert_eq!(recovered.summary, expected.summary());
}

/// The renderings are not fsynced, so a power loss may leave them empty
/// or truncated beside a good checkpoint. A `res = 1` run and `manaver`
/// each render them again, consistent with the checkpoint they write.
#[test]
fn damaged_renderings_are_rewritten_by_resume_and_by_manaver() {
    let dir = tempdir("renderings");
    let run = |seqnum: u64, resume: Resume| {
        Parmonc::builder(2, 1)
            .max_sample_volume(200)
            .processors(2)
            .seqnum(seqnum)
            .resume(resume)
            .output_dir(&dir)
            .run(uniform())
            .unwrap()
    };
    run(0, Resume::New);
    let rd = parmonc::ResultsDir::open(&dir).unwrap();
    let read = |path: std::path::PathBuf| std::fs::read_to_string(path).unwrap();
    let damage = || {
        std::fs::write(rd.func_path(), "").unwrap();
        let ci = read(rd.func_ci_path());
        std::fs::write(rd.func_ci_path(), &ci[..ci.len() / 2]).unwrap();
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let assert_rendered = || {
        let summary = rd.load_checkpoint().unwrap().unwrap().summary();
        let (_, _, means) = report::parse_func(&read(rd.func_path())).unwrap();
        assert_eq!(bits(&means), bits(&summary.means));
        let ci = report::parse_func_ci(&read(rd.func_ci_path())).unwrap();
        let ci_means: Vec<f64> = ci.iter().map(|row| row.mean).collect();
        let ci_errors: Vec<f64> = ci.iter().map(|row| row.abs_error).collect();
        assert_eq!(bits(&ci_means), bits(&summary.means));
        assert_eq!(bits(&ci_errors), bits(&summary.abs_errors));
    };

    damage();
    run(1, Resume::Resume);
    assert_rendered();

    damage();
    let mut crashed = parmonc_stats::MatrixAccumulator::new(2, 1).unwrap();
    crashed.add(&[0.25, 0.75]).unwrap();
    rd.save_worker_subtotal(
        1,
        &parmonc::messages::Subtotal {
            acc: crashed,
            compute_seconds: 1.0,
        },
    )
    .unwrap();
    assert_eq!(manaver(&dir).unwrap().recovered_volume, 1);
    assert_rendered();
}

#[test]
fn genparam_file_controls_the_hierarchy() {
    let dir = tempdir("genparam");
    std::fs::create_dir_all(&dir).unwrap();
    // Default when absent.
    assert_eq!(load_genparam(&dir).unwrap(), parmonc::LeapConfig::default());
    // genparam 100 80 40 writes the file; loading honours it.
    write_genparam(&dir, 100, 80, 40).unwrap();
    let cfg = load_genparam(&dir).unwrap();
    assert_eq!((cfg.ne(), cfg.np(), cfg.nr()), (100, 80, 40));

    // A run with the custom leaps still produces correct estimates.
    let report = Parmonc::builder(1, 1)
        .max_sample_volume(10_000)
        .processors(2)
        .leaps(cfg)
        .output_dir(&dir)
        .run(uniform())
        .unwrap();
    assert!((report.summary.means[0] - 0.5).abs() < 0.02);
}

#[test]
fn corrupt_checkpoint_is_reported_as_corruption() {
    // A checkpoint without a valid integrity footer (and no usable
    // backup) surfaces as CorruptCheckpoint naming the file.
    let dir = tempdir("corrupt");
    let rd = parmonc::ResultsDir::create(&dir).unwrap();
    std::fs::write(rd.checkpoint_path(), "garbage\n").unwrap();
    let err = Parmonc::builder(1, 1)
        .max_sample_volume(10)
        .resume(Resume::Resume)
        .output_dir(&dir)
        .run(uniform())
        .unwrap_err();
    match &err {
        ParmoncError::CorruptCheckpoint { path, reason } => {
            assert!(
                path.to_string_lossy().contains("checkpoint.dat"),
                "{}",
                path.display()
            );
            assert!(!reason.is_empty());
        }
        other => panic!("expected CorruptCheckpoint, got {other}"),
    }
}
