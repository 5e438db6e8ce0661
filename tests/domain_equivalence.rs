//! Domain-count invariance: the conservative-parallel engine must produce
//! byte-identical results for every `--domains N`. A partition decides
//! *where* events execute, never *what* they compute — the canonical
//! mailbox order at barriers, per-node RNG streams, and content-keyed
//! fault draws together make the domain count unobservable in every
//! Report field that is a result (the partition-shape diagnostics
//! `domains`, `cross_domain_packets`, and `domain_peak_pending` are
//! explicitly excluded from stdout/CSV and normalized here).

use proptest::prelude::*;
use vertigo::simcore::{EventBackend, SimDuration};
use vertigo::stats::Report;
use vertigo::transport::CcKind;
use vertigo::workload::{
    BackgroundSpec, DistKind, FaultSchedule, IncastSpec, RunSpec, SystemKind, TopoKind,
    WorkloadSpec,
};

/// A quick fig5-style cell: background + incast on the 32-host quick
/// leaf-spine, 10 ms horizon.
fn cell(system: SystemKind, backend: EventBackend) -> RunSpec {
    let total_bw = 32u64 * 10_000_000_000;
    let mut spec = RunSpec::new(
        system,
        CcKind::Dctcp,
        WorkloadSpec {
            background: Some(BackgroundSpec {
                load: 0.25,
                dist: DistKind::CacheFollower,
            }),
            incast: Some(IncastSpec {
                qps: IncastSpec::qps_for_load(0.10, 10, 40_000, total_bw),
                scale: 10,
                flow_bytes: 40_000,
            }),
        },
    );
    spec.topo = TopoKind::LeafSpine { hosts_per_leaf: 4 };
    spec.horizon = SimDuration::from_millis(10);
    spec.event_backend = backend;
    spec
}

/// The report's result content with the partition-shape diagnostics
/// normalized away: `domains` records the requested count verbatim and
/// `cross_domain_packets` / `domain_peak_pending` depend on where the
/// cut fell, so none of the three can (or should) match across counts.
/// Everything else must.
fn canon(mut r: Report) -> String {
    r.domains = 0;
    r.cross_domain_packets = 0;
    r.domain_peak_pending = Vec::new();
    format!("{r:?}")
}

#[test]
fn domain_counts_are_unobservable_in_reports() {
    let mut spec = cell(SystemKind::Vertigo, EventBackend::Wheel);
    spec.domains = Some(1);
    let base = spec.run();
    let base_canon = canon(base.report.clone());
    assert!(base.report.flows_completed > 0, "cell must carry traffic");
    assert_eq!(base.report.domains, 1);
    assert_eq!(base.report.domain_peak_pending.len(), 1);
    assert!(base.report.barrier_epochs > 0);
    assert_eq!(
        base.report.cross_domain_packets, 0,
        "one domain has no boundary to cross"
    );
    for n in [2usize, 4, 8] {
        let mut spec = cell(SystemKind::Vertigo, EventBackend::Wheel);
        spec.domains = Some(n);
        let out = spec.run();
        assert_eq!(out.report.domains, n as u64);
        assert_eq!(out.report.domain_peak_pending.len(), n);
        assert_eq!(
            out.report.barrier_epochs, base.report.barrier_epochs,
            "the barrier grid is partition-independent"
        );
        assert_eq!(
            canon(out.report),
            base_canon,
            "--domains {n} diverged from --domains 1"
        );
        assert_eq!(
            format!("{:?}", out.ordering),
            format!("{:?}", base.ordering)
        );
        assert_eq!(format!("{:?}", out.marking), format!("{:?}", base.marking));
        assert_eq!(out.max_port_bytes, base.max_port_bytes);
    }
}

#[test]
fn domain_equivalence_holds_on_heap_and_under_faults() {
    let faults = FaultSchedule::parse("loss:*:0.002@2ms-8ms").unwrap();
    let mut spec = cell(SystemKind::Vertigo, EventBackend::Heap);
    spec.faults = faults;
    spec.domains = Some(1);
    let base = spec.run();
    assert!(
        base.report.fault_events > 0,
        "the loss window must actually intervene for this test to bite"
    );
    let base_canon = canon(base.report);
    for n in [2usize, 4, 8] {
        let mut spec = cell(SystemKind::Vertigo, EventBackend::Heap);
        spec.faults = faults;
        spec.domains = Some(n);
        let out = spec.run();
        assert_eq!(
            canon(out.report),
            base_canon,
            "--domains {n} diverged under faults on the heap backend"
        );
    }
}

#[test]
fn domain_equivalence_holds_on_a_fat_tree() {
    // k = 4 fat-tree: 16 hosts, per-pod zones — exercises the multi-zone
    // partition path (leaf-spine collapses to per-leaf zones).
    let mut base_spec = cell(SystemKind::Ecmp, EventBackend::Wheel);
    base_spec.topo = TopoKind::FatTree { k: 4 };
    base_spec.domains = Some(1);
    let base = base_spec.run();
    let base_canon = canon(base.report);
    for n in [2usize, 4] {
        let mut spec = cell(SystemKind::Ecmp, EventBackend::Wheel);
        spec.topo = TopoKind::FatTree { k: 4 };
        spec.domains = Some(n);
        let out = spec.run();
        assert_eq!(
            canon(out.report),
            base_canon,
            "--domains {n} diverged on the fat-tree"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs two whole simulations
        ..ProptestConfig::default()
    })]

    /// For any system, backend, seed, fault window, and domain count, the
    /// domain engine's results match its own `--domains 1` run exactly.
    #[test]
    fn any_domain_count_matches_one(
        system in prop_oneof![Just(SystemKind::Ecmp), Just(SystemKind::Vertigo)],
        backend in prop_oneof![Just(EventBackend::Wheel), Just(EventBackend::Heap)],
        n in 2usize..=8,
        seed in 1u64..100,
        with_faults in any::<bool>(),
    ) {
        let make = |domains: usize| {
            let mut spec = cell(system, backend);
            spec.seed = seed;
            spec.domains = Some(domains);
            if with_faults {
                spec.faults = FaultSchedule::parse("loss:*:0.001@1ms-6ms").unwrap();
            }
            spec
        };
        let base = make(1).run();
        let out = make(n).run();
        prop_assert_eq!(canon(out.report), canon(base.report));
        prop_assert_eq!(out.max_port_bytes, base.max_port_bytes);
    }
}

/// The full `Report` (every field, diagnostics included) of a small
/// faulted `--domains 1` cell, hashed and pinned on both backends. The
/// invariance tests above only compare domain counts with each other, so
/// a change that moved every count at once would pass them; this pins
/// the absolute result. `events_scheduled`, `peak_pending_events` and
/// `domain_peak_pending` are part of the digest, so a change to how the
/// engine feeds its wheel shows up here too.
#[test]
fn domains_one_report_digest_is_pinned() {
    const PINNED: u64 = 0x2886_0779_63cb_c3fe;
    for backend in [EventBackend::Wheel, EventBackend::Heap] {
        let mut spec = cell(SystemKind::Vertigo, backend);
        spec.faults = FaultSchedule::parse("loss:*:0.002@2ms-8ms").unwrap();
        spec.domains = Some(1);
        let mut report = spec.run().report;
        assert!(report.fault_events > 0 && report.flows_completed > 0);
        // The one field a build feature moves (zero without `audit`).
        report.audit_checks = 0;
        let digest = vertigo::pkt::fnv1a(format!("{report:?}").as_bytes());
        assert_eq!(
            digest, PINNED,
            "--domains 1 report digest moved on {backend:?}: {report:?}"
        );
    }
}
