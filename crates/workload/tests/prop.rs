//! Property tests for the synthetic workload generators.

use chainiq_devtest::{prop_assert, prop_assert_eq, prop_check, Gen};
use chainiq_workload::{Bench, KernelSpec, Phase, Profile, SyntheticWorkload};

fn rand_kernel(g: &mut Gen) -> KernelSpec {
    match g.pick(6) {
        0 => KernelSpec::Stream {
            arrays: g.u8(1..4),
            working_set: g.u64(1..8) << 12,
            stride: 8,
            fp_ops: g.u8(0..4),
            store: g.bool(),
        },
        1 => KernelSpec::Stencil {
            taps: g.u8(1..5),
            working_set: g.u64(1..8) << 10,
            fp_ops: g.u8(0..4),
        },
        2 => KernelSpec::Reduction { working_set: g.u64(1..8) << 10, fp_mul: g.bool() },
        3 => KernelSpec::PointerChase {
            nodes: g.u64(16..512),
            node_bytes: 64,
            work_per_hop: g.u8(0..4),
        },
        4 => KernelSpec::Gather {
            table_bytes: g.u64(1..64) << 12,
            index_bytes: 1 << 10,
            fp_ops: g.u8(0..4),
        },
        _ => KernelSpec::Branchy {
            taken_prob: g.f64(0.0..1.0),
            random_frac: g.f64(0.0..1.0),
            work: g.u8(0..5),
            working_set: g.u64(1..32) << 10,
        },
    }
}

fn rand_profile(g: &mut Gen) -> Profile {
    let phases = g.vec(1..4, |g| Phase {
        kernel: rand_kernel(g),
        burst_iterations: g.u32(1..64),
        weight: g.u32(1..4),
    });
    Profile::new("prop", phases)
}

prop_check! {
    /// Any profile produces an endless, well-formed stream: every
    /// instruction has consistent operands, memory ops carry addresses,
    /// branches carry outcomes.
    fn arbitrary_profiles_generate_well_formed_streams(g, cases = 48) {
        let profile = rand_profile(g);
        let seed = g.any_u64();
        let mut w = SyntheticWorkload::from_profile(profile, seed);
        for inst in w.by_ref().take(3000) {
            prop_assert!(inst.num_srcs() <= 2);
            if inst.is_load() {
                prop_assert!(inst.mem.is_some());
                prop_assert!(inst.dest.is_some());
            }
            if inst.is_store() {
                prop_assert!(inst.mem.is_some());
                prop_assert!(inst.dest.is_none());
            }
            if inst.is_branch() {
                prop_assert!(inst.branch.is_some());
                prop_assert!(inst.dest.is_none());
            }
            prop_assert!(inst.pc >= 0x1000_0000, "PCs live in the code region");
            if let Some(m) = inst.mem {
                prop_assert!(m.addr >= 0x4000_0000, "data lives in the data region");
            }
        }
        prop_assert_eq!(w.emitted(), 3000);
    }

    /// Streams are a pure function of (profile, seed).
    fn streams_are_deterministic(g, cases = 48) {
        let profile = rand_profile(g);
        let seed = g.any_u64();
        let a: Vec<_> =
            SyntheticWorkload::from_profile(profile.clone(), seed).take(1500).collect();
        let b: Vec<_> = SyntheticWorkload::from_profile(profile, seed).take(1500).collect();
        prop_assert_eq!(a, b);
    }

    /// Static PCs repeat: the dynamic stream reuses a bounded set of
    /// instruction addresses (a real program's static image), which the
    /// PC-indexed predictors rely on.
    fn static_code_footprint_is_bounded(g, cases = 48) {
        let profile = rand_profile(g);
        let seed = g.any_u64();
        let pcs: std::collections::BTreeSet<u64> = SyntheticWorkload::from_profile(profile, seed)
            .take(5000)
            .map(|i| i.pc)
            .collect();
        prop_assert!(pcs.len() < 400, "static footprint {} too large", pcs.len());
    }

    /// The standard benchmarks yield instruction mixes inside sane
    /// architectural bounds for any seed.
    fn bench_mixes_bounded_for_any_seed(g, cases = 48) {
        let seed = g.any_u64();
        for b in Bench::ALL {
            let mut loads = 0u32;
            let mut branches = 0u32;
            let n = 4000;
            for inst in SyntheticWorkload::from_profile(b.profile(), seed).take(n) {
                loads += u32::from(inst.is_load());
                branches += u32::from(inst.is_branch());
            }
            let lf = f64::from(loads) / n as f64;
            let bf = f64::from(branches) / n as f64;
            prop_assert!((0.05..0.6).contains(&lf), "{b}: load fraction {lf}");
            prop_assert!((0.02..0.45).contains(&bf), "{b}: branch fraction {bf}");
        }
    }
}
