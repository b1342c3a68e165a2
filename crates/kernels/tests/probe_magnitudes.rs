//! Characterization probe: prints per-dtype activity magnitudes for
//! random Gaussian inputs. Run with `--nocapture` to read the table used
//! to calibrate `wm-power` coefficients (see that crate's Calibration docs).

use wm_bits::Xoshiro256pp;
use wm_kernels::{simulate, GemmConfig, GemmInputs, Sampling};
use wm_numerics::DType;
use wm_patterns::{PatternKind, PatternSpec};

#[test]
fn print_random_input_magnitudes() {
    let dim = 256;
    for dtype in DType::ALL {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let spec = PatternSpec::new(PatternKind::Gaussian);
        let a = spec.generate(dtype, dim, dim, &mut rng.fork(0));
        let b = spec.generate(dtype, dim, dim, &mut rng.fork(1));
        let cfg =
            GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 32, cols: 32 });
        let act = simulate(
            &GemmInputs {
                a: &a,
                b_stored: &b,
                c: None,
            },
            &cfg,
        )
        .activity;
        println!(
            "{:7} op_a={:6.3} op_b={:6.3} mult={:6.3} acc={:6.3} nz={:5.3} align={:5.3} hw_a={:6.3} dram_tog/word={:5.3}",
            dtype.label(),
            act.operand_a_toggles_per_mac,
            act.operand_b_toggles_per_mac,
            act.mult_activity_per_mac,
            act.accum_toggles_per_mac,
            act.nonzero_mac_fraction,
            act.mean_bit_alignment,
            act.mean_hamming_weight_a,
            act.dram_toggles as f64 / act.dram_words as f64,
        );
    }

    // Zero matrices: the all-quiet floor.
    let dtype = DType::Fp16Tensor;
    let z = PatternSpec::new(PatternKind::Zeros).generate(
        dtype,
        dim,
        dim,
        &mut Xoshiro256pp::seed_from_u64(1),
    );
    let cfg =
        GemmConfig::square(dim, dtype).with_sampling(Sampling::Lattice { rows: 32, cols: 32 });
    let act = simulate(
        &GemmInputs {
            a: &z,
            b_stored: &z,
            c: None,
        },
        &cfg,
    )
    .activity;
    println!(
        "zeros   op={:6.3} mult={:6.3} acc={:6.3}",
        act.operand_toggles_per_mac(),
        act.mult_activity_per_mac,
        act.accum_toggles_per_mac
    );
}
